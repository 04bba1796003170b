"""Span recording for the traced benchmark run.

The library is timed from outside: `Tracer.install` replaces each
function named in TARGETS, in every loaded `mdkit` module that holds it
(and in `numpy.linalg` for lstsq/svd), by a wrapper that records one
span per call.  Spans live in memory as lists

    [name, start, end, parent, task, note]

with `parent` the index of the enclosing span (-1 at top level), `task`
the index of the task being run, and `note` a flag read off the return
value (for example whether a commutant basis rationalized).  They are
written out once, when the run ends.

This module imports neither numpy nor mdkit, so the CLI launcher can
load it before timing `import mdkit.cli`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter

# Names the file a traced `mdk` child writes its spans to.
TRACE_ENV = "PERFBENCH_TRACE_FILE"

_BUILD = "constructors.build"
_WITT = "algebras.witt"
_DUMP = "serialize.dump"

# (module, function, span name); several functions may share a span name
TARGETS = (
    ("mdkit.invariants", "enumerate_invariants", "invariants.search"),
    ("mdkit.invariants", "commutant_basis", "invariants.commutant"),
    ("mdkit.modular_data", "verlinde_fusion", "modular_data.fusion"),
    ("mdkit.modular_data", "validate", "modular_data.validate"),
    ("mdkit.modular_data", "deligne_product", "modular_data.product"),
    ("mdkit.constructors", "pointed", _BUILD),
    ("mdkit.constructors", "drinfeld_double", _BUILD),
    ("mdkit.constructors", "twisted_double_cyclic", _BUILD),
    ("mdkit.constructors", "su2_level", _BUILD),
    ("mdkit.constructors", "preset", _BUILD),
    ("mdkit.constructors", "equivalent_up_to_relabeling", "constructors.relabel"),
    ("mdkit.groups", "character_table", "groups.character_table"),
    ("mdkit.buildspec", "evaluate", "buildspec.evaluate"),
    ("mdkit.algebras", "witt_invariants", _WITT),
    ("mdkit.algebras", "witt_obstruction", _WITT),
    ("mdkit.algebras", "anisotropy_screen", "algebras.anisotropy"),
    ("mdkit.algebras", "screen_algebra", "algebras.screen"),
    ("mdkit.algebras", "algebra_from_invariant", "algebras.from_invariant"),
    ("mdkit.serialize", "dump_modular_data", _DUMP),
    ("mdkit.serialize", "invariants_doc", _DUMP),
    ("mdkit.serialize", "load_modular_data", "serialize.load"),
    ("numpy.linalg", "lstsq", "numpy.lstsq"),
    ("numpy.linalg", "svd", "numpy.svd"),
)

NOTES = {
    "invariants.commutant": lambda result: bool(result.rationalized),
    "constructors.relabel": lambda result: result is None,
}


class Tracer:
    """In-memory span collector for one process (single-threaded use)."""

    def __init__(self):
        self.spans: list[list] = []
        self.task = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, self.task, None])
        self._stack.append(idx)
        self.spans[idx][1] = perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Time a block as a span; yields the span's index."""
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished top-level span measured by the caller."""
        self.spans.append([name, start, end, -1, self.task, None])

    def wrap(self, name: str, fn):
        note = NOTES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if note is not None:
                tracer.spans[idx][5] = note(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every TARGETS function wherever an mdkit module holds it."""
        holders = [m for n, m in list(sys.modules.items())
                   if n == "mdkit" or n.startswith("mdkit.")]
        for module_name, func, name in TARGETS:
            home = importlib.import_module(module_name)
            original = getattr(home, func)
            traced = self.wrap(name, original)
            for mod in [home] + holders:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def abandon_open_spans(self, end: float) -> None:
        """Close spans a deadline interrupt left open and clear the stack.

        The interrupt can land inside a wrapper's `finally`, so the stack
        is not trusted after one.
        """
        for idx in self._stack:
            if self.spans[idx][2] == 0.0:
                self.spans[idx][2] = end
        self._stack.clear()

    def merge(self, spans: list[list], parent: int) -> None:
        """Append spans recorded by a child process under span `parent`."""
        base = len(self.spans)
        task = self.spans[parent][4]
        for name, start, end, up, _task, note in spans:
            self.spans.append([name, start, end,
                               up + base if up >= 0 else parent, task, note])

    def dump(self, path: str) -> None:
        """Write the spans as {"names": [...], "spans": [[name index,
        start, end, parent, task, note], ...]}."""
        names: dict[str, int] = {}
        rows = []
        for name, start, end, parent, task, note in self.spans:
            idx = names.setdefault(name, len(names))
            rows.append([idx, start, end, parent, task, note])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": list(names), "spans": rows}, fh,
                      separators=(",", ":"))


def load_spans(path: str) -> list[list]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    names = doc["names"]
    return [[names[r[0]], r[1], r[2], r[3], r[4], r[5]] for r in doc["spans"]]


def layer_table(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, time (outermost spans only, so recursion and
    nesting under the same name count once), self time (duration minus
    the direct children's durations), and how many notes were true."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _task, _note in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table: dict[str, dict[str, float]] = {}
    for idx, (name, start, end, parent, _task, note) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "time": 0.0, "self": 0.0,
                                      "noted": 0})
        dur = end - start
        row["calls"] += 1
        row["self"] += dur - child_time[idx]
        if note:
            row["noted"] += 1
        up = parent
        while up >= 0 and spans[up][0] != name:
            up = spans[up][3]
        if up < 0:
            row["time"] += dur
    return table
