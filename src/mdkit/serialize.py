"""JSON documents for modular data, groups, and solver output.

Complex entries are written as {"re": x, "im": y} with 17 significant
digits, enough for a lossless double round trip.  The modular-data
emitter is hand-rolled so that identical inputs always produce identical
bytes.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import MdkError
from .groups import (GROUP_PRESETS, FiniteGroup, group_from_table,
                     group_preset)
from .modular_data import ModularData

__all__ = [
    "dump_modular_data", "load_modular_data", "dump_group", "load_group",
    "resolve_group", "load_pointed_doc", "invariants_doc",
]


def _f(x: float) -> str:
    return format(float(x), ".17g")


def _c(z: complex) -> str:
    return '{"re": %s, "im": %s}' % (_f(z.real), _f(z.imag))


def dump_modular_data(md: ModularData) -> str:
    """Serialize to the interchange document (deterministic bytes)."""
    rows = []
    for j in range(md.rank):
        rows.append("[" + ", ".join(_c(z) for z in md.S[j]) + "]")
    parts = [
        '"rank": %d' % md.rank,
        '"labels": [%s]' % ", ".join(json.dumps(l) for l in md.labels),
        '"S": [%s]' % ", ".join(rows),
        '"T": [%s]' % ", ".join(_c(z) for z in md.T),
        '"eps": %s' % _f(md.eps),
    ]
    return "{" + ", ".join(parts) + "}\n"


def _complex_in(obj, where: str) -> complex:
    if (not isinstance(obj, dict) or set(obj) != {"re", "im"}
            or not all(type(obj[k]) in (int, float) for k in obj)):
        raise MdkError(f"{where}: expected an object with re/im numbers")
    try:
        return complex(obj["re"], obj["im"])
    except OverflowError:
        raise MdkError(f"{where}: number too large for a double") from None


def _reject_constant(name: str):
    raise MdkError(f"not valid JSON: {name} is not a number")


def _parse_json(text: str):
    # ValueError covers a syntax error (JSONDecodeError) and an integer
    # past the interpreter's digit limit; RecursionError, deep nesting
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:
        raise MdkError(f"not valid JSON: {exc}") from None


def _check_labels(labels, n: int) -> None:
    if labels is not None and (not isinstance(labels, list)
                               or len(labels) != n
                               or any(not isinstance(l, str) for l in labels)):
        raise MdkError(f"labels must be {n} strings")


def load_modular_data(text: str, *, eps: float | None = None) -> ModularData:
    """Parse an interchange document.

    Fields, shapes, number types, labels and eps are checked here
    (MdkError).  The axioms are not: like the output of every
    constructor, the data is validated at first use, and each analysis
    raises ValidationFailedError on data that fails.
    """
    doc = _parse_json(text)
    if not isinstance(doc, dict):
        raise MdkError("top level of a modular-data document must be an object")
    for key in ("rank", "S", "T"):
        if key not in doc:
            raise MdkError(f"document is missing the {key!r} field")
    rank = doc["rank"]
    if type(rank) is not int or rank < 1:
        raise MdkError(f"rank must be a positive integer, got {rank!r}")
    S_doc, T_doc = doc["S"], doc["T"]
    if (not isinstance(S_doc, list) or len(S_doc) != rank
            or any(not isinstance(r, list) or len(r) != rank for r in S_doc)):
        raise MdkError(f"S must be a {rank}x{rank} array")
    if not isinstance(T_doc, list) or len(T_doc) != rank:
        raise MdkError(f"T must be a length-{rank} array")
    S = np.array([[_complex_in(S_doc[j][i], f"S[{j}][{i}]")
                   for i in range(rank)] for j in range(rank)])
    T = [_complex_in(T_doc[i], f"T[{i}]") for i in range(rank)]
    labels = doc.get("labels")
    _check_labels(labels, rank)
    if eps is None:
        eps = doc.get("eps")
        if eps is not None and type(eps) not in (int, float):
            raise MdkError(f"eps must be a number, got {eps!r}")
    return ModularData(S, T, labels=labels, eps=eps)


def dump_group(g: FiniteGroup) -> str:
    return json.dumps({"order": g.order,
                       "table": [list(map(int, row)) for row in g.table]}) + "\n"


def load_group(text: str) -> FiniteGroup:
    return _group_from_doc(_parse_json(text))


def _group_from_doc(doc) -> FiniteGroup:
    if not isinstance(doc, dict) or "table" not in doc:
        raise MdkError("group document must be an object with a 'table' field")
    group = group_from_table(doc["table"])
    order = doc.get("order", group.order)
    if type(order) is not int or order != group.order:
        raise MdkError(f"declared order {order!r} does not match the "
                       f"table size {group.order}")
    return group


def resolve_group(name_or_path: str) -> FiniteGroup:
    """A group from "preset:<name>", a bare preset name, or a JSON file."""
    name = name_or_path.removeprefix("preset:")
    if name != name_or_path or name in GROUP_PRESETS:
        return group_preset(name)
    if not os.path.exists(name_or_path):
        raise MdkError(f"{name_or_path!r} is neither a group preset nor an "
                       f"existing file")
    return load_group(_slurp(name_or_path))


def _slurp(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise MdkError(f"cannot read {path!r}: {exc}") from None


def load_pointed_doc(text: str):
    """Parse a pointed-category document.

    Format: {"group": <group doc, "preset:X", or preset name>,
    "q": [{"re","im"}, ...], "labels": [...] (optional)}.  Returns
    (group, q values, labels).
    """
    doc = _parse_json(text)
    if not isinstance(doc, dict) or "group" not in doc or "q" not in doc:
        raise MdkError("pointed document needs 'group' and 'q' fields")
    gdoc = doc["group"]
    if isinstance(gdoc, str):
        group = resolve_group(gdoc)
    elif isinstance(gdoc, dict):
        group = _group_from_doc(gdoc)
    else:
        raise MdkError("'group' must be a name or a group object")
    qdoc = doc["q"]
    if not isinstance(qdoc, list) or len(qdoc) != group.order:
        raise MdkError(f"'q' must list {group.order} unit complex values")
    q = [_complex_in(x, f"q[{i}]") for i, x in enumerate(qdoc)]
    labels = doc.get("labels")
    _check_labels(labels, group.order)
    return group, q, labels


def invariants_doc(invs) -> str:
    """Solver output: {"count": k, "invariants": [{"Z": ..., "kind": ...}]}."""
    items = [{"Z": inv.Z.tolist(), "kind": inv.kind} for inv in invs]
    return json.dumps({"count": len(items), "invariants": items}) + "\n"
