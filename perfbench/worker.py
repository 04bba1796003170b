"""Benchmark worker: one process that runs a workload's task list, one
task after another (a closed loop with a single client and no harness
threads).

Started by run.py as `python3 perfbench/worker.py <workload> <seed>
<output dir>` with src/ on PYTHONPATH.  One line each way over
stdin/stdout:

    worker -> "ready"                      after set-up: imports, task list
    run.py -> "exit"  or  "run <seconds> <trace 0|1>"
    worker -> "result <json>"

After an untimed warm-up, a run repeats the whole task list while
another pass is expected to end within `seconds` (at least one pass).
With trace 1, untraced and traced passes alternate, which gives the
tracing overhead.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
from time import perf_counter

import spans
import workloads as wl


class DeadlineExceeded(BaseException):
    """Raised by the task timer; a BaseException so that no handler in
    the library can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it."""
    return max(0, (100 * (n - 10)) // n)


def nearest_rank(sorted_values: list[float], pct: int) -> float:
    rank = max(1, -(-pct * len(sorted_values) // 100))
    return sorted_values[rank - 1]


class Runner:
    def __init__(self, workload: str, tasks, refs, out_dir: str):
        self.workload = workload
        self.tasks = tasks
        self.refs = refs
        self.out_dir = out_dir

    def run_task(self, idx: int, task, tracer, tmp_dir: str | None):
        if tracer is None or task.kind != "cli":
            return wl.RUNNERS[task.kind](task, os.environ)
        path = os.path.join(tmp_dir, f"{idx}.json")
        env = dict(os.environ, **{spans.TRACE_ENV: path})
        with tracer.span("cli.process") as parent:
            answer = wl.RUNNERS[task.kind](task, env)
        if os.path.exists(path):
            tracer.merge(spans.load_spans(path), parent)
            os.remove(path)
        return answer

    def one_pass(self, tracer=None, tmp_dir: str | None = None) -> dict:
        """One pass over the task list; traced when `tracer` is given."""
        records, answers = [], []
        if tracer is not None:
            tracer.install()
        start = perf_counter()
        for idx, task in enumerate(self.tasks):
            if tracer is not None:
                tracer.task = idx
            answer, outcome, detail = None, "solved", ""
            t0 = perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, task.deadline_s)
                try:
                    answer = self.run_task(idx, task, tracer, tmp_dir)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except DeadlineExceeded:
                outcome = "deadline"
            except Exception as exc:  # a failing task is recorded, the loop goes on
                outcome, detail = "error", f"{type(exc).__name__}: {exc}"
            t1 = perf_counter()
            if outcome == "deadline" and tracer is not None:
                tracer.abandon_open_spans(t1)
            records.append({"task": idx, "label": task.label,
                            "kind": task.kind, "frontier": task.frontier,
                            "deadline_s": task.deadline_s,
                            "outcome": outcome, "detail": detail,
                            "time_s": (task.deadline_s if outcome == "deadline"
                                       else t1 - t0)})
            answers.append(answer)
        wall = perf_counter() - start
        # checking happens outside the timed loop, and untraced
        if tracer is not None:
            tracer.uninstall()
        for rec, task, answer in zip(records, self.tasks, answers):
            if rec["outcome"] != "solved":
                continue
            try:
                wl.CHECKS[task.kind](task, answer, self.refs[task.key])
            except wl.WrongAnswer as exc:
                rec["outcome"], rec["detail"] = "wrong", str(exc)
        answers.clear()
        return {"wall_s": wall, "records": records}

    def warm_up(self) -> float:
        """Run one small task of each kind the list uses, untimed and
        unchecked, so that first-call costs (BLAS thread start-up, lazy
        imports, cold file cache for cli) stay out of the first pass."""
        start = perf_counter()
        for kind in dict.fromkeys(t.kind for t in self.tasks):
            wl.RUNNERS[kind](wl.WARM_UP[kind], os.environ)
        return perf_counter() - start

    def run(self, seconds: float, trace: bool) -> dict:
        """Passes over the task list while the next one, as long as the
        last, ends within `seconds`.  With `trace`, untraced and traced
        passes alternate, starting untraced, at least one of each."""
        signal.signal(signal.SIGALRM, _on_alarm)
        result = {"warm_up_s": self.warm_up()}
        budget_start = perf_counter()
        passes, untraced = [], []
        tracer = tmp_dir = None
        if trace:
            tracer = spans.Tracer()
            tmp_dir = tempfile.mkdtemp(prefix="spans-", dir=self.out_dir)
        try:
            while True:
                if trace and len(untraced) <= len(passes):
                    untraced.append(self.one_pass())
                    last = untraced[-1]
                else:
                    passes.append(self.one_pass(tracer, tmp_dir))
                    last = passes[-1]
                if "peak_rss_mb" not in result:
                    result["peak_rss_mb"] = peak_rss_mb(self.workload)
                elapsed = perf_counter() - budget_start
                if passes and elapsed + last["wall_s"] > seconds:
                    break
        finally:
            if tmp_dir is not None:
                shutil.rmtree(tmp_dir, ignore_errors=True)
        result["passes"] = passes
        result["summary"] = summarize(passes)
        if trace:
            result["untraced_passes"] = untraced
            result["layers"] = layer_metrics(tracer.spans, passes, untraced)
            spans_path = os.path.join(self.out_dir,
                                      f"{self.workload}-spans.json")
            tracer.dump(spans_path)
            result["spans_file"] = spans_path
        return result


def peak_rss_mb(workload: str) -> float:
    """Peak RSS so far of the worker, or of its largest `mdk` child for
    cli.  Read after the first pass: later passes reuse the memory the
    first one left fragmented, which added up to 14% depending on how
    many passes fit."""
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def summarize(passes: list[dict]) -> dict:
    """Run figures: median pass wall time; task latency percentiles over
    the task times of all passes pooled.  The tail percentile is fixed by
    the list length (ten tasks beyond it in every pass), so it does not
    change with the number of passes."""
    times = sorted(r["time_s"] for p in passes for r in p["records"])
    per_pass = len(passes[0]["records"])
    pct = tail_percentile(per_pass)
    records = [r for p in passes for r in p["records"]]
    return {"wall_s": statistics.median(p["wall_s"] for p in passes),
            "task_p50_s": statistics.median(times),
            "task_tail_s": nearest_rank(times, pct),
            "tail_percentile": pct, "tasks_per_pass": per_pass,
            "samples": len(times), "passes": len(passes),
            "attempted": len(records),
            "solved": sum(r["outcome"] == "solved" for r in records),
            "failed": sum(r["outcome"] in ("error", "wrong") for r in records)}


# metric name -> (span name, field, unit); field "time" is the time in
# outermost spans of that name, "self" the self time, "calls" the span
# count, "share" the share of calls whose note is true (0 without calls)
LAYER_METRICS = {
    "invariants.search_self_s": ("invariants.search", "self", "s"),
    "invariants.lstsq_calls": ("numpy.lstsq", "calls", "count"),
    "numpy.lstsq_s": ("numpy.lstsq", "time", "s"),
    "invariants.commutant_s": ("invariants.commutant", "time", "s"),
    "invariants.commutant_calls": ("invariants.commutant", "calls", "count"),
    "numpy.svd_s": ("numpy.svd", "time", "s"),
    "invariants.rationalized_share": ("invariants.commutant", "share", "share"),
    "modular_data.fusion_s": ("modular_data.fusion", "time", "s"),
    "modular_data.validate_s": ("modular_data.validate", "time", "s"),
    "modular_data.validate_calls": ("modular_data.validate", "calls", "count"),
    "modular_data.product_s": ("modular_data.product", "time", "s"),
    "constructors.build_s": ("constructors.build", "time", "s"),
    "groups.character_table_s": ("groups.character_table", "time", "s"),
    "buildspec.evaluate_self_s": ("buildspec.evaluate", "self", "s"),
    "constructors.relabel_s": ("constructors.relabel", "time", "s"),
    "constructors.relabel_calls": ("constructors.relabel", "calls", "count"),
    "constructors.relabel_none_share": ("constructors.relabel", "share", "share"),
    "algebras.witt_s": ("algebras.witt", "time", "s"),
    "algebras.anisotropy_s": ("algebras.anisotropy", "time", "s"),
    "algebras.screen_s": ("algebras.screen", "time", "s"),
    "algebras.from_invariant_s": ("algebras.from_invariant", "time", "s"),
    "serialize.dump_s": ("serialize.dump", "time", "s"),
    "serialize.load_s": ("serialize.load", "time", "s"),
    "cli.import_s": ("cli.import", "time", "s"),
    "cli.run_s": ("cli.run", "time", "s"),
    "cli.process_overhead_s": ("cli.process", "self", "s"),
}


def layer_metrics(span_list, passes, untraced) -> dict:
    """Per-layer figures per pass (mean over the traced passes), plus the
    tracing overhead: median traced pass minus median untraced pass."""
    table = spans.layer_table(span_list)
    n = len(passes)
    out = {}
    for metric, (name, field, unit) in LAYER_METRICS.items():
        row = table.get(name, {"calls": 0, "time": 0.0, "self": 0.0,
                               "noted": 0})
        if field == "share":
            value = row["noted"] / row["calls"] if row["calls"] else 0.0
        else:
            value = row[field] / n
        out[metric] = {"value": value, "unit": unit}
    traced = statistics.median(p["wall_s"] for p in passes)
    plain = statistics.median(p["wall_s"] for p in untraced)
    out["trace.overhead_s"] = {"value": traced - plain, "unit": "s"}
    out["trace.overhead_share"] = {"value": (traced - plain) / plain,
                                   "unit": "share"}
    return out


def environment() -> dict:
    import numpy
    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except Exception as exc:  # older numpy has no dict mode; record why
        blas = {"error": f"{type(exc).__name__}: {exc}"}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def main() -> int:
    workload, seed, out_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    src = os.path.join(wl.ROOT, "src")
    if not os.path.realpath(wl.mk.__file__).startswith(
            os.path.realpath(src) + os.sep):
        print(f"error: mdkit was imported from {wl.mk.__file__}, not from "
              f"{src}", file=sys.stderr)
        return 2
    tasks = wl.task_list(workload, seed)
    refs = wl.load_references(workload)
    missing = [t.key for t in tasks if t.key not in refs]
    if missing:
        print(f"error: no reference answer for {missing[:3]}", file=sys.stderr)
        return 2
    print("ready", flush=True)

    command = sys.stdin.readline().split()
    if not command or command[0] != "run":
        return 0
    seconds, trace = float(command[1]), command[2] == "1"
    result = Runner(workload, tasks, refs, out_dir).run(seconds, trace)
    result["environment"] = environment()
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
