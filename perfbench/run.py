"""perfbench: the mdkit benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload {solve,scale,match,cli} \\
        --seed N --seconds S --trace {0,1}

The seed fixes the task list (order and relabelings); the library is
imported from ./src.  One worker process runs the tasks one after
another; `--seconds` bounds how many whole passes over the list it
makes (at least one).  Every answer is checked; a wrong answer, a CLI
output mismatch or a task error makes the run fail (exit 1).

--trace 0 prints the end-to-end metrics: wall_s (one pass over the task
list, median over passes), task_p50_ms and task_tail_ms (per-task
latency; the tail is the highest percentile with at least ten tasks
beyond it), solved_share (answers verified before their deadline over
tasks attempted), peak_rss_mb (the worker up to the end of its first
pass, or the largest `mdk` child for cli) and setup_s (worker start, `import mdkit`, task list; median of
SETUP_SAMPLES fresh workers).

--trace 1 runs one untraced pass, then traced passes, and prints the
per-layer metrics and the tracing overhead.  Spans go to
perfbench/out/<workload>-spans.json.

The last line of stdout is {"correct", "attempted", "failed",
"metrics"}; a fuller report, with per-task outcomes and the frontier
(tasks that missed their deadline), goes to
perfbench/out/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import signal
import statistics
import subprocess
import sys
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOADS = ("solve", "scale", "match", "cli")
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # the whole run, set-up included, must end within 180 s

END_TO_END_UNITS = {"wall_s": "s", "task_p50_ms": "ms", "task_tail_ms": "ms",
                    "solved_share": "share", "peak_rss_mb": "MB",
                    "setup_s": "s"}


class HarnessError(Exception):
    pass


def _on_alarm(signum, frame):
    raise HarnessError(f"run exceeded {RUN_LIMIT_S} s")


# One BLAS thread.  The load is one closed-loop client, and with two
# OpenBLAS threads on a 2-CPU sandbox a 49x49 complex matmul took 16 ms
# against 0.03 ms with one (OpenBLAS 0.3.31), a stall that hits every
# mid-size product; the setting is recorded in each report.
BLAS_THREADS = "1"


def worker_env() -> dict:
    """Library from ./src; BLAS_THREADS BLAS threads."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


class Worker:
    def __init__(self, workload: str, seed: int, env: dict):
        start = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "worker.py"), workload,
             str(seed), OUT_DIR],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, start_new_session=True)
        line = self.proc.stdout.readline()
        self.setup_s = perf_counter() - start
        if line.strip() != "ready":
            self.stop()
            raise HarnessError(f"worker did not start (exit {self.proc.returncode})")

    def run(self, seconds: int, trace: int) -> dict:
        self.proc.stdin.write(f"run {seconds} {trace}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        self.stop()
        if not line.startswith("result "):
            raise HarnessError(f"worker failed (exit {self.proc.returncode})")
        return json.loads(line[len("result "):])

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("exit\n")
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()

    def kill(self) -> None:
        """Kill the worker and any `mdk` child it still has."""
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()


def end_to_end(result: dict, setup_s: float) -> dict:
    s = result["summary"]
    values = {"wall_s": s["wall_s"], "task_p50_ms": 1000 * s["task_p50_s"],
              "task_tail_ms": 1000 * s["task_tail_s"],
              "solved_share": s["solved"] / s["attempted"],
              "peak_rss_mb": result["peak_rss_mb"], "setup_s": setup_s}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}


def frontier(result: dict) -> list[dict]:
    seen, out = set(), []
    for p in result["passes"]:
        for r in p["records"]:
            if r["outcome"] == "deadline" and r["label"] not in seen:
                seen.add(r["label"])
                out.append({"task": r["label"], "deadline_s": r["deadline_s"]})
    return out


def print_report(args, result, metrics, setups, report_path) -> None:
    env = result["environment"]
    s = result["summary"]
    blas = env["blas"]
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds}")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, "
          f"blas {blas.get('name')} {blas.get('version')}, BLAS threads "
          + ", ".join(f"{k}={v}" for k, v in env["blas_threads"].items())
          + f", nproc {env['nproc']}")
    print(f"load: closed loop, one worker process, {s['passes']} "
          f"timed pass(es) of {s['tasks_per_pass']} tasks after a "
          f"{result['warm_up_s']:.3f} s warm-up")
    if setups:
        print("setup samples (s): " + ", ".join(f"{x:.4f}" for x in setups))
    width = max(len(k) for k in metrics)
    for name, m in metrics.items():
        note = ""
        if name == "task_tail_ms":
            note = (f"  (p{s['tail_percentile']}; {s['samples']} task "
                    f"samples, {s['tasks_per_pass']} per pass)")
        elif name == "solved_share":
            note = f"  ({s['solved']} of {s['attempted']})"
        print(f"  {name:{width}s} {m['value']:.6g} {m['unit']}{note}")
    if args.trace:
        plain = [p["wall_s"] for p in result["untraced_passes"]]
        traced = [p["wall_s"] for p in result["passes"]]
        print(f"tracing overhead: untraced passes "
              + ", ".join(f"{x:.4f}" for x in plain) + " s; traced passes "
              + ", ".join(f"{x:.4f}" for x in traced) + f" s (run started "
              f"{result['started_utc']})")
    missed = frontier(result)
    print("frontier (deadline missed): "
          + (", ".join(f"{f['task']} [{f['deadline_s']:g} s]" for f in missed)
             or "none"))
    for p in result["passes"]:
        for r in p["records"]:
            if r["outcome"] in ("error", "wrong"):
                print(f"FAILED {r['outcome']}: {r['label']}: {r['detail']}")
    print(f"report: {os.path.relpath(report_path, ROOT)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "mdkit", "__init__.py")):
        print(f"error: no mdkit sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    env = worker_env()
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_LIMIT_S)
    workers = []
    try:
        samples = 1 if args.trace else SETUP_SAMPLES
        setups = []
        for k in range(samples):
            workers.append(Worker(args.workload, args.seed, env))
            setups.append(workers[-1].setup_s)
            if k < samples - 1:
                workers[-1].stop()
        result = workers[-1].run(args.seconds, args.trace)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        for w in workers:
            w.kill()

    s = result["summary"]
    result["started_utc"] = started
    if args.trace:
        metrics = result["layers"]
    else:
        metrics = end_to_end(result, statistics.median(setups))
    report_path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "seconds": args.seconds,
                   "setup_samples_s": setups,
                   "metrics": metrics, "frontier": frontier(result),
                   **result}, fh, indent=1)
    print_report(args, result, metrics, setups if not args.trace else None,
                 report_path)
    correct = s["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": s["attempted"],
                      "failed": s["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
