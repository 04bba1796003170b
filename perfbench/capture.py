"""Regenerate the benchmark's reference answers and golden CLI output.

Run from the repository root, with the library under test on the path:

    PYTHONPATH=src python3 perfbench/capture.py

It rewrites perfbench/reference/{solve,scale,match}.json and
perfbench/golden/cli/.  Each reference answer records its sources:

- "CIZ/ADE": the Cappelli-Itzykson-Zuber classification of SU(2)_k
  modular invariants (A always, D for even k >= 4, E at k = 10, 16, 28);
- "frozen: <test>": a count or verdict pinned in the test suite;
- "lattice oracle": the brute-force integer-point oracle of
  tests/conftest.py, wherever its search box is small enough;
- "seed output": what the library returned when captured.

Where sources disagree the script stops, so a reference never rests on
a library answer that an independent source contradicts.  Frontier
tasks, which the library cannot finish, get their reference from
mathematics or carry none.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "tests"))

import mdkit as mk  # noqa: E402
import workloads as wl  # noqa: E402
from conftest import lattice_points  # noqa: E402
from spans import TRACE_ENV  # noqa: E402

ORACLE_BOX_LIMIT = 200_000

FROZEN_COUNTS = {  # (left, right) -> (count, test)
    ("preset:fibonacci", "preset:fibonacci"): (1, "test_acceptance criterion 4"),
    ("preset:ising", "preset:ising"): (1, "test_acceptance criterion 4"),
    ("su2:4", "su2:4"): (2, "test_acceptance criterion 4"),
    ("su2:10", "su2:10"): (3, "test_acceptance criterion 4"),
    ("su2:16", "su2:16"): (3, "test_acceptance criterion 4"),
    ("preset:fibonacci", "preset:ising"): (0, "test_acceptance criterion 4"),
    ("preset:toric_code", "preset:toric_code"): (6, "test_invariants::test_toric_code_invariants"),
    ("preset:toric_code", "preset:double_semion"): (
        2, "test_invariants::test_toric_vs_double_semion_invariants"),
}

FRONTIER_SOLVE = ("none: the library's search does not finish (double:Q8 "
                  "and double:D4 exhaust 10^6 nodes after 163 s and 687 s); "
                  "answers are checked against S and T and for closure "
                  "under transpose only")

# Frontier relabeling pairs: the answer follows from group theory.
FRONTIER_MATCH = {
    ("prod(double:Z_2,double:Z_5)", "double:Z_10"): (
        True, "D(A) x D(B) = D(A x B) and Z_2 x Z_5 = Z_10"),
    ("prod(double:Z_3,double:Z_4)", "tdouble:12:0"): (
        True, "D(Z_3) x D(Z_4) = D(Z_12), and tdouble:n:0 = D(Z_n) "
              "(acceptance criterion 7)"),
    ("prod(double:Z_2,double:Z_4)", "tdouble:8:0"): (
        False, "the fusion groups (Z_2 x Z_4)^2 and (Z_8)^2 differ: only "
               "the second has elements of order 8"),
}

CENTER_FROZEN = {f"double:{g}": "test_acceptance criterion 2"
                 for g in ("Z_2", "Z_3", "Z_4", "Z_5", "Z_6", "S3", "D4", "Q8")}
ANISOTROPY_FROZEN = {
    "preset:fibonacci": ([[1, 0]], "test_acceptance criterion 8"),
}

# The cli mix: every subcommand on small specs, table and json formats.
CLI_COMMANDS = [
    ["build", "preset:ising"],
    ["build", "su2:4", "--format", "json"],
    ["build", "double:S3"],
    ["build", "tdouble:3:1", "--format", "json"],
    ["build", "prod(su2:2,rev(preset:semion))"],
    ["build", "pointed:perfbench/golden/cli/data/z4_form.json"],
    ["validate", "su2:10"],
    ["validate", "double:Z_3", "--format", "json"],
    ["validate", "tdouble:5:2"],
    ["validate", "perfbench/golden/cli/data/su2_6.json"],
    ["validate", "prod(preset:ising,preset:fibonacci)", "--format", "json"],
    ["fusion", "preset:toric_code"],
    ["fusion", "su2:4", "--format", "json"],
    ["fusion", "double:S3"],
    ["fusion", "tdouble:4:1", "--format", "json"],
    ["fusion", "prod(preset:fibonacci,preset:fibonacci)"],
    ["fusion", "perfbench/golden/cli/data/su2_6.json"],
    ["invariants", "su2:10", "su2:10"],
    ["invariants", "preset:toric_code", "preset:double_semion", "--format", "json"],
    ["invariants", "su2:16", "su2:16"],
    ["invariants", "tdouble:3:1", "tdouble:3:1", "--format", "json"],
    ["invariants", "preset:fibonacci", "preset:ising"],
    ["invariants", "su2:4", "perfbench/golden/cli/data/su2_4.json"],
    ["algebra", "screen", "preset:toric_code", "--mult", "1,1,0,0"],
    ["algebra", "screen", "preset:toric_code", "--mult", "1,0,0,1", "--format", "json"],
    ["algebra", "screen", "su2:4", "--mult", "1,0,0,0,1", "--lenient"],
    ["algebra", "from-invariant", "su2:4", "su2:4", "--index", "1"],
    ["algebra", "from-invariant", "su2:10", "su2:10", "--index", "2", "--format", "json"],
    ["algebra", "from-invariant", "preset:toric_code", "preset:double_semion", "--index", "0"],
    ["witt", "preset:fibonacci"],
    ["witt", "preset:toric_code", "preset:double_semion"],
    ["witt", "double:S3", "--format", "json"],
    ["witt", "preset:ising", "preset:semion", "--format", "json"],
    ["witt", "su2:10"],
    ["anisotropy", "preset:fibonacci"],
    ["anisotropy", "double:Z_3", "--format", "json"],
    ["anisotropy", "tdouble:4:2"],
    ["anisotropy", "preset:toric_code", "--format", "json"],
    ["anisotropy", "su2:10"],
]

Z4_FORM = {"group": "Z_4",
           "q": [{"re": 1, "im": 0},
                 {"re": 0.7071067811865476, "im": 0.7071067811865476},
                 {"re": -1, "im": 0},
                 {"re": 0.7071067811865476, "im": 0.7071067811865476}],
           "labels": ["0", "1", "2", "3"]}


def agree(cond, what) -> None:
    """Stop when a source contradicts the library or a command fails."""
    if not cond:
        raise SystemExit(f"capture check failed: {what}")


def ade_count(k: int) -> int:
    return 1 + (k % 2 == 0 and k >= 4) + (k in (10, 16, 28))


def unique(tasks):
    seen = {}
    for t in tasks:
        seen.setdefault(t.key, t)
    return list(seen.values())


def canonical_task(t):
    return wl.Task(t.kind, t.key, t.args, tuple(None for _ in t.relabel),
                   t.frontier)


def oracle(left, right):
    cb = mk.commutant_basis(left, right)
    if cb.dimension == 0:
        return []

    def bound_of(j, i):
        return int(np.floor(left.dims[i] * right.dims[j] + 1e-6))

    B = cb.as_float()
    box = 1
    for k in range(cb.dimension):
        flat = [B[k][j][i] for (j, i) in cb.positions]
        lead = next(p for p, v in enumerate(flat) if abs(v) > 1e-8)
        j, i = cb.positions[lead]
        box *= bound_of(j, i) + 1
    if box > ORACLE_BOX_LIMIT:
        return None
    return lattice_points(cb, bound_of)


def solve_reference(rng) -> dict:
    answers = {}
    for t in unique(wl.solve_tasks(rng)):
        if t.frontier:
            answers[t.key] = {"count": None, "sources": [FRONTIER_SOLVE]}
            continue
        ans = wl.run_invariants(canonical_task(t), None)
        mats = wl.canonical(ans["Z"])
        ref = {"count": len(mats), "digest": wl.digest(mats),
               "algebras_pass": sum(ans["passes"]),
               "sources": ["seed output"]}
        left, right = t.args
        if left == right and left.startswith("su2:"):
            k = int(left.split(":")[1])
            agree(ade_count(k) == len(mats), (t.key, len(mats)))
            ref["sources"].append("CIZ/ADE")
        if (left, right) in FROZEN_COUNTS:
            count, test = FROZEN_COUNTS[(left, right)]
            agree(count == len(mats), t.key)
            ref["sources"].append(f"frozen: {test}")
        points = oracle(ans["left"], ans["right"])
        if points is not None:
            agree(wl.digest(wl.canonical(points)) == ref["digest"], t.key)
            ref["sources"].append("lattice oracle")
        wl.check_invariants(canonical_task(t), ans, ref)
        answers[t.key] = ref
        print(t.key, ref["count"], ref["sources"], flush=True)
    return answers


def scale_reference(rng) -> dict:
    answers = {}
    for t in unique(wl.scale_tasks(rng)):
        c = canonical_task(t)
        ans = wl.RUNNERS[t.kind](c, None)
        if t.kind == "fusion":
            ref = {"rank": ans["md"].rank, "digest": wl.digest([ans["N"]])}
        elif t.kind == "commutant":
            ref = {"dimension": ans["cb"].dimension}
        else:
            ref = {"ok": bool(ans["ok"])}
        ref["sources"] = ["seed output"]
        wl.CHECKS[t.kind](c, ans, ref)
        answers[t.key] = ref
        print(t.key, ref, flush=True)
    return answers


def match_reference(rng) -> dict:
    answers = {}
    for t in unique(wl.match_tasks(rng)):
        c = canonical_task(t)
        if t.kind == "relabel" and t.frontier:
            equivalent, why = FRONTIER_MATCH[t.args]
            ref = {"equivalent": equivalent, "sources": [why]}
        else:
            ans = wl.RUNNERS[t.kind](c, None)
            if t.kind == "relabel":
                ref = {"equivalent": ans["pi"] is not None}
            elif t.kind == "witt":
                wi = ans["wi"]
                ref = {"center_candidate": bool(wi.is_center_candidate),
                       "central_charge": (None if wi.central_charge is None
                                          else str(wi.central_charge))}
            elif t.kind == "anisotropy":
                ref = {"candidates": [list(x) for x in ans["report"].candidates]}
            else:
                ref = {"verdict": ans["verdict"]}
            ref["sources"] = ["seed output"]
            spec = t.args[0]
            if t.kind == "witt" and spec in CENTER_FROZEN:
                agree(ref["center_candidate"], t.key)
                ref["sources"].append(f"frozen: {CENTER_FROZEN[spec]}")
            if t.kind == "anisotropy" and spec in ANISOTROPY_FROZEN:
                want, test = ANISOTROPY_FROZEN[spec]
                agree(ref["candidates"] == want, t.key)
                ref["sources"].append(f"frozen: {test}")
            if t.kind == "anisotropy" and spec == "preset:toric_code":
                nontrivial = {tuple(x) for x in ref["candidates"]} - {(1, 0, 0, 0)}
                agree(nontrivial == {(1, 1, 0, 0), (1, 0, 1, 0)}, t.key)
                ref["sources"].append("frozen: test_acceptance criterion 8")
            wl.CHECKS[t.kind](c, ans, ref)
        answers[t.key] = ref
        print(t.key, ref, flush=True)
    return answers


def capture_cli() -> None:
    cli_dir = os.path.join(wl.GOLDEN_DIR, "cli")
    data_dir = os.path.join(cli_dir, "data")
    os.makedirs(data_dir, exist_ok=True)
    with open(os.path.join(data_dir, "z4_form.json"), "w", encoding="utf-8") as fh:
        json.dump(Z4_FORM, fh, indent=1)
        fh.write("\n")
    for k in (4, 6):
        with open(os.path.join(data_dir, f"su2_{k}.json"), "w",
                  encoding="utf-8") as fh:
            fh.write(mk.dump_modular_data(mk.su2_level(k)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.pop(TRACE_ENV, None)
    commands = []
    for n, argv in enumerate(CLI_COMMANDS):
        proc = subprocess.run([sys.executable, wl.LAUNCHER, *argv], cwd=ROOT,
                              env=env, capture_output=True, timeout=120)
        agree(proc.returncode == 0, (argv, proc.stderr))
        name = f"{n:02d}.out"
        with open(os.path.join(cli_dir, name), "wb") as fh:
            fh.write(proc.stdout)
        commands.append({"argv": argv, "exit": proc.returncode, "stdout": name})
        print(" ".join(argv), proc.returncode, len(proc.stdout), flush=True)
    with open(os.path.join(cli_dir, "commands.json"), "w", encoding="utf-8") as fh:
        json.dump(commands, fh, indent=1)
        fh.write("\n")


def write(name: str, answers: dict) -> None:
    os.makedirs(wl.REFERENCE_DIR, exist_ok=True)
    path = os.path.join(wl.REFERENCE_DIR, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"captured_with": "PYTHONPATH=src python3 perfbench/capture.py",
                   "answers": answers}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    which = sys.argv[1:] or ["solve", "scale", "match", "cli"]
    rng = np.random.default_rng(0)  # keys do not depend on the seed
    if "cli" in which:
        capture_cli()
    for name, fn in (("solve", solve_reference), ("scale", scale_reference),
                     ("match", match_reference)):
        if name in which:
            write(name, fn(rng))
    return 0


if __name__ == "__main__":
    sys.exit(main())
