"""The four workloads: their task lists, how a task runs, how its answer
is checked.

A task is a build spec (or S/T arrays made from one by a seeded
relabeling) in and an answer out.  Every answer is checked twice: with
numpy against S and T directly (intertwining, permutation and dimension
identities), and against the reference answer stored under
`perfbench/reference/` for the task's key.  The key names the task
without its relabelings, so one reference serves every seed.

Library calls go through the `mdkit` package namespace so that the
traced run, which rebinds those names, sees them.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

import mdkit as mk

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
GOLDEN_DIR = os.path.join(BENCH_DIR, "golden")
LAUNCHER = os.path.join(BENCH_DIR, "mdk_main.py")

# Frontier tasks do not finish on the seed library (none within 10 s,
# double:Q8 not within 163 s); every other task finishes in under 8 s.
# Both deadlines sit far from those times, so which tasks are solved
# does not depend on load noise.  1 s is also the target a faster
# relabeling matcher must meet on prod(double:Z_3,double:Z_4).
FRONTIER_DEADLINE_S = 1.0
DEADLINE_S = 60.0

# Tolerance of the numpy re-checks; the library works at 1e-9.
CHECK_TOL = 1e-7

# The acceptance corpus of the test suite.
CORPUS = (
    ["preset:trivial", "preset:semion", "preset:ising", "preset:fibonacci",
     "preset:toric_code", "preset:double_semion"]
    + [f"su2:{k}" for k in (1, 2, 4, 6, 10, 16)]
    + [f"double:{g}" for g in ("Z_2", "Z_3", "Z_4", "Z_5", "Z_6",
                               "S3", "D4", "Q8")]
    + [f"tdouble:{n}:{p}" for n in (1, 2, 3, 4) for p in range(n)]
)
# anisotropy_screen refuses these by design (rank > 24, or more than 1e7
# candidate vectors), so they are not anisotropy tasks.
ANISOTROPY_OUT_OF_SCOPE = ("su2:16", "double:Z_5", "double:Z_6",
                           "double:D4", "double:Q8")


@dataclass(frozen=True)
class Task:
    kind: str
    key: str
    args: tuple
    relabel: tuple = ()     # one seed (or None) per input data set
    frontier: bool = False

    @property
    def deadline_s(self) -> float:
        return FRONTIER_DEADLINE_S if self.frontier else DEADLINE_S

    @property
    def label(self) -> str:
        seeds = [s for s in self.relabel if s is not None]
        return self.key + (" (relabeled)" if seeds else "")


# ---------------------------------------------------------------- task lists

def _seeds(rng, n):
    return [int(x) for x in rng.integers(0, 2 ** 31, size=n)]


def interleave(*lists):
    """Merge lists so that each one's items spread evenly over the result.

    Cheap tasks then sample the whole pass rather than one moment of
    it, which keeps load noise on the host from moving the percentiles
    of a run as a block.
    """
    keyed = [((k + 0.5) / len(items), n, item)
             for n, items in enumerate(lists) for k, item in enumerate(items)]
    return [item for _pos, _n, item in sorted(keyed, key=lambda x: x[:2])]


def solve_tasks(rng) -> list[Task]:
    """Invariant search plus algebra_from_invariant on every result.

    Small and mid-size data sets also appear twice with their right-hand
    side relabeled by the seed; with that many cheap tasks the median
    falls inside a dense cluster of similar tasks, not at a gap.

    double:Z_4 and double:S3 keep their constructor labels: their search
    time depends on the labeling by up to 7x (double:Z_4: 1 to 7 s;
    tdouble:4:0, the same data, 0.6 to 2.2 s), which would drown every
    other change.  The constructor labeling is the slow one, so nothing
    is hidden.
    """
    def inv(left, right=None, seed=None, frontier=False):
        right = left if right is None else right
        return Task("invariants", f"invariants {left} {right}",
                    (left, right), (None, seed), frontier)

    heavy = [inv(s) for s in ("double:Z_4", "double:S3", "double:Z_5",
                              "tdouble:5:0", "prod(su2:4,su2:4)",
                              "su2:28", "su2:32")]
    light = [inv(s) for s in ("su2:10", "su2:16", "su2:20", "su2:24",
                              "tdouble:4:2", "su2:4", "preset:toric_code",
                              "preset:ising", "preset:fibonacci")]
    light += [inv(l, r) for l, r in (
        ("preset:toric_code", "preset:double_semion"),
        ("tdouble:2:0", "preset:toric_code"),
        ("double:Z_2", "preset:toric_code"),
        ("tdouble:2:1", "preset:double_semion"),
        ("double:Z_3", "tdouble:3:0"),
        ("preset:fibonacci", "preset:ising"),
        ("prod(preset:semion,rev(preset:semion))", "preset:double_semion"),
    )]
    relabeled = ([f"su2:{k}" for k in (3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                                       15, 16, 18, 20, 24, 28, 32)]
                 + ["su2:4", "double:Z_2", "double:Z_3", "double:Z_5",
                    "tdouble:3:0", "tdouble:3:1", "tdouble:3:2",
                    "tdouble:4:1", "tdouble:4:3",
                    "tdouble:5:0", "preset:toric_code",
                    "preset:double_semion", "prod(su2:4,su2:4)",
                    "prod(preset:ising,preset:ising)",
                    "prod(preset:fibonacci,preset:fibonacci)"])
    for _round in range(2):
        light += [inv(s, seed=x)
                  for s, x in zip(relabeled, _seeds(rng, len(relabeled)))]
    frontier = [inv(s, frontier=True)
                for s in ("double:Z_6", "double:Q8", "double:D4")]
    return interleave(heavy, frontier, light)


def scale_tasks(rng) -> list[Task]:
    """Verlinde fusion and commutant at rank 32-66, and validation of the
    rank-64 twisted doubles, all on seeded relabelings.  Commutants stop
    at rank 49: at rank 64 one takes 11 s and 1.2 GB on the seed library.

    The five large tasks carry the wall time and the peak RSS.  Their
    times swing by up to half from run to run (fresh memory pages), so
    the latency percentiles are left to the 64 validations, which are
    alike in cost: the median and the tail (the 11th largest task) both
    fall inside their cluster.  They run in blocks between the large
    tasks, sampling the whole pass, but not one by one, since a small
    task right after a large one pays for the memory the large one
    returned.
    """
    fusion = ("tdouble:8:3", "prod(double:D4,preset:ising)", "tdouble:7:3")
    commutant = ("tdouble:7:3", "prod(double:S3,double:Z_2)")
    valid = [f"tdouble:8:{p}" for p in range(8)] * 8

    def tasks(kind, specs):
        return [Task(kind, f"{kind} {spec}", (spec,), (seed,))
                for spec, seed in zip(specs, _seeds(rng, len(specs)))]

    v = tasks("validate", valid)
    f = tasks("fusion", fusion)
    c = tasks("commutant", commutant)
    return v[:16] + f[:2] + v[16:32] + f[2:] + v[32:48] + c + v[48:]


def match_tasks(rng) -> list[Task]:
    """Relabeling matcher on planted and cross-constructor pairs, plus
    the Witt and anisotropy screens over the acceptance corpus."""
    def rel(left, right, relabel=(None, None), frontier=False):
        return Task("relabel", f"relabel {left} {right}", (left, right),
                    relabel, frontier)

    planted = ("double:Q8", "double:D4", "prod(double:S3,preset:ising)",
               "prod(double:S3,double:Z_2)", "double:Z_6", "tdouble:6:1",
               "tdouble:7:3", "tdouble:8:3", "tdouble:9:2",
               "prod(su2:10,su2:6)", "prod(su2:12,su2:6)",
               "prod(su2:10,su2:8)")
    tasks = []
    for _round in range(2):
        seeds = _seeds(rng, 2 * len(planted))
        tasks += [rel(s, s, (seeds[2 * i], seeds[2 * i + 1]))
                  for i, s in enumerate(planted)]
    tasks += [rel(f"tdouble:{n}:0", f"double:Z_{n}") for n in range(2, 7)]
    frontier = [
        rel("prod(double:Z_2,double:Z_5)", "double:Z_10", frontier=True),
        rel("prod(double:Z_3,double:Z_4)", "tdouble:12:0", frontier=True),
        rel("prod(double:Z_2,double:Z_4)", "tdouble:8:0", frontier=True)]
    tasks += [rel("prod(double:Z_2,double:Z_3)", "double:Z_6"),
              rel("prod(preset:semion,rev(preset:semion))",
                  "preset:double_semion")]
    # negatives; D(Q8) and D(D4) share every (d, theta) fingerprint
    tasks += [rel("double:Q8", "double:D4")]
    tasks += [rel("double:Q8", "double:D4", (a, b))
              for a, b in zip(_seeds(rng, 2), _seeds(rng, 2))]
    tasks += [rel("tdouble:4:2", "double:Z_4"),
              rel("tdouble:3:1", "tdouble:3:2"),
              rel("tdouble:4:1", "tdouble:4:3"),
              rel("prod(preset:toric_code,preset:toric_code)",
                  "prod(preset:double_semion,preset:double_semion)")]
    screens = [Task("witt", f"witt {s}", (s,)) for s in CORPUS]
    screens += [Task("anisotropy", f"anisotropy {s}", (s,)) for s in CORPUS
                if s not in ANISOTROPY_OUT_OF_SCOPE]
    screens += [Task("obstruction", f"obstruction {l} {r}", (l, r),
                     (None, None)) for l, r in OBSTRUCTION_PAIRS]
    return interleave(tasks, frontier, screens)


OBSTRUCTION_PAIRS = (
    ("preset:toric_code", "preset:double_semion"),
    ("preset:toric_code", "tdouble:2:0"),
    ("preset:fibonacci", "preset:ising"),
    ("preset:semion", "preset:semion"),
    ("preset:ising", "su2:2"),
    ("preset:fibonacci", "preset:fibonacci"),
    ("double:S3", "prod(preset:fibonacci,rev(preset:fibonacci))"),
    ("su2:4", "su2:4"),
)


def cli_commands() -> list[dict]:
    with open(os.path.join(GOLDEN_DIR, "cli", "commands.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def cli_tasks(rng) -> list[Task]:
    """One fresh `mdk` process per command; stdout compared to golden."""
    return [Task("cli", " ".join(c["argv"]), (tuple(c["argv"]),))
            for c in cli_commands()]


_LISTS = {"solve": solve_tasks, "scale": scale_tasks, "match": match_tasks,
          "cli": cli_tasks}


def task_list(workload: str, seed: int) -> list[Task]:
    """The workload's tasks for `seed`.  The order is fixed: peak RSS
    depends on which allocations are live together."""
    return _LISTS[workload](np.random.default_rng(seed))


# --------------------------------------------------------------- running

def build(spec: str):
    return mk.evaluate(mk.parse_spec(spec))


def relabeled(md, seed):
    """md with objects 1.. permuted by `seed`; returns (data, perm) where
    new object a is old object perm[a]."""
    if seed is None:
        return md, None
    rng = np.random.default_rng(seed)
    perm = np.concatenate(([0], 1 + rng.permutation(md.rank - 1)))
    data = mk.ModularData(md.S[np.ix_(perm, perm)], md.T[perm],
                          labels=[md.labels[i] for i in perm], eps=md.eps)
    return data, perm


def _pair(task: Task):
    left_spec, right_spec = task.args
    left = build(left_spec)
    right = left if right_spec == left_spec else build(right_spec)
    left, lperm = relabeled(left, task.relabel[0])
    right, rperm = relabeled(right, task.relabel[1])
    return left, right, lperm, rperm


def run_invariants(task: Task, env):
    left, right, _lperm, rperm = _pair(task)
    invs = mk.enumerate_invariants(left, right)
    cands = [mk.algebra_from_invariant(left, right, z) for z in invs]
    return {"left": left, "right": right, "perm": rperm,
            "Z": [np.asarray(z.Z) for z in invs],
            "passes": [bool(c.passes) for c in cands],
            "dim_gamma": [float(c.dim_gamma) for c in cands]}


def run_fusion(task: Task, env):
    md, perm = relabeled(build(task.args[0]), task.relabel[0])
    ok = mk.validate(md).ok
    return {"md": md, "perm": perm, "ok": ok, "N": mk.verlinde_fusion(md).N}


def run_commutant(task: Task, env):
    md, _perm = relabeled(build(task.args[0]), task.relabel[0])
    ok = mk.validate(md).ok
    return {"md": md, "ok": ok, "cb": mk.commutant_basis(md)}


def run_validate(task: Task, env):
    md, _perm = relabeled(build(task.args[0]), task.relabel[0])
    return {"md": md, "ok": mk.validate(md).ok}


def run_relabel(task: Task, env):
    left, right, _lperm, _rperm = _pair(task)
    return {"left": left, "right": right,
            "pi": mk.equivalent_up_to_relabeling(left, right)}


def run_witt(task: Task, env):
    md = build(task.args[0])
    return {"md": md, "wi": mk.witt_invariants(md)}


def run_obstruction(task: Task, env):
    left, right, _l, _r = _pair(task)
    return {"verdict": mk.witt_obstruction(left, right).verdict}


def run_anisotropy(task: Task, env):
    md = build(task.args[0])
    return {"md": md, "report": mk.anisotropy_screen(md)}


def run_cli(task: Task, env):
    """Run one `mdk` command in a fresh interpreter.

    `env` is the child environment; when it names a trace file the child
    writes its spans there.  A deadline interrupt kills the child.
    """
    proc = subprocess.run([sys.executable, LAUNCHER, *task.args[0]],
                          cwd=ROOT, env=env, capture_output=True)
    return {"stdout": proc.stdout, "code": proc.returncode}


# One small task per kind, run untimed before the first pass.
WARM_UP = {
    "invariants": Task("invariants", "", ("su2:10", "su2:10"), (None, 1)),
    "fusion": Task("fusion", "", ("tdouble:6:1",), (1,)),
    "commutant": Task("commutant", "", ("double:Z_3",), (1,)),
    "validate": Task("validate", "", ("tdouble:6:1",), (1,)),
    "relabel": Task("relabel", "", ("tdouble:6:1", "tdouble:6:1"), (1, 2)),
    "witt": Task("witt", "", ("double:S3",)),
    "anisotropy": Task("anisotropy", "", ("double:Z_3",)),
    "obstruction": Task("obstruction", "", ("preset:toric_code",
                                            "preset:double_semion"),
                        (None, None)),
    "cli": Task("cli", "", (("build", "preset:ising"),)),
}

RUNNERS = {"invariants": run_invariants, "fusion": run_fusion,
           "commutant": run_commutant, "validate": run_validate,
           "relabel": run_relabel, "witt": run_witt,
           "obstruction": run_obstruction, "anisotropy": run_anisotropy,
           "cli": run_cli}


# ------------------------------------------------------------- checking

class WrongAnswer(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise WrongAnswer(message)


def canonical(mats) -> list[np.ndarray]:
    """Sort matrices by entry sum, then row-major entries."""
    return sorted((np.asarray(m, dtype=np.int64) for m in mats),
                  key=lambda z: (int(z.sum()), tuple(z.flatten().tolist())))


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.int64)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:24]


def dims_of(md) -> np.ndarray:
    return (md.S[0] / md.S[0, 0]).real


def check_invariants(task, ans, ref):
    left, right = ans["left"], ans["right"]
    SL, SR, TL, TR = left.S, right.S, left.T, right.T
    seen = set()
    for Z in ans["Z"]:
        _require(Z.dtype.kind == "i" and Z.shape == (right.rank, left.rank),
                 "invariant has the wrong type or shape")
        _require(Z.min() >= 0 and Z[0, 0] == 1, "invariant not >= 0 with Z00 = 1")
        _require(np.abs(Z @ SL - SR @ Z).max() <= CHECK_TOL, "Z S_L != S_R Z")
        _require(np.abs(Z * TL[None, :] - TR[:, None] * Z).max() <= CHECK_TOL,
                 "Z T_L != T_R Z")
        _require(Z.tobytes() not in seen, "duplicate invariant")
        seen.add(Z.tobytes())
    target = np.sqrt((dims_of(left) ** 2).sum() * (dims_of(right) ** 2).sum())
    for Z, dg in zip(ans["Z"], ans["dim_gamma"]):
        own = float(dims_of(right) @ Z @ dims_of(left))
        _require(abs(own - dg) <= 1e-6 and abs(own - target) <= 1e-6,
                 "algebra dimension is not sqrt(dim L dim R)")
    _require(len(ans["passes"]) == len(ans["Z"]), "one algebra per invariant")
    mats = ans["Z"]
    if ans["perm"] is not None:
        undone = []
        for Z in mats:
            W = np.empty_like(Z)
            W[ans["perm"]] = Z
            undone.append(W)
        mats = undone
    if task.args[0] == task.args[1]:
        _require({m.tobytes() for m in mats}
                 == {np.ascontiguousarray(m.T).tobytes() for m in mats},
                 "self-invariants are not closed under transpose")
    if ref.get("count") is not None:
        _require(len(mats) == ref["count"],
                 f"{len(mats)} invariants, reference {ref['count']}")
        _require(digest(canonical(mats)) == ref["digest"],
                 "invariants differ from the reference matrices")
        _require(sum(ans["passes"]) == ref["algebras_pass"],
                 "algebra screening verdicts differ from the reference")


def check_fusion(task, ans, ref):
    _require(ans["ok"], "data fails validation")
    md, N = ans["md"], np.asarray(ans["N"])
    n = md.rank
    _require(N.dtype.kind == "i" and N.shape == (n, n, n) and N.min() >= 0,
             "fusion tensor has the wrong type, shape or sign")
    _require(np.array_equal(N[0], np.eye(n, dtype=N.dtype)), "unit row")
    _require(np.array_equal(N, N.transpose(1, 0, 2)), "not commutative")
    d = dims_of(md)
    scale = max(1.0, float((d ** 2).sum()))
    _require(np.abs(N @ d - np.outer(d, d)).max() <= CHECK_TOL * scale,
             "dimension identity fails")
    if ans["perm"] is not None:
        p = ans["perm"]
        W = np.empty_like(N)
        W[np.ix_(p, p, p)] = N
        N = W
    _require(digest([N]) == ref["digest"], "fusion rules differ from the reference")


def check_commutant(task, ans, ref):
    _require(ans["ok"], "data fails validation")
    md, cb = ans["md"], ans["cb"]
    _require(cb.dimension == ref["dimension"],
             f"commutant dimension {cb.dimension}, reference {ref['dimension']}")
    B = np.array([[[float(x) for x in row] for row in mat] for mat in cb.basis])
    B = B.reshape(cb.dimension, md.rank, md.rank)
    S, T = md.S, md.T
    for M in B:
        _require(np.abs(M @ S - S @ M).max() <= CHECK_TOL, "M S != S M")
        _require(np.abs(M * T[None, :] - T[:, None] * M).max() <= CHECK_TOL,
                 "M T != T M")
    if cb.dimension:
        sv = np.linalg.svd(B.reshape(cb.dimension, -1), compute_uv=False)
        _require(sv[-1] > 1e-8 * sv[0], "commutant basis is linearly dependent")


def check_validate(task, ans, ref):
    md = ans["md"]
    _require(ans["ok"] == ref["ok"], "validation verdict differs")
    S = md.S
    _require(np.abs(S @ S.conj().T - np.eye(md.rank)).max() <= CHECK_TOL,
             "S not unitary")
    _require(np.abs(S - S.T).max() <= CHECK_TOL, "S not symmetric")


def check_relabel(task, ans, ref):
    pi, a, b = ans["pi"], ans["left"], ans["right"]
    if pi is None:
        _require(not ref["equivalent"], "missed an equivalence")
        return
    p = np.asarray(pi)
    _require(p.shape == (a.rank,) and p[0] == 0
             and sorted(p.tolist()) == list(range(a.rank)),
             "relabeling is not a permutation fixing 0")
    _require(np.abs(b.S[np.ix_(p, p)] - a.S).max() <= CHECK_TOL
             and np.abs(b.T[p] - a.T).max() <= CHECK_TOL,
             "relabeling does not carry S and T")
    _require(ref["equivalent"], "verified relabeling contradicts the reference")


def check_witt(task, ans, ref):
    md, wi = ans["md"], ans["wi"]
    d = dims_of(md)
    _require(abs(wi.global_dim - (d ** 2).sum()) <= CHECK_TOL * max(1.0, wi.global_dim),
             "global dimension")
    _require(abs(wi.gauss_sum - (d ** 2 * md.T).sum()) <= CHECK_TOL * max(1.0, wi.global_dim),
             "Gauss sum")
    charge = None if wi.central_charge is None else str(wi.central_charge)
    _require(charge == ref["central_charge"], "central charge differs")
    _require(wi.is_center_candidate == ref["center_candidate"],
             "center-candidate verdict differs")


def check_obstruction(task, ans, ref):
    _require(ans["verdict"] == ref["verdict"], "obstruction verdict differs")


def check_anisotropy(task, ans, ref):
    md, rep = ans["md"], ans["report"]
    d, dim = dims_of(md), float((dims_of(md) ** 2).sum())
    for c in rep.candidates:
        n = np.asarray(c)
        _require(n[0] == 1 and n.min() >= 0, "candidate needs n0 = 1, n >= 0")
        _require(np.abs(md.T[n > 0] - 1).max() <= CHECK_TOL,
                 "candidate supported on a nontrivial twist")
        _require(float(n @ d) ** 2 <= dim + 1e-6, "candidate exceeds sqrt(dim)")
    _require([list(c) for c in rep.candidates] == ref["candidates"],
             "anisotropy candidates differ")


def check_cli(task, ans, ref):
    _require(ans["code"] == ref["exit"],
             f"exit code {ans['code']}, golden {ref['exit']}")
    _require(ans["stdout"] == ref["stdout"], "stdout differs from golden")


CHECKS = {"invariants": check_invariants, "fusion": check_fusion,
          "commutant": check_commutant, "validate": check_validate,
          "relabel": check_relabel, "witt": check_witt,
          "obstruction": check_obstruction, "anisotropy": check_anisotropy,
          "cli": check_cli}


def load_references(workload: str) -> dict:
    if workload == "cli":
        refs = {}
        for c in cli_commands():
            with open(os.path.join(GOLDEN_DIR, "cli", c["stdout"]), "rb") as fh:
                refs[" ".join(c["argv"])] = {"exit": c["exit"],
                                             "stdout": fh.read()}
        return refs
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json"),
              encoding="utf-8") as fh:
        return json.load(fh)["answers"]
