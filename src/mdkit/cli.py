"""Command-line interface.

Results go to the output stream, diagnostics to the error stream.  Exit
codes: 0 success, 1 domain error (or running out of memory or stack
depth, or a failed linear-algebra routine), 2 usage error.  Identical
inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import numpy as np

from .algebras import (algebra_from_invariant, anisotropy_screen,
                       local_modules_dim, screen_algebra, witt_invariants,
                       witt_obstruction)
from .buildspec import evaluate, parse_spec
from .errors import MdkError, ToleranceError
from .invariants import _invariants_in, commutant_basis, enumerate_invariants
from .modular_data import central_charge, validate, verlinde_fusion
from .numeric import TWIST_ORDER_CAP, checked_eps, phase_fraction
from .serialize import dump_modular_data, invariants_doc

__all__ = ["run", "main"]


def _mult_arg(text: str):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--mult wants comma-separated integers, got {text!r}") from None


def _eps_arg(text: str) -> float:
    try:
        return checked_eps(text, "value")
    except ToleranceError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_data(args, attr="spec"):
    return evaluate(parse_spec(getattr(args, attr)), eps=args.eps)


def _twist_str(z: complex) -> str:
    t = phase_fraction(z, max_den=TWIST_ORDER_CAP, tol=1e-6)
    if t is None:
        return f"{z.real:.12g}{z.imag:+.12g}i"
    if t == 0:
        return "1"
    if t == Fraction(1, 2):
        return "-1"
    return f"exp(2*pi*i*{t.numerator}/{t.denominator})"


def _charge_str(md) -> str:
    try:
        return str(central_charge(md))
    except MdkError:
        return "(not rational)"


def _cmd_build(args) -> int:
    md = _build_data(args)
    if not args.force:
        md.require_valid()
    doc = dump_modular_data(md)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(doc)
        print(f"wrote {args.output}", file=sys.stderr)
        return 0
    if args.format == "json":
        sys.stdout.write(doc)
        return 0
    print(f"rank {md.rank}  global dim {md.global_dim:.12g}  "
          f"central charge {_charge_str(md)}")
    width = max(len(l) for l in md.labels)
    for i, label in enumerate(md.labels):
        print(f"  {i:3d}  {label:{width}s}  d={md.dims[i]:<14.12g} "
              f"theta={_twist_str(md.T[i])}")
    return 0


def _check_rows(checks):
    return [{"check": c.name, "pass": bool(c.passed),
             "residual": float(c.residual)} for c in checks]


def _cmd_validate(args) -> int:
    report = validate(_build_data(args))
    if args.format == "json":
        print(json.dumps({"ok": report.ok,
                          "checks": _check_rows(report.checks)}))
    else:
        for c in report.checks:
            flag = "pass" if c.passed else "FAIL"
            print(f"  {c.name:20s} {flag}  residual {c.residual:.6g}")
        print(f"overall: {'pass' if report.ok else 'FAIL'} "
              f"(worst residual {report.worst:.6g})")
    return 0 if report.ok else 1


def _cmd_fusion(args) -> int:
    md = _build_data(args)
    ring = verlinde_fusion(md)
    if args.format == "json":
        print(json.dumps({"rank": md.rank, "labels": list(md.labels),
                          "N": ring.N.tolist()}))
        return 0
    for i in range(md.rank):
        for j in range(i, md.rank):
            terms = []
            for k in range(md.rank):
                n = ring.coefficient(i, j, k)
                if n == 1:
                    terms.append(md.labels[k])
                elif n > 1:
                    terms.append(f"{n} {md.labels[k]}")
            print(f"  {md.labels[i]} * {md.labels[j]} = {' + '.join(terms)}")
    return 0


def _cmd_invariants(args) -> int:
    left = _build_data(args, "left")
    right = _build_data(args, "right")
    cb = commutant_basis(left, right)
    invs = _invariants_in(cb, left, right)
    if args.format == "json":
        sys.stdout.write(invariants_doc(invs))
        return 0
    print(f"commutant dimension {cb.dimension}"
          + ("" if cb.rationalized else " (rationalization failed)"))
    print(f"count {len(invs)}")
    for idx, inv in enumerate(invs):
        print(f"# {idx}: kind={inv.kind}")
        for row in inv.Z:
            print("   " + " ".join(f"{int(v):d}" for v in row))
    return 0


def _print_candidate(cand, args) -> None:
    local = local_modules_dim(cand) if cand.passes else None
    if args.format == "json":
        doc = {"mult": list(cand.mult), "dim_gamma": cand.dim_gamma,
               "passes": cand.passes,
               "verdicts": _check_rows(cand.verdicts)}
        if local is not None:
            doc["local_modules_dim"] = local
        print(json.dumps(doc))
        return
    print(f"d(Gamma) = {cand.dim_gamma:.12g}, host dim = "
          f"{cand.host.global_dim:.12g}")
    for v in cand.verdicts:
        flag = "pass" if v.passed else "FAIL"
        note = "" if v.required else " (advisory)"
        print(f"  {v.name:22s} {flag}  residual {v.residual:.6g}{note}")
    print(f"screening: {'pass' if cand.passes else 'FAIL'}")
    if local is not None:
        trivial = "trivial" if abs(local - 1.0) <= 1e-6 else "nontrivial"
        print(f"local modules: dim {local:.12g} ({trivial})")


def _cmd_algebra_screen(args) -> int:
    md = _build_data(args)
    cand = screen_algebra(md, args.mult, lenient=args.lenient)
    _print_candidate(cand, args)
    return 0


def _cmd_algebra_from_invariant(args) -> int:
    left = _build_data(args, "left")
    right = _build_data(args, "right")
    invs = enumerate_invariants(left, right)
    if not 0 <= args.index < len(invs):
        raise MdkError(f"--index {args.index} out of range: "
                       f"{len(invs)} invariants found")
    cand = algebra_from_invariant(left, right, invs[args.index],
                                  lenient=args.lenient)
    _print_candidate(cand, args)
    return 0


def _cmd_witt(args) -> int:
    left = _build_data(args)
    if args.other is None:
        wi = witt_invariants(left)
        charge = None if wi.central_charge is None else str(wi.central_charge)
        if args.format == "json":
            print(json.dumps({
                "global_dim": wi.global_dim,
                "central_charge": charge,
                "gauss_sum": {"re": wi.gauss_sum.real,
                              "im": wi.gauss_sum.imag},
                "is_center_candidate": wi.is_center_candidate,
                "reasons": list(wi.reasons)}))
            return 0
        print(f"global dim {wi.global_dim:.12g}")
        print(f"gauss sum {wi.gauss_sum.real:.12g}{wi.gauss_sum.imag:+.12g}i")
        print(f"central charge {charge if charge is not None else '(not rational)'}")
        print(f"center candidate: {'yes' if wi.is_center_candidate else 'no'}")
        for r in wi.reasons:
            print(f"  - {r}")
        return 0
    right = _build_data(args, "other")
    ob = witt_obstruction(left, right)
    if args.format == "json":
        print(json.dumps({"verdict": ob.verdict, "reasons": list(ob.reasons)}))
    else:
        print(ob.verdict)
        for r in ob.reasons:
            print(f"  - {r}")
    return 0


def _cmd_anisotropy(args) -> int:
    md = _build_data(args)
    report = anisotropy_screen(md)
    if args.format == "json":
        print(json.dumps({"rank": report.rank,
                          "candidates": [list(c) for c in report.candidates],
                          "nontrivial": [list(c) for c in report.nontrivial],
                          "anisotropic": report.anisotropic}))
        return 0
    print(f"candidates passing all screens: {len(report.candidates)} "
          f"({len(report.nontrivial)} nontrivial)")
    for c in report.candidates:
        print("  (" + ",".join(str(n) for n in c) + ")")
    print("anisotropic at screening level: "
          + ("yes" if report.anisotropic else "no"))
    return 0


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--eps", type=_eps_arg, default=None,
                        help="tolerance override (beats MDK_EPS)")
    common.add_argument("--format", choices=["table", "json"],
                        default="table")

    p = argparse.ArgumentParser(
        prog="mdk", description="Modular tensor category data toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", parents=[common],
                       help="construct data from a build spec")
    b.add_argument("spec")
    b.add_argument("-o", "--output", default=None)
    b.add_argument("--force", action="store_true",
                   help="emit the data even if it fails validation")
    b.set_defaults(func=_cmd_build)

    v = sub.add_parser("validate", parents=[common],
                       help="run the axiom checks")
    v.add_argument("spec")
    v.set_defaults(func=_cmd_validate)

    f = sub.add_parser("fusion", parents=[common],
                       help="Verlinde fusion coefficients")
    f.add_argument("spec")
    f.set_defaults(func=_cmd_fusion)

    i = sub.add_parser("invariants", parents=[common],
                       help="enumerate modular invariants")
    i.add_argument("left")
    i.add_argument("right")
    i.set_defaults(func=_cmd_invariants)

    a = sub.add_parser("algebra", help="commutative-algebra screening")
    asub = a.add_subparsers(dest="subcommand", required=True)
    asc = asub.add_parser("screen", parents=[common])
    asc.add_argument("spec")
    asc.add_argument("--mult", type=_mult_arg, required=True,
                     help="comma-separated multiplicities, e.g. 1,1,0,0")
    asc.add_argument("--lenient", action="store_true",
                     help="demote twist/multiplicity screens to advisory")
    asc.set_defaults(func=_cmd_algebra_screen)
    afi = asub.add_parser("from-invariant", parents=[common])
    afi.add_argument("left")
    afi.add_argument("right")
    afi.add_argument("--index", type=int, required=True,
                     help="invariant index in canonical order")
    afi.add_argument("--lenient", action="store_true")
    afi.set_defaults(func=_cmd_algebra_from_invariant)

    w = sub.add_parser("witt", parents=[common],
                       help="Witt invariants or pairwise obstructions")
    w.add_argument("spec")
    w.add_argument("other", nargs="?", default=None)
    w.set_defaults(func=_cmd_witt)

    an = sub.add_parser("anisotropy", parents=[common],
                        help="bounded search for algebra candidates")
    an.add_argument("spec")
    an.set_defaults(func=_cmd_anisotropy)
    return p


def run(argv, stdout=None, stderr=None) -> int:
    """Run one command; returns the exit code instead of exiting."""
    out = sys.stdout if stdout is None else stdout
    err = sys.stderr if stderr is None else stderr
    with redirect_stdout(out), redirect_stderr(err):
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        try:
            return args.func(args)
        except MdkError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except (MemoryError, RecursionError, np.linalg.LinAlgError) as exc:
            detail = f": {exc}" if str(exc) else ""
            print(f"error: {type(exc).__name__}{detail}", file=sys.stderr)
            return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
