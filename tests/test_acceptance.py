"""Acceptance suite.

One test per numbered criterion; the conftest summary hook prints a
PASS/FAIL line for each at the end of the run.  Frozen counts and
matrices were reproduced with the independent lattice-point oracle
before being pinned here.
"""

import time

import numpy as np
import pytest

from mdkit import (algebra_from_invariant, anisotropy_screen, central_charge,
                   commutant_basis, enumerate_invariants,
                   equivalent_up_to_relabeling, evaluate, gauss_sum,
                   local_modules_dim, parse_spec, preset, screen_algebra,
                   verlinde_fusion, witt_invariants, witt_inverse,
                   witt_product)
from conftest import CORPUS_SPECS, lattice_points


def build(spec):
    return evaluate(parse_spec(spec))


@pytest.mark.criterion(1)
def test_criterion_1_axiom_suite():
    start = time.perf_counter()
    for spec in CORPUS_SPECS:
        md = build(spec)
        report = md.validation()
        assert report.ok, (spec, report)
        assert report.worst < 1e-9, spec
        N = verlinde_fusion(md).N  # integral within 1e-6 or this raises
        assert (N >= 0).all()
        lhs = np.einsum("ijm,mkl->ijkl", N, N)
        rhs = np.einsum("jkm,iml->ijkl", N, N)
        assert (lhs == rhs).all(), spec
    assert time.perf_counter() - start < 30.0


@pytest.mark.criterion(2)
def test_criterion_2_doubles_are_center_candidates(corpus):
    for name in ("Z_2", "Z_3", "Z_4", "Z_5", "Z_6", "S3", "D4", "Q8"):
        md = corpus[f"double:{name}"]
        order = int(name.split("_")[1]) if name.startswith("Z_") else \
            {"S3": 6, "D4": 8, "Q8": 8}[name]
        assert abs(gauss_sum(md) - order) < 1e-7, name
        assert central_charge(md) == 0, name
        wi = witt_invariants(md)
        assert wi.is_center_candidate, (name, wi.reasons)


@pytest.mark.criterion(3)
def test_criterion_3_toric_code_lagrangians():
    tc = preset("toric_code")
    e = screen_algebra(tc, [1, 1, 0, 0])
    assert e.passes
    assert e.dim_gamma ** 2 == tc.global_dim == 4.0
    assert abs(local_modules_dim(e) - 1.0) < 1e-9
    f = screen_algebra(tc, [1, 0, 0, 1])
    assert not f.passes
    assert not f.verdict("trivial_twist_support").passed
    m = screen_algebra(tc, [1, 0, 1, 0])
    assert m.passes
    assert abs(local_modules_dim(m) - 1.0) < 1e-9


FROZEN_COUNTS = (
    ("preset:fibonacci", "preset:fibonacci", 1),
    ("preset:ising", "preset:ising", 1),
    ("su2:4", "su2:4", 2),
    ("su2:10", "su2:10", 3),
    ("su2:16", "su2:16", 3),
    ("preset:fibonacci", "preset:ising", 0),
)


@pytest.mark.criterion(4)
def test_criterion_4_solver_counts():
    for left_spec, right_spec, count in FROZEN_COUNTS:
        left, right = build(left_spec), build(right_spec)

        def bound_of(j, i):
            return int(np.floor(left.dims[i] * right.dims[j] + 1e-6))

        cb = commutant_basis(left, right)
        oracle = [] if cb.dimension == 0 else lattice_points(cb, bound_of)
        assert len(oracle) == count, (left_spec, right_spec)

        start = time.perf_counter()
        invs = enumerate_invariants(left, right)
        assert time.perf_counter() - start < 60.0
        assert len(invs) == count, (left_spec, right_spec)
        for z, w in zip(invs, oracle):
            assert (z.Z == w).all()

        base = [z.Z.tobytes() for z in invs]
        again = enumerate_invariants(left, right)
        assert [z.Z.tobytes() for z in again] == base

    d4 = enumerate_invariants(build("su2:4"))[1].Z
    assert d4[2, 2] == 2
    assert d4[0, 4] == d4[4, 0] == 1


@pytest.mark.criterion(5)
def test_criterion_5_invariants_induce_maximal_algebras():
    for left_spec, right_spec, _ in FROZEN_COUNTS:
        left, right = build(left_spec), build(right_spec)
        for z in enumerate_invariants(left, right):
            cand = algebra_from_invariant(left, right, z)
            target = np.sqrt(left.global_dim * right.global_dim)
            assert abs(cand.dim_gamma - target) < 1e-6
            assert cand.verdict("maximal").passed
            assert cand.passes, (left_spec, right_spec, z.kind)


@pytest.mark.criterion(6)
def test_criterion_6_witt_operations(corpus):
    sample = [preset("fibonacci"), preset("ising"), preset("toric_code")]
    for a in sample:
        for b in sample:
            assert equivalent_up_to_relabeling(
                witt_product(a, b), witt_product(b, a)) is not None
    a, b, c = sample
    assert equivalent_up_to_relabeling(
        witt_product(witt_product(a, b), c),
        witt_product(a, witt_product(b, c))) is not None
    for x in sample:
        back = witt_inverse(witt_inverse(x))
        assert back.S.tobytes() == x.S.tobytes()
        assert back.T.tobytes() == x.T.tobytes()
    for spec, md in corpus.items():
        double = witt_product(md, witt_inverse(md))
        assert abs(gauss_sum(double) - md.global_dim) < 1e-7, spec


@pytest.mark.criterion(7)
def test_criterion_7_twisted_double_cross_checks(corpus):
    for n in (2, 3, 4):
        assert equivalent_up_to_relabeling(
            corpus[f"tdouble:{n}:0"], corpus[f"double:Z_{n}"]) is not None
    twists = sorted(corpus["tdouble:2:1"].T,
                    key=lambda z: (z.real, z.imag))
    assert twists == [-1j, 1j, 1, 1]


@pytest.mark.criterion(8)
def test_criterion_8_anisotropy_screen():
    fib = anisotropy_screen(preset("fibonacci"))
    assert fib.anisotropic
    assert fib.nontrivial == ()
    tc = anisotropy_screen(preset("toric_code"))
    assert not tc.anisotropic
    assert set(tc.nontrivial) == {(1, 1, 0, 0), (1, 0, 1, 0)}
