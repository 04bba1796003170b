"""Tests for the core data type, its axiom checks, and the derived
quantities (fusion, Gauss sums, central charge, products)."""

import hashlib
import itertools
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdkit import (GROUP_PRESETS, PRESETS, DimensionMismatchError, MdkError,
                   ModularData, NonIntegralError, ValidationFailedError,
                   central_charge, commutant_basis,
                   charge_conjugation, cyclic, deligne_product, evaluate,
                   gauss_sum, parse_spec, pointed, preset, reverse, unit_root,
                   validate, verlinde_fusion)
from mdkit import modular_data, numeric
from mdkit.modular_data import _check_ring

ROOT = Path(__file__).resolve().parent.parent

TORIC_S = 0.5 * np.array([[1, 1, 1, 1], [1, 1, -1, -1],
                          [1, -1, 1, -1], [1, -1, -1, 1]], dtype=complex)
TORIC_T = [1.0, 1.0, 1.0, -1.0]


def toric():
    return ModularData(TORIC_S, TORIC_T, labels=["1", "e", "m", "f"])


def test_constructor_basics():
    md = toric()
    assert md.rank == 4
    assert md.labels == ("1", "e", "m", "f")
    assert np.allclose(md.dims, [1, 1, 1, 1])
    assert md.global_dim == pytest.approx(4.0)
    # arrays are frozen
    with pytest.raises(ValueError):
        md.S[0, 0] = 2.0


def test_constructor_shape_errors():
    with pytest.raises(DimensionMismatchError):
        ModularData(TORIC_S, [1.0, 1.0])
    with pytest.raises(DimensionMismatchError):
        ModularData(TORIC_S, TORIC_T, labels=["a"])
    with pytest.raises(DimensionMismatchError):
        ModularData(np.ones((2, 3)), [1.0, 1.0])


def test_validate_all_checks_pass():
    report = validate(toric())
    assert report.ok
    assert report.worst < 1e-12
    names = [c.name for c in report.checks]
    assert names == ["s_unitary", "s_symmetric", "row0_positive",
                     "s00_normalization", "t_unit", "t_roots_of_unity",
                     "s2_permutation", "st_cubed"]


def test_validate_catches_broken_unitarity():
    S = TORIC_S.copy()
    S[3, 3] = 0.7
    report = validate(ModularData(S, TORIC_T))
    assert not report.ok
    assert not report["s_unitary"].passed


def test_validate_catches_nonunit_t0():
    report = validate(ModularData(TORIC_S, [1.0 + 1e-12, 1.0, 1.0, -1.0]))
    assert not report["t_unit"].passed  # exact check, no tolerance


def test_validate_catches_wrong_twist():
    report = validate(ModularData(TORIC_S, [1.0, 1.0, 1.0, 0.5 - 0.5j]))
    assert not report["t_roots_of_unity"].passed
    # a non-finite twist fails the check instead of raising
    for bad in (complex(np.nan, 0), complex(np.inf, 0)):
        with np.errstate(invalid="ignore"):
            report = validate(ModularData(TORIC_S, [1.0, 1.0, 1.0, bad]))
        assert not report["t_roots_of_unity"].passed


def test_validate_catches_negative_row0():
    S = TORIC_S.copy()
    S[0, 1] = -0.5
    S[1, 0] = -0.5
    report = validate(ModularData(S, TORIC_T))
    assert not report["row0_positive"].passed
    assert report["row0_positive"].residual >= 1e-9


def test_validate_catches_st_relation():
    # legal root-of-unity twists that do not pair with this S matrix
    report = validate(ModularData(TORIC_S, [1.0, 1.0j, 1.0, -1.0]))
    assert report["t_roots_of_unity"].passed
    assert not report["st_cubed"].passed
    # vanishing Gauss sum: residual is infinite rather than a crash
    report = validate(ModularData(TORIC_S, [1.0, -1.0, -1.0, 1.0]))
    assert not report["st_cubed"].passed


def test_require_valid_raises_with_report():
    S = TORIC_S.copy()
    S[3, 3] = 0.7
    md = ModularData(S, TORIC_T)
    with pytest.raises(ValidationFailedError) as exc:
        md.require_valid()
    assert exc.value.report is not None
    assert not exc.value.report.ok


def test_dims_ising():
    md = preset("ising")
    assert np.allclose(md.dims, [1.0, 1.0, np.sqrt(2)])
    assert md.global_dim == pytest.approx(4.0)


def test_verlinde_toric_is_klein_four():
    ring = verlinde_fusion(toric())
    # e*e = m*m = f*f = 1 and e*m = f
    assert ring.coefficient(1, 1, 0) == 1
    assert ring.coefficient(2, 2, 0) == 1
    assert ring.coefficient(3, 3, 0) == 1
    assert ring.coefficient(1, 2, 3) == 1
    assert ring.N.sum() == 16


def test_verlinde_ising():
    ring = verlinde_fusion(preset("ising"))
    # sigma * sigma = 1 + psi
    assert ring.coefficient(2, 2, 0) == 1
    assert ring.coefficient(2, 2, 1) == 1
    assert ring.coefficient(2, 2, 2) == 0
    # psi * sigma = sigma
    assert ring.coefficient(1, 2, 2) == 1


def test_verlinde_fibonacci():
    ring = verlinde_fusion(preset("fibonacci"))
    assert ring.coefficient(1, 1, 0) == 1
    assert ring.coefficient(1, 1, 1) == 1


def test_verlinde_rejects_non_modular_input():
    S = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    with pytest.raises((MdkError, NonIntegralError)):
        verlinde_fusion(ModularData(S, [1.0, 1.0]))


def fusion_tensor(*products):
    """Fusion tensor from ((i, j), row) pairs; unit row and column implied."""
    n = len(products[0][1])
    N = np.zeros((n, n, n), dtype=np.int64)
    N[0] = N[:, 0] = np.eye(n, dtype=np.int64)
    for (i, j), row in products:
        N[i, j] = N[j, i] = row
    return N


def test_check_ring_accepts_fibonacci_and_z3():
    _check_ring(fusion_tensor(((1, 1), [1, 1])))
    _check_ring(fusion_tensor(((1, 1), [0, 0, 1]), ((1, 2), [1, 0, 0]),
                              ((2, 2), [0, 1, 0])))


def test_check_ring_rejects_broken_unit_row():
    N = fusion_tensor(((1, 1), [1, 1]))
    N[0, 1] = [1, 0]
    with pytest.raises(MdkError, match="unit row"):
        _check_ring(N)


def test_check_ring_rejects_noncommutative():
    N = fusion_tensor(((1, 1), [1, 1]))
    N[1, 0] = [1, 0]
    with pytest.raises(MdkError, match="not commutative"):
        _check_ring(N)


def test_check_ring_rejects_nonassociative():
    # a*a = b, a*b = a, b*b = 1: (a*a)*b = 1 but a*(a*b) = b
    N = fusion_tensor(((1, 1), [0, 0, 1]), ((1, 2), [0, 1, 0]),
                      ((2, 2), [1, 0, 0]))
    with pytest.raises(MdkError, match="associativity"):
        _check_ring(N)


def test_check_ring_large_coefficients_stay_exact():
    # x*x = 1 + 2^27 x is associative, and n * max(N)^2 >= 2^53 puts the
    # check on the int64 products
    _check_ring(fusion_tensor(((1, 1), [1, 2 ** 27])))
    # x*x = x, x*z = 2^27 x, z*z = 1 + 2^27 z: (x*z)*z = 2^54 x but
    # x*(z*z) = (2^54 + 1) x, a difference float64 cannot represent
    assert np.float64(2 ** 54) == np.float64(2 ** 54 + 1)
    N = fusion_tensor(((1, 1), [0, 1, 0]), ((1, 2), [0, 2 ** 27, 0]),
                      ((2, 2), [1, 0, 2 ** 27]))
    with pytest.raises(MdkError, match="associativity"):
        _check_ring(N)


def test_check_ring_refuses_coefficients_past_int64():
    # x*x = x, x*z = 2^32 x, z*z = 2^33 z: (x*z)*z = 2^64 x but
    # x*(z*z) = 2^65 x, equal mod 2^64, so int64 products would wrap and
    # accept this tensor
    N = fusion_tensor(((1, 1), [0, 1, 0]), ((1, 2), [0, 2 ** 32, 0]),
                      ((2, 2), [0, 0, 2 ** 33]))
    assert ring_verdict(N) == "fusion ring violates associativity"
    with pytest.raises(MdkError, match=r"too large .*2\^63"):
        _check_ring(N)


def ring_verdict(N):
    """The message _check_ring must raise on N, or None; in Python ints."""
    L = N.tolist()
    r = range(len(L))
    if any(L[0][j][k] != (j == k) for j in r for k in r):
        return "fusion ring violates the unit row N[0,j,k] = delta_jk"
    if any(L[i][j][k] != L[j][i][k] for i in r for j in r for k in r):
        return "fusion ring is not commutative in the lower indices"
    for i in r:
        for j in r:
            for k in r:
                for l in r:
                    if (sum(L[i][j][m] * L[m][k][l] for m in r)
                            != sum(L[j][k][m] * L[i][m][l] for m in r)):
                        return "fusion ring violates associativity"
    return None


def monomial_ring(staircase):
    """Z[x, y] / (monomials x^a y^b with b >= staircase[a]), staircase
    nonincreasing: associative, and not semisimple unless it is Z."""
    basis = [(a, b) for a, h in enumerate(staircase) for b in range(h)]
    index = {m: t for t, m in enumerate(basis)}
    n = len(basis)
    N = np.zeros((n, n, n), dtype=np.int64)
    for s, (a, b) in enumerate(basis):
        for t, (c, d) in enumerate(basis):
            u = index.get((a + c, b + d))
            if u is not None:
                N[s, t, u] = 1
    return N


def group_ring(m):
    N = np.zeros((m, m, m), dtype=np.int64)
    for a in range(m):
        for b in range(m):
            N[a, b, (a + b) % m] = 1
    return N


@st.composite
def commutative_unital_tensors(draw):
    """Random commutative unital tensors with entries 0-3, sometimes with
    one entry overwritten so that the unit row or commutativity fails."""
    n = draw(st.integers(1, 5))
    N = np.zeros((n, n, n), dtype=np.int64)
    N[0] = N[:, 0] = np.eye(n, dtype=np.int64)
    for i in range(1, n):
        for j in range(i, n):
            N[i, j] = N[j, i] = draw(st.lists(st.integers(0, 3),
                                              min_size=n, max_size=n))
    if draw(st.booleans()):
        where = draw(st.tuples(*[st.integers(0, n - 1)] * 3))
        N[where] = draw(st.integers(0, 3))
    return N


@st.composite
def associative_tensors(draw):
    """Tensor products of monomial rings, group rings and the rank-2 rings
    x*x = b + a x, relabeled by a permutation fixing the unit, sometimes
    with one entry overwritten."""
    factors = st.one_of(
        st.lists(st.integers(1, 3), min_size=1, max_size=2).map(
            lambda h: monomial_ring(sorted(h, reverse=True))),
        st.integers(1, 3).map(group_ring),
        st.tuples(st.integers(0, 3), st.integers(0, 3)).map(
            lambda ab: fusion_tensor(((1, 1), [ab[1], ab[0]]))))
    N = draw(factors)
    B = draw(factors)
    if len(N) * len(B) <= 9:  # keeps the reference loop quick
        n = len(N) * len(B)
        N = np.einsum("ijk,abc->iajbkc", N, B).reshape(n, n, n)
    n = len(N)
    p = [0] + draw(st.permutations(range(1, n)))
    N = np.ascontiguousarray(N[np.ix_(p, p, p)])
    if draw(st.booleans()):
        where = draw(st.tuples(*[st.integers(0, n - 1)] * 3))
        N[where] = draw(st.integers(0, 3))
    return N


@settings(max_examples=400, deadline=None)
@given(st.one_of(commutative_unital_tensors(), associative_tensors()))
def test_check_ring_matches_python_int_reference(N):
    try:
        _check_ring(N)
        got = None
    except MdkError as e:
        got = str(e)
    assert got == ring_verdict(N)


@pytest.mark.parametrize("staircase, cyclic", [
    ((1,), True), ((4,), True), ((2, 1), False), ((2, 2), False),
    ((3, 1), False)])
def test_check_ring_falls_back_when_no_element_is_cyclic(monkeypatch,
                                                          staircase, cyclic):
    # Z[y]/(y^4) is generated by y; Z[x, y]/(x^2, xy, y^2) and its kin are
    # generated by no single element, so the certificate fails and the
    # loop decides
    calls = []
    loop = modular_data._check_associativity_by_rows

    def counted(M):
        calls.append(len(M))
        loop(M)

    monkeypatch.setattr(modular_data, "_check_associativity_by_rows", counted)
    N = monomial_ring(staircase)
    _check_ring(N)
    assert calls == ([] if cyclic else [len(N)])


@pytest.mark.parametrize("spec, seed", [
    ("su2:10", 1),
    ("tdouble:6:1", 2),
    ("prod(double:S3,preset:ising)", 3),
])
def test_verlinde_relabeling_covariance(spec, seed):
    md = evaluate(parse_spec(spec))
    rng = np.random.default_rng(seed)
    p = np.concatenate(([0], 1 + rng.permutation(md.rank - 1)))
    moved = ModularData(md.S[np.ix_(p, p)], md.T[p], eps=md.eps)
    N = verlinde_fusion(md).N
    assert np.array_equal(verlinde_fusion(moved).N, N[np.ix_(p, p, p)])


def test_validation_reports_and_charges_match_pinned_digests():
    # Every report is hashed as (check, passed, repr(residual)), so a twist
    # check that moves a last bit or flips a verdict changes the digest.
    # The s_unitary, s2_permutation and st_cubed residuals come from BLAS
    # products and were pinned with OpenBLAS on x86-64.
    specs = ([f"preset:{p}" for p in PRESETS]
             + [f"su2:{k}" for k in range(1, 33)]
             + [f"double:{g}" for g in GROUP_PRESETS]
             + [f"tdouble:{n}:{p}" for n in range(1, 9) for p in range(n)])
    reports, charges = hashlib.sha256(), hashlib.sha256()
    for spec in specs:
        md = evaluate(parse_spec(spec))
        j = np.arange(md.rank)
        for eps in (1e-12, 1e-9, 1e-6, 1e-3, 0.5):
            for delta in (0.0, 1e-12, 1e-7, 1e-4):
                T = md.T * (1 + delta * (j % 2)) * np.exp(1j * delta * j)
                x = ModularData(md.S, T, labels=md.labels, eps=eps)
                key = (spec, eps, delta)
                reports.update(repr((*key, [(c.name, c.passed, repr(c.residual))
                                            for c in validate(x).checks])).encode())
                try:
                    c = repr(central_charge(x))
                except MdkError as e:
                    c = type(e).__name__
                charges.update(repr((*key, c)).encode())
    assert reports.hexdigest()[:24] == "920f3b0845f5333bd4dd8b58"
    assert charges.hexdigest()[:24] == "de81e9190666d3d745221a74"


def test_verlinde_rank49_matches_pinned_digest():
    # same recipe and value as the benchmark's scale reference
    N = verlinde_fusion(evaluate(parse_spec("tdouble:7:3"))).N
    h = hashlib.sha256(repr(N.shape).encode())
    h.update(np.ascontiguousarray(N, dtype=np.int64).tobytes())
    assert h.hexdigest()[:24] == "504bee82c684d683fe26a842"


@pytest.mark.parametrize("spec, digest", [
    ("tdouble:8:3", "ce947185e70a7f660b1b823e"),
    ("prod(double:D4,preset:ising)", "043aa627ad4acee078ccbce8"),
])
def test_verlinde_matches_pinned_digest(spec, digest):
    # the benchmark's other two scale fusions, pinned before the check of
    # the ring axioms moved to the cyclic certificate
    N = verlinde_fusion(evaluate(parse_spec(spec))).N
    h = hashlib.sha256(repr(N.shape).encode())
    h.update(np.ascontiguousarray(N, dtype=np.int64).tobytes())
    assert h.hexdigest()[:24] == digest


# su2:1-32, the group doubles, tdouble n <= 8 and four larger specs
# (ranks 66, 32, 81 and 99)
FUSION_SPECS = ([f"su2:{k}" for k in range(1, 33)]
                + [f"double:{g}" for g in GROUP_PRESETS]
                + [f"tdouble:{n}:{p}" for n in range(1, 9) for p in range(n)]
                + ["prod(double:D4,preset:ising)", "prod(double:S3,double:Z_2)",
                   "tdouble:9:2", "prod(su2:10,su2:8)"])


def relabeled(md, seed):
    """md with its non-unit objects permuted by a seeded permutation."""
    rng = np.random.default_rng(seed)
    p = np.concatenate(([0], 1 + rng.permutation(md.rank - 1)))
    return ModularData(md.S[np.ix_(p, p)], md.T[p], eps=md.eps)


def test_verlinde_fusions_match_pinned_digest():
    # 174 fusions, each spec as built and relabeled; pinned on the
    # one-product Verlinde sum, which the blocked sum reproduces bit for bit
    h = hashlib.sha256()
    for spec in FUSION_SPECS:
        md = evaluate(parse_spec(spec))
        for x in (md, relabeled(md, 11)):
            N = verlinde_fusion(x).N
            h.update(repr((spec, N.shape)).encode())
            h.update(np.ascontiguousarray(N, dtype=np.int64).tobytes())
    assert len(FUSION_SPECS) == 87
    assert h.hexdigest()[:24] == "139c053181a5e4805568ae68"


@pytest.mark.parametrize("spec", [
    "su2:10", "tdouble:6:1", "prod(double:D4,preset:ising)", "tdouble:9:2",
    "prod(su2:10,su2:8)"])
def test_verlinde_blocks_are_bitwise_the_one_product(monkeypatch, spec):
    # one row per block, the default and the whole tensor in one block
    md = evaluate(parse_spec(spec))
    S, n = md.S, md.rank
    want = ((S[:, None, :] * S[None, :, :]) / S[0]).reshape(n * n, n) @ S.conj().T
    N = verlinde_fusion(md).N
    for entries in (1, modular_data._BLOCK_ENTRIES, n ** 3):
        monkeypatch.setattr(modular_data, "_BLOCK_ENTRIES", entries)
        raw = np.concatenate([b for _, b in modular_data._verlinde_blocks(S)])
        assert raw.tobytes() == want.tobytes()
        assert verlinde_fusion(md).N.tobytes() == N.tobytes()


@pytest.mark.parametrize("spec, factor, where, residual, value", [
    ("preset:ising", 1 + 3e-6, (2, 2, 2), 6.363980122308707e-06,
     "-6.36398012e-06+0j"),
    ("tdouble:5:2", 1 + 1e-5, (1, 1, 2), 2.8800288001562535e-05,
     "1.0000288+2.64618572e-17j"),
    ("su2:6", 1 - 2e-6, (1, 5, 6), 5.24998950035549e-06, "0.99999475+0j"),
])
@pytest.mark.parametrize("rows", ["one", "default"])
def test_perturbed_verlinde_names_the_first_worst_coefficient(
        monkeypatch, spec, factor, where, residual, value, rows):
    # pinned on the one-product sum: the same (i, j, k), bit for bit the
    # same residual, the same message, with one row per block too
    if rows == "one":
        monkeypatch.setattr(modular_data, "_BLOCK_ENTRIES", 1)
    md = evaluate(parse_spec(spec))
    S = md.S.copy()
    S[1:, 1:] *= factor
    with pytest.raises(NonIntegralError) as exc:
        verlinde_fusion(ModularData(S, md.T, eps=0.5))
    assert exc.value.where == where
    assert exc.value.residual == residual
    i, j, k = where
    assert str(exc.value) == (f"Verlinde coefficient N[{i},{j},{k}] = {value} "
                              f"is not integral within 1e-06")


@pytest.mark.parametrize("rows", ["one", "default"])
def test_negative_verlinde_coefficient_is_refused(monkeypatch, rows):
    # the Galois conjugate of Fibonacci with a positive row 0 passes every
    # axiom check, and its Verlinde sums are integers: tau * tau = 1 - tau
    if rows == "one":
        monkeypatch.setattr(modular_data, "_BLOCK_ENTRIES", 1)
    phi = (1 + 5 ** 0.5) / 2
    a, b = phi / (1 + phi ** 2) ** 0.5, 1 / (1 + phi ** 2) ** 0.5
    md = ModularData([[a, b], [b, -a]], [1, unit_root(1, 5)])
    assert validate(md).ok
    with pytest.raises(NonIntegralError,
                       match=r"^Verlinde coefficient N\[1,1,1\] rounds to "
                             r"-1 < 0$") as exc:
        verlinde_fusion(md)
    assert exc.value.where == (1, 1, 1) and exc.value.residual == -1.0


def test_verlinde_rank99_traced_peak():
    # N alone is 7.8 MB; the sum formed as one product peaks at about 47 MB
    md = evaluate(parse_spec("prod(su2:10,su2:8)"))
    tracemalloc.start()
    try:
        verlinde_fusion(md)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_verlinde_rings_are_certified_without_the_loop(monkeypatch):
    def loop(M):
        raise AssertionError(f"fallback loop ran at rank {len(M)}")
    monkeypatch.setattr(modular_data, "_check_associativity_by_rows", loop)
    specs = ([f"su2:{k}" for k in range(1, 33)]
             + [f"tdouble:{n}:{p}" for n in range(1, 9) for p in range(n)]
             + [f"double:{g}" for g in GROUP_PRESETS])
    for spec in specs:
        verlinde_fusion(evaluate(parse_spec(spec)))


def test_verlinde_rank64_peak_rss():
    code = ("import resource\n"
            "from mdkit import evaluate, parse_spec, verlinde_fusion\n"
            "verlinde_fusion(evaluate(parse_spec('tdouble:8:3')))\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    # Linux carries a parent's RSS high-water mark into its child's
    # ru_maxrss, so the measuring process is started by a small interpreter
    # rather than by the test process itself.
    launch = ("import subprocess, sys\n"
              "sys.exit(subprocess.run([sys.executable, '-c', sys.argv[1]])"
              ".returncode)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", launch, code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    peak_kb = int(proc.stdout)
    if sys.platform == "darwin":  # ru_maxrss is in bytes there
        peak_kb //= 1024
    assert peak_kb < 150 * 1024


@pytest.mark.parametrize("name, charge", [
    ("trivial", Fraction(0)),
    ("semion", Fraction(1)),
    ("ising", Fraction(1, 2)),
    ("fibonacci", Fraction(14, 5)),
    ("toric_code", Fraction(0)),
    ("double_semion", Fraction(0)),
])
def test_central_charges(name, charge):
    assert central_charge(preset(name)) == charge


def test_gauss_sum_magnitude():
    # |tau+| = sqrt(dim) for modular data
    for name in ("ising", "fibonacci", "double_semion"):
        md = preset(name)
        assert abs(gauss_sum(md)) == pytest.approx(np.sqrt(md.global_dim))
        assert gauss_sum(md, -1) == pytest.approx(np.conj(gauss_sum(md)))


def test_deligne_product_structure():
    a, b = preset("fibonacci"), preset("semion")
    prod = deligne_product(a, b)
    assert prod.rank == 4
    assert prod.labels == ("1⊗1", "1⊗s", "tau⊗1", "tau⊗s")
    assert validate(prod).ok
    assert prod.global_dim == pytest.approx(a.global_dim * b.global_dim)
    assert central_charge(prod) == (central_charge(a) + central_charge(b)) % 8


@pytest.mark.parametrize("left,right", [("fibonacci", "semion"),
                                        ("ising", "toric_code")])
def test_deligne_product_matches_eager_kron(left, right):
    a, b = preset(left), reverse(preset(right))
    prod = deligne_product(a, b)
    dims = prod.dims  # read before S is formed
    eager = ModularData(np.kron(a.S, b.S), np.kron(a.T, b.T))
    assert np.array_equal(prod.S, eager.S)
    assert np.array_equal(prod.T, eager.T)
    assert np.array_equal(dims, eager.dims)
    assert not prod.S.flags.writeable and not prod.T.flags.writeable


def test_reverse_conjugates():
    md = preset("ising")
    rev = reverse(md)
    assert validate(rev).ok
    assert np.array_equal(rev.S, np.conj(md.S))
    assert np.array_equal(rev.T, np.conj(md.T))
    assert central_charge(rev) == (-central_charge(md)) % 8


def test_charge_conjugation_pointed_z3():
    q = [unit_root(x * x, 3) for x in range(3)]
    md = pointed(cyclic(3), q)
    assert charge_conjugation(md) == [0, 2, 1]


def test_charge_conjugation_self_dual():
    assert charge_conjugation(preset("fibonacci")) == [0, 1]
    assert charge_conjugation(toric()) == [0, 1, 2, 3]


def test_oversized_fusion_is_refused_before_allocating(monkeypatch):
    monkeypatch.setattr(numeric, "_BYTES_CAP", 10 ** 6)
    assert verlinde_fusion(evaluate(parse_spec("tdouble:3:0"))).rank == 9
    with pytest.raises(MdkError, match=r"Verlinde fusion at rank 49 needs "
                                       r"about 2 MB, past the 1 MB cap"):
        verlinde_fusion(evaluate(parse_spec("tdouble:7:3")))


def test_oversized_validation_is_refused_before_forming_s(monkeypatch):
    monkeypatch.setattr(numeric, "_BYTES_CAP", 10 ** 6)
    small = evaluate(parse_spec("prod(double:Z_3,double:Z_3)"))
    assert validate(small).ok
    # rank 144: the product inherits its factors' gate, so the central
    # charge needs no S; an explicit validation (80 n^2 bytes, about 2 MB)
    # is still refused before S is formed
    big = evaluate(parse_spec("prod(double:Z_4,double:Z_3)"))
    assert central_charge(big) == 0
    assert "S" not in vars(big)
    with pytest.raises(MdkError, match=r"validation at rank 144 needs about "
                                       r"2 MB, past the 1 MB cap"):
        validate(big)
    assert "S" not in vars(big)
    # rank 400: forming S alone (16 n^2 bytes) is refused too
    bigger = evaluate(parse_spec("prod(double:Z_5,double:Z_4)"))
    with pytest.raises(MdkError, match=r"product S at rank 400 needs about "
                                       r"3 MB, past the 1 MB cap"):
        bigger.S
    assert "S" not in vars(bigger)


GATE_LEAVES = ([f"preset:{p}" for p in PRESETS]
               + [f"su2:{k}" for k in range(1, 33)]
               + [f"double:{g}" for g in GROUP_PRESETS]
               + [f"tdouble:{n}:{p}" for n in range(1, 10) for p in range(n)])
GATE_PRODUCTS = ["prod(preset:ising,preset:fibonacci)", "prod(su2:4,su2:4)",
                 "prod(double:S3,preset:ising)",
                 "prod(preset:fibonacci,rev(preset:fibonacci))",
                 "prod(double:Z_3,tdouble:3:1)", "prod(su2:10,su2:6)"]


def test_inherited_gate_agrees_with_the_full_report():
    # A product or a reverse passes require_valid without running the
    # battery; here the battery runs anyway and must agree.  Reverse
    # residuals equal the original's except in the last bits of the twist
    # check; a product's reach about the sum of its factors', so only an
    # eps within a few ulps of those residuals could split gate and report.
    gated, split, moved = 0, [], set()
    for eps in (1e-12, 1e-9, 1e-6):
        for spec in GATE_LEAVES + GATE_PRODUCTS:
            md = evaluate(parse_spec(spec), eps=eps)
            rev = reverse(md)
            for x in (md, rev):
                x.require_valid()
                if x._inherits_gate:
                    gated += 1
                    if not x.validation().ok:
                        split.append((spec, eps, x is rev))
            report = md.validation()
            moved.update(c.name for c in rev.validation().checks
                         if c.residual != report[c.name].residual)
    assert (gated, split, moved) == (330, [], {"t_roots_of_unity"})


@pytest.mark.parametrize("spec", ["su2:9", "tdouble:6:1", "rev(double:S3)",
                                  "prod(double:S3,preset:ising)",
                                  "prod(rev(su2:3),prod(preset:semion,su2:2))"])
def test_dims_are_computed_once_read_only_and_unchanged(spec):
    md = evaluate(parse_spec(spec))
    dims = md.dims
    assert dims is md.dims
    assert not dims.flags.writeable
    with pytest.raises(ValueError):
        dims[0] = 2.0
    if hasattr(md, "_factors"):  # the old product formula: kron of row 0
        a, b = md._factors
        row = np.kron(a.S[0], b.S[0])
        old = (row / row[0]).real
    else:
        old = (md.S[0] / md.S[0, 0]).real
    assert dims.tobytes() == old.tobytes()
    assert md.global_dim == float((old ** 2).sum())


def test_product_labels_equal_the_eager_pairs():
    a, b = preset("ising"), reverse(preset("fibonacci"))
    inner = deligne_product(a, b)
    prod = deligne_product(inner, preset("semion"))
    assert "labels" not in vars(prod)
    eager = tuple(f"{x}⊗{y}" for x in a.labels for y in b.labels)
    assert inner.labels == eager
    assert prod.labels == tuple(f"{x}⊗{y}" for x in eager
                                for y in preset("semion").labels)
    assert prod.labels[0] == "1⊗1⊗1"


def test_revalidating_a_relabeled_copy_finds_its_twists_cached(monkeypatch):
    md = evaluate(parse_spec("tdouble:6:1"))
    assert validate(md).ok
    calls = []

    def counting(x, max_den):
        calls.append(x)
        return best(x, max_den)

    best = numeric._best_rational
    monkeypatch.setattr(numeric, "_best_rational", counting)
    p = np.concatenate(([0], 1 + np.random.default_rng(5).permutation(md.rank - 1)))
    moved = ModularData(md.S[np.ix_(p, p)], md.T[p], eps=md.eps)
    assert validate(moved).ok
    assert calls == []


@pytest.mark.parametrize("spec", ["su2:3", "prod(su2:3,preset:ising)",
                                  "rev(su2:3)", "rev(prod(su2:3,preset:ising))"])
@pytest.mark.parametrize("name", ["eps", "S", "T", "labels", "rank"])
def test_modular_data_refuses_assignment(spec, name):
    md = evaluate(parse_spec(spec))
    before = getattr(md, name)
    with pytest.raises(AttributeError, match="immutable"):
        setattr(md, name, before)
    with pytest.raises(AttributeError, match="immutable"):
        delattr(md, name)
    assert getattr(md, name) is before


def test_validate_records_the_report_the_analyses_read(monkeypatch):
    runs = []
    battery = modular_data.validate

    def counted(md):
        runs.append(md)
        return battery(md)

    monkeypatch.setattr(modular_data, "validate", counted)
    md = pointed(cyclic(3), [1, unit_root(1, 3), unit_root(1, 3)])
    report = modular_data.validate(md)
    verlinde_fusion(md)
    commutant_basis(md, md)
    assert md.validation() is report
    assert runs == [md]
    # an explicit validate still runs the battery, and records anew
    again = modular_data.validate(md)
    assert again is not report and md.validation() is again
    assert runs == [md, md]


@pytest.mark.parametrize("spec", ["su2:3", "double:S3", "preset:ising",
                                  "prod(su2:3,preset:ising)",
                                  "prod(rev(su2:3),prod(preset:semion,su2:2))"])
def test_mirror_equals_the_eager_conjugate_bit_for_bit(spec):
    md = evaluate(parse_spec(spec))
    rev = reverse(md)
    assert "S" not in vars(rev)
    eager = np.conj(md.S)  # the eager mirror, as the reference
    assert rev.S.tobytes() == eager.tobytes()
    assert not rev.S.flags.writeable
    assert rev.dims.tobytes() == (eager[0] / eager[0, 0]).real.tobytes()
    assert rev.labels == md.labels and rev.eps == md.eps


def test_a_product_checks_its_bytes_before_forming_t(monkeypatch):
    # T and row 0 of the rank-256 product take 8 192 bytes, past the
    # lowered cap; the leaves and the rank-16 factors fit under it
    monkeypatch.setattr(numeric, "_BYTES_CAP", 4096)
    inner = evaluate(parse_spec("prod(su2:3,su2:3)"))

    def kron(*args):
        raise AssertionError("np.kron ran before the bytes check")

    monkeypatch.setattr(np, "kron", kron)
    with pytest.raises(MdkError, match="product at rank 256 needs"):
        deligne_product(inner, inner)


def _dims_specs():
    base = ([f"preset:{p}" for p in PRESETS]
            + [f"su2:{k}" for k in range(1, 33)]
            + [f"double:{g}" for g in GROUP_PRESETS]
            + [f"tdouble:{n}:{p}" for n in range(1, 13) for p in range(n)])
    small = ["preset:ising", "preset:fibonacci", "preset:toric_code", "su2:2",
             "su2:5", "double:S3", "tdouble:3:1"]
    return (base + [f"rev({s})" for s in base]
            + [form.format(a=a, b=b) for a in small for b in small
               for form in ("prod({a},{b})", "prod({a},rev({b}))",
                            "rev(prod({a},{b}))",
                            "prod(rev({a}),prod({b},rev({a})))")])


def test_dims_and_global_dims_match_pinned_digest():
    # every byte of the dimensions and the global dimension of each
    # family member, its mirror, and products and mirrors nested both ways
    specs = _dims_specs()
    assert len(specs) == len(set(specs)) == 458
    h = hashlib.sha256()
    for spec in specs:
        md = evaluate(parse_spec(spec))
        h.update(repr((spec, md.dims.dtype.str, md.dims.shape)).encode()
                 + md.dims.tobytes() + np.float64(md.global_dim).tobytes())
    assert h.hexdigest()[:24] == "761df8eba183654cb0c8bd44"


def test_labels_and_charge_conjugations_match_pinned_digest():
    # the labels and C of every spec of the dimensions digest, pinned
    # while products and mirrors still formed both through their factors'
    # cached attributes
    h = hashlib.sha256()
    for spec in _dims_specs():
        md = evaluate(parse_spec(spec))
        md.require_valid()
        h.update(repr((spec, md.labels, md._charge.tolist())).encode())
    assert h.hexdigest()[:24] == "76956e2147348e11f366361b"


def test_products_and_mirrors_form_row0_and_charge_at_construction():
    a, b = preset("ising"), reverse(preset("fibonacci"))
    for md in (b, deligne_product(a, b), reverse(deligne_product(b, a))):
        assert {"_row0", "_charge"} <= set(vars(md))
        assert "S" not in vars(md)
    assert "labels" not in vars(deligne_product(a, b))


@pytest.mark.parametrize("spec", ["su2:5", "double:Z_5", "tdouble:5:2",
                                  "double:S3", "preset:toric_code"])
def test_validate_records_the_charge_conjugation(spec):
    # the permutation read off S^2 by validate, recorded next to the report
    md = evaluate(parse_spec(spec))
    fresh = ModularData(md.S, md.T, labels=md.labels, eps=md.eps)
    validate(fresh)
    want = numeric.permutation_from_matrix(md.S @ md.S, md.eps)
    assert vars(fresh)["_charge"].tolist() == want
    assert charge_conjugation(fresh) == want
    assert not fresh._charge.flags.writeable


@pytest.mark.parametrize("spec", [
    "prod(double:Z_3,tdouble:4:1)", "rev(tdouble:5:2)",
    "prod(rev(double:Z_5),prod(su2:2,rev(tdouble:3:1)))",
    "rev(prod(tdouble:3:1,double:Z_4))"])
def test_products_and_mirrors_form_a_correct_charge_conjugation(spec):
    # they skip validate, and form C from their inputs' without S
    md = evaluate(parse_spec(spec))
    md.require_valid()
    assert md._report is None
    perm = md._charge
    assert "S" not in vars(md)
    assert perm.tolist() == numeric.permutation_from_matrix(md.S @ md.S,
                                                            md.eps)
    assert perm.tolist() != list(range(md.rank))
    assert charge_conjugation(md) == perm.tolist()


def test_product_and_mirror_s_and_labels_match_pinned_digest():
    # every byte of S and every label of products and mirrors nested each
    # way around seven leaves, and of a product whose two factors are one
    # shared node, pinned while S was formed on every node below first
    leaves = ["preset:ising", "rev(preset:fibonacci)", "su2:3", "double:S3",
              "tdouble:3:1", "preset:semion", "double:Z_2"]
    h = hashlib.sha256()
    for a, b in itertools.product(leaves, repeat=2):
        for spec in (f"prod({a},{b})", f"rev(prod({a},{b}))",
                     f"prod(rev({a}),prod({b},{a}))",
                     f"prod(prod({a},{b}),rev(prod({b},preset:semion)))"):
            md = evaluate(parse_spec(spec))
            h.update(repr((spec, md.labels)).encode() + md.S.tobytes())
    x = evaluate(parse_spec("prod(su2:2,preset:semion)"))
    p = deligne_product(x, reverse(x))
    q = deligne_product(p, p)
    h.update(repr(("q", q.labels)).encode() + q.S.tobytes())
    assert h.hexdigest()[:24] == "3ba5526fed59246ef575e07c"


def _unit_chain(inner: str, depth: int) -> ModularData:
    # depth levels of prod(..., preset:trivial) around one spec
    md, unit = evaluate(parse_spec(inner)), preset("trivial")
    for _ in range(depth):
        md = deligne_product(md, unit)
    return md


def test_deep_product_s_keeps_only_the_top():
    md = _unit_chain("double:Z_6", 1000)
    tracemalloc.start()
    try:
        S = md.S
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert np.array_equal(S, evaluate(parse_spec("double:Z_6")).S)
    assert kept - S.nbytes < 10 ** 6


def test_rank576_chain_s_peaks_within_three_times_its_bytes():
    # 40 levels around a rank-576 product whose S takes 5.3 MB
    md = _unit_chain("prod(double:Z_12,double:Z_2)", 40)
    tracemalloc.start()
    try:
        S = md.S
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert S.shape == (576, 576)
    assert peak <= 3 * S.nbytes


def test_a_shared_factor_is_formed_once():
    # 2^64 leaves below the top, 65 distinct nodes
    md = preset("trivial")
    for _ in range(64):
        md = deligne_product(md, md)
    assert md.S.tolist() == [[1]]


def _shared_dag(depth: int) -> ModularData:
    md = preset("trivial")
    for _ in range(depth):
        md = deligne_product(md, md)
    return md


def test_labels_of_a_shared_dag_are_sized_before_they_are_joined():
    # 2^17 - 1 characters at 16 levels; 2^65 - 1 at 64, refused at once
    want = "1"
    for _ in range(16):
        want = f"{want}⊗{want}"
    assert _shared_dag(16).labels == (want,)
    with pytest.raises(MdkError, match="product labels at rank 1 needs"):
        _shared_dag(64).labels
