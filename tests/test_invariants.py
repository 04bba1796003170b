"""Tests for the commutant basis and the modular invariant solver."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from mdkit import (IncompleteEnumerationError, ModularData, ModularInvariant,
                   classify_invariant, commutant_basis, enumerate_invariants,
                   MdkError, evaluate, parse_spec, preset, reverse,
                   su2_level)
from mdkit import numeric
from mdkit.invariants import _classify, _coordinate_search


def build(spec):
    return evaluate(parse_spec(spec))


@pytest.mark.parametrize("spec, dim", [
    ("preset:fibonacci", 1),
    ("preset:ising", 1),
    ("preset:toric_code", 5),
    ("su2:4", 2),
    ("su2:10", 3),
    ("su2:16", 3),
])
def test_commutant_dimension(spec, dim):
    md = build(spec)
    cb = commutant_basis(md)
    assert cb.dimension == dim
    assert cb.rationalized
    # every basis matrix solves both relations
    for Z in cb.as_float():
        assert np.abs(Z @ md.S - md.S @ Z).max() < 1e-9
        assert np.abs(Z * md.T[None, :] - md.T[:, None] * Z).max() < 1e-9


def test_commutant_positions_respect_t():
    md = preset("toric_code")
    cb = commutant_basis(md)
    for (j, i) in cb.positions:
        assert abs(md.T[i] - md.T[j]) < 1e-9


def test_commutant_empty_across_incompatible_pairs():
    fib, ising = preset("fibonacci"), preset("ising")
    assert commutant_basis(fib, ising).dimension == 0
    assert enumerate_invariants(fib, ising) == []


def test_su2_4_invariants():
    inv = enumerate_invariants(su2_level(4))
    assert len(inv) == 2
    assert [z.kind for z in inv] == ["diagonal", "block"]
    assert (inv[0].Z == np.eye(5, dtype=np.int64)).all()
    expected = np.array([
        [1, 0, 0, 0, 1],
        [0, 0, 0, 0, 0],
        [0, 0, 2, 0, 0],
        [0, 0, 0, 0, 0],
        [1, 0, 0, 0, 1],
    ])
    assert (inv[1].Z == expected).all()


def test_su2_10_invariants():
    inv = enumerate_invariants(su2_level(10))
    assert len(inv) == 3
    assert [z.kind for z in inv] == ["permutation", "diagonal", "block"]
    # the nontrivial permutation swaps each odd label a with 10 - a
    perm = inv[0].Z
    for a in range(11):
        target = 10 - a if a % 2 == 1 else a
        assert perm[target, a] == 1
        assert perm[:, a].sum() == 1
    # the remaining invariant pairs labels (0,6), (3,7), (4,10)
    blocks = [(0, 6), (3, 7), (4, 10)]
    expected = np.zeros((11, 11), dtype=np.int64)
    for (x, y) in blocks:
        for j in (x, y):
            for i in (x, y):
                expected[j, i] = 1
    assert (inv[2].Z == expected).all()


@pytest.mark.parametrize("spec, count", [
    ("preset:fibonacci", 1),
    ("preset:ising", 1),
    ("su2:16", 3),
])
def test_invariant_counts(spec, count):
    assert len(enumerate_invariants(build(spec))) == count


def test_pointed_z3_invariants():
    # charge conjugation on a rank-3 pointed set gives a second invariant
    from mdkit import QuadraticForm, cyclic, pointed, unit_root
    z3 = cyclic(3)
    md = pointed(z3, QuadraticForm(z3, [unit_root(2 * x * x, 3)
                                        for x in range(3)]))
    inv = enumerate_invariants(md)
    assert len(inv) == 2
    assert (inv[0].Z == np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]])).all()
    assert (inv[1].Z == np.eye(3, dtype=np.int64)).all()


def test_toric_code_invariants():
    inv = enumerate_invariants(preset("toric_code"))
    assert len(inv) == 6
    assert sorted(z.kind for z in inv) == [
        "block", "block", "diagonal", "other", "other", "permutation"]


def test_toric_vs_double_semion_invariants():
    inv = enumerate_invariants(preset("toric_code"), preset("double_semion"))
    assert len(inv) == 2
    a = np.zeros((4, 4), dtype=np.int64)
    a[0, 0] = a[0, 2] = a[1, 0] = a[1, 2] = 1
    b = np.zeros((4, 4), dtype=np.int64)
    b[0, 0] = b[0, 1] = b[1, 0] = b[1, 1] = 1
    assert (inv[0].Z == a).all()
    assert (inv[1].Z == b).all()


@pytest.mark.parametrize("left, right", [
    ("preset:fibonacci", "preset:fibonacci"),
    ("preset:ising", "preset:ising"),
    ("preset:toric_code", "preset:toric_code"),
    ("preset:fibonacci", "preset:ising"),
    ("preset:ising", "preset:toric_code"),
    ("preset:toric_code", "preset:double_semion"),
    ("su2:4", "su2:4"),
])
def test_solver_matches_lattice_oracle(left, right, lattice_oracle):
    a, b = build(left), build(right)
    cb = commutant_basis(a, b)
    got = [z.Z for z in enumerate_invariants(a, b)]
    if cb.dimension == 0:
        assert got == []
        return

    def bound_of(j, i):
        return int(np.floor(a.dims[i] * b.dims[j] + 1e-6))

    want = lattice_oracle(cb, bound_of)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g == w).all()


def test_node_cap_aborts(monkeypatch):
    monkeypatch.setattr("mdkit.invariants._NODE_CAP", 10)
    with pytest.raises(IncompleteEnumerationError) as exc:
        enumerate_invariants(preset("toric_code"))
    assert exc.value.cap == 10
    assert exc.value.nodes >= 10


def test_classification_rules():
    assert _classify(np.eye(3, dtype=np.int64)) == "diagonal"
    assert _classify(np.array([[1, 0], [0, 2]])) == "block"
    assert _classify(np.array([[1, 1], [1, 1]])) == "block"
    assert _classify(np.array([[1, 2], [2, 1]])) == "other"
    assert _classify(np.array([[0, 1], [1, 0]])) == "permutation"


def test_gram_search_past_its_cap_gives_other(monkeypatch):
    block = np.array([[1, 0], [0, 2]])
    monkeypatch.setattr("mdkit.invariants._GRAM_NODE_CAP", 1)
    assert _classify(block) == "other"
    monkeypatch.undo()
    assert _classify(block) == "block"


def test_invariant_is_frozen():
    z = enumerate_invariants(preset("fibonacci"))[0]
    assert isinstance(z, ModularInvariant)
    assert classify_invariant(z) == z.kind
    with pytest.raises(ValueError):
        z.Z[0, 0] = 5


def ciz_count(k):
    """Self-invariants of SU(2)_k in the Cappelli-Itzykson-Zuber ADE list:
    A only for odd k and k <= 2; A and D for even k >= 4; one more
    exceptional (E6, E7, E8) at k = 10, 16, 28."""
    if k % 2 == 1 or k <= 2:
        return 1
    return 2 + (k in (10, 16, 28))


@pytest.mark.parametrize("k", range(1, 33))
def test_su2_counts_match_ciz(k):
    assert len(enumerate_invariants(su2_level(k))) == ciz_count(k)


def as_bytes(invs):
    return sorted(np.ascontiguousarray(z).tobytes() for z in invs)


@pytest.mark.parametrize("left, right", [
    ("preset:toric_code", "preset:double_semion"),
    ("double:Z_3", "tdouble:3:0"),
    ("tdouble:2:0", "preset:toric_code"),
])
def test_swapping_sides_transposes(left, right):
    a, b = build(left), build(right)
    forward = [z.Z for z in enumerate_invariants(a, b)]
    backward = [z.Z for z in enumerate_invariants(b, a)]
    assert forward
    assert as_bytes(backward) == as_bytes(Z.T for Z in forward)


@pytest.mark.parametrize("left, right", [
    ("su2:10", "su2:10"),
    ("preset:toric_code", "preset:double_semion"),
    ("tdouble:3:1", "tdouble:3:1"),
    ("prod(su2:4,su2:4)", "prod(su2:4,su2:4)"),
])
def test_reversing_both_sides_keeps_invariants(left, right):
    # Z S_L = S_R Z and Z T_L = T_R Z are equivalent to their complex
    # conjugates, and Z is real
    a, b = build(left), build(right)
    forward = [z.Z for z in enumerate_invariants(a, b)]
    reversed_ = [z.Z for z in enumerate_invariants(reverse(a), reverse(b))]
    assert forward
    assert as_bytes(reversed_) == as_bytes(forward)


@pytest.mark.parametrize("spec, seed", [
    ("su2:10", 3),
    ("prod(su2:4,su2:4)", 11),
])
def test_relabeling_right_side_permutes_rows(spec, seed):
    md = build(spec)
    rng = np.random.default_rng(seed)
    perm = np.concatenate(([0], 1 + rng.permutation(md.rank - 1)))
    moved = ModularData(md.S[np.ix_(perm, perm)], md.T[perm],
                        labels=[md.labels[i] for i in perm], eps=md.eps)
    base = [z.Z for z in enumerate_invariants(md)]
    got = [z.Z for z in enumerate_invariants(md, moved)]
    assert as_bytes(got) == as_bytes(Z[perm] for Z in base)


@pytest.mark.parametrize("spec", ["double:Z_4", "tdouble:4:0"])
def test_z4_double_invariant_count(spec):
    assert len(enumerate_invariants(build(spec))) == 22


@pytest.mark.parametrize("left, right", [
    ("su2:10", "su2:10"),
    ("preset:toric_code", "preset:toric_code"),
    ("preset:toric_code", "preset:double_semion"),
])
def test_float_basis_matches_exact(left, right, monkeypatch):
    a, b = build(left), build(right)
    exact = [z.Z.tobytes() for z in enumerate_invariants(a, b)]
    monkeypatch.setattr("mdkit.invariants.rationalize",
                        lambda *args, **kwargs: None)
    assert commutant_basis(a, b).rationalized is False
    floating = [z.Z.tobytes() for z in enumerate_invariants(a, b)]
    assert floating == exact


def test_float_basis_view(monkeypatch):
    monkeypatch.setattr("mdkit.invariants.rationalize",
                        lambda *args, **kwargs: None)
    cb = commutant_basis(su2_level(10))
    assert cb.rationalized is False and cb.denominator == 1
    stacked = cb.as_float()
    assert isinstance(cb.basis, tuple) and len(cb.basis) == cb.dimension == 3
    for mat, want in zip(cb.basis, stacked):
        assert isinstance(mat, np.ndarray) and mat.dtype == float
        assert not mat.flags.writeable
        assert mat.tobytes() == want.tobytes()


@pytest.mark.parametrize("DB, scale, slack", [
    (np.array([[2, 0, 1], [0, 2, 1]]), 2, 0),
    (np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]]), 1.0, 1e-6),
])
def test_coordinate_search_kernel(DB, scale, slack):
    # entries (c_0, c_1, (c_0 + c_1) / 2) with c_0 = 1 and c_1 in 0..3:
    # only odd c_1 gives an integer third entry, and c_1 = 3 is the top
    # of its box
    caps = scale * np.array([1, 3, 3])
    found = _coordinate_search(DB, scale, slack, [1, 3], caps)
    got = sorted(tuple(int(x) for x in vec) for vec in found)
    assert got == [(1, 1, 1), (1, 3, 2)]


@pytest.mark.parametrize("spec, denominator", [
    ("double:Q8", 8),
    ("prod(double:S3,double:Z_2)", 4),
])
def test_basis_views_of_the_integer_form(spec, denominator):
    cb = commutant_basis(build(spec))
    assert cb.rationalized and cb.denominator == denominator
    assert cb.coords.dtype == np.int64
    assert (cb.coords[np.arange(cb.dimension), cb.pivots] == denominator).all()
    js, is_ = np.array(cb.positions).T
    for row, mat in zip(cb.coords, cb.basis):
        grid = np.array(mat, dtype=object)
        assert (grid[js, is_] == [Fraction(int(x), denominator) for x in row]).all()
    as_fractions = np.array([[[float(x) for x in r] for r in mat]
                             for mat in cb.basis])
    assert cb.as_float().tobytes() == as_fractions.tobytes()


def test_commutant_and_search_build_no_fraction_per_entry(monkeypatch):
    made = []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return super().__new__(cls, *args, **kwargs)

    md = build("double:S3")
    md.require_valid()
    monkeypatch.setattr("mdkit.numeric.Fraction", Counted)
    monkeypatch.setattr("mdkit.invariants.Fraction", Counted)
    cb = commutant_basis(md)
    assert len(enumerate_invariants(md)) == 48
    # the two commutant_basis calls (one here, one in the search) each
    # approximate the 4 distinct values of the 11 x 28 echelon basis once
    assert cb.coords.shape == (11, 28)
    assert len(made) == 2 * np.unique(cb.coords).size == 8


@pytest.mark.parametrize("spec, digest", [
    ("tdouble:7:3", "2bce7c12ec57494315938adc"),
    ("prod(double:S3,double:Z_2)", "18ed4f03a8dd001486f1a591"),
    ("double:Q8", "c2df762cafca499395ab5d34"),
    ("double:D4", "156b3962986fa4d704c47203"),
])
def test_commutant_matches_pinned_digest(spec, digest):
    # pinned from the dense solve of all 2 n^2 equations
    cb = commutant_basis(build(spec))
    h = hashlib.sha256(repr((cb.positions, cb.denominator, cb.pivots)).encode())
    h.update(np.ascontiguousarray(cb.coords, dtype=np.int64).tobytes())
    assert h.hexdigest()[:24] == digest


def _reference_null_space(left, right):
    """T-allowed positions, and the null space over them of all 2 rR rL
    real equations Z S_L = S_R Z, by SVD."""
    positions = [(j, i) for j in range(right.rank) for i in range(left.rank)
                 if abs(right.T[j] - left.T[i]) < 1e-9]
    # column p: the entries of Z S_L - S_R Z per unit of Z[j, i]
    M = np.zeros((right.rank, left.rank, len(positions)), complex)
    for p, (j, i) in enumerate(positions):
        M[j, :, p] += left.S[i]
        M[:, i, p] -= right.S[:, j]
    M = np.concatenate([M.real, M.imag]).reshape(-1, len(positions))
    _, sv, vt = np.linalg.svd(M)
    return tuple(positions), vt[int((sv > 1e-8 * sv[0]).sum()):]


def _relabeled(md, perm):
    perm = np.asarray(perm)
    return ModularData(md.S[np.ix_(perm, perm)], md.T[perm], eps=md.eps)


@pytest.mark.parametrize("left, right, dim, count", [
    # ranks 3 and 12: a j/i transposition in the gather would show here
    (build("su2:2"), build("prod(su2:2,preset:toric_code)"), 3, 3),
    (build("double:S3"), _relabeled(build("double:S3"), [0, 3, 7, 1, 5, 2, 6, 4]),
     11, 48),
])
def test_commutant_matches_full_system_null_space(left, right, dim, count):
    positions, null = _reference_null_space(left, right)
    cb = commutant_basis(left, right)
    assert cb.rationalized and cb.positions == positions
    assert cb.dimension == null.shape[0] == dim
    # the same row space: every reference row is a combination of the basis
    B = cb.coords / cb.denominator
    coef = np.linalg.lstsq(B.T, null.T, rcond=None)[0]
    assert np.abs(B.T @ coef - null.T).max() < 1e-9
    assert len(enumerate_invariants(left, right)) == count


def test_oversized_commutant_is_refused_before_allocating(monkeypatch):
    md = build("prod(double:S3,double:Z_2)")
    monkeypatch.setattr(numeric, "_BYTES_CAP", 10 ** 6)
    with pytest.raises(MdkError, match=r"needs about [\d,]+ MB, past the 1 MB cap"):
        commutant_basis(md)
