"""Tests for the commutant basis and the modular invariant solver."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from mdkit import (IncompleteEnumerationError, ModularData, ModularInvariant,
                   classify_invariant, commutant_basis, enumerate_invariants,
                   MdkError, evaluate, parse_spec, preset, reverse,
                   su2_level)
from mdkit import invariants, numeric
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


@pytest.mark.parametrize("Z", [[[1, 0], [0, -1]], [[1, 0.5], [0.5, 1]],
                               [[1, 0], [0, 1.5]]])
def test_classify_refuses_negative_or_fractional_entries(Z):
    with pytest.raises(MdkError, match="nonnegative integer"):
        classify_invariant(ModularInvariant(2, 2, np.array(Z), "other"))


def test_classify_a_hand_built_invariant():
    # Z = C^T C with C = [[1, 1]]: one block of two objects
    Z = np.array([[1, 1], [1, 1]])
    assert classify_invariant(ModularInvariant(2, 2, Z, "other")) == "block"
    assert classify_invariant(ModularInvariant(2, 2, Z.astype(float),
                                               "other")) == "block"


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

    approximated = []
    best_rational = numeric._best_rational

    def counted_best_rational(x, max_den):
        approximated.append(x)
        return best_rational(x, max_den)

    md = build("double:S3")
    md.require_valid()
    monkeypatch.setattr("mdkit.numeric.Fraction", Counted)
    monkeypatch.setattr("mdkit.invariants.Fraction", Counted)
    monkeypatch.setattr("mdkit.numeric._best_rational", counted_best_rational)
    cb = commutant_basis(md)
    assert len(enumerate_invariants(md)) == 48
    # the two commutant_basis calls (one here, one in the search) each
    # approximate the 4 distinct values of the 11 x 28 echelon basis once,
    # in integer arithmetic, so neither builds a Fraction
    assert cb.coords.shape == (11, 28)
    assert len(approximated) == 2 * np.unique(cb.coords).size == 8
    assert made == []


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


# Coordinate values an exhaustive search tries, and the invariants it
# finds, as measured on the one-node-per-call walk this search replaced.
SEARCH_TOTALS = [
    ("su2:28", 48, 3),
    ("double:S3", 507, 48),
    ("double:Z_4", 573, 22),
    ("tdouble:5:0", 181, 12),
    ("prod(su2:4,su2:4)", 245, 13),
    ("preset:toric_code", 23, 6),
]


@pytest.mark.parametrize("spec, total, count", SEARCH_TOTALS)
def test_blocked_search_spends_the_node_walk_budget(spec, total, count,
                                                    monkeypatch):
    md = build(spec)
    monkeypatch.setattr("mdkit.invariants._NODE_CAP", total)
    assert len(enumerate_invariants(md)) == count
    monkeypatch.setattr("mdkit.invariants._NODE_CAP", total - 1)
    with pytest.raises(IncompleteEnumerationError) as exc:
        enumerate_invariants(md)
    assert exc.value.cap == total - 1


def invariant_bytes(invs):
    return [(z.Z.tobytes(), z.kind) for z in invs]


@pytest.mark.parametrize("spec", ["double:S3", "double:Z_4",
                                  "prod(su2:4,su2:4)"])
@pytest.mark.parametrize("entries", [1, 10 ** 9])
def test_block_size_does_not_change_the_answer(spec, entries, monkeypatch):
    # one row per block, and one block per depth: the same invariants,
    # and the search finds them in the same (depth-first) order
    real = invariants._coordinate_search
    found = []
    monkeypatch.setattr(invariants, "_coordinate_search",
                        lambda *args: found.append(real(*args)) or found[-1])
    md = build(spec)
    want = invariant_bytes(enumerate_invariants(md))
    monkeypatch.setattr(invariants, "_BLOCK_ENTRIES", entries)
    assert invariant_bytes(enumerate_invariants(md)) == want
    assert found[0].tobytes() == found[1].tobytes()


def test_search_stack_is_refused_before_the_search(monkeypatch):
    md = build("double:S3")
    cb = commutant_basis(md)
    spent = []

    class Budget:
        def __init__(self, *args):
            pass

        def spend(self, k=1):
            spent.append(k)

    monkeypatch.setattr("mdkit.invariants.commutant_basis", lambda *a: cb)
    monkeypatch.setattr("mdkit.invariants._Budget", Budget)
    monkeypatch.setattr(numeric, "_BYTES_CAP", 1000)
    with pytest.raises(MdkError, match="invariant search stack"):
        enumerate_invariants(md)
    assert spent == []


@pytest.mark.parametrize("entries", [1, 1 << 16])
def test_batched_check_names_the_first_failing_candidate(entries,
                                                         monkeypatch):
    # two good candidates, then two bad ones: the error reports the
    # residuals of the first bad one, as a one-at-a-time check would
    md = preset("toric_code")
    real = invariants._coordinate_search
    found = []

    def search(*args):
        rows = real(*args)
        bad = rows[:2].copy()
        bad[0, 1] += 1
        bad[1, 1] += 2
        found.extend([rows[0], rows[1], bad[0], bad[1]])
        return np.array(found)

    monkeypatch.setattr(invariants, "_coordinate_search", search)
    monkeypatch.setattr(invariants, "_VERIFY_ENTRIES", entries)
    cb = commutant_basis(md)
    js, is_ = np.array(cb.positions).T
    Z = np.zeros((md.rank, md.rank), dtype=np.int64)
    with pytest.raises(MdkError, match="non-verifying candidate") as exc:
        enumerate_invariants(md)
    Z[js, is_] = found[2]
    _ok, s_res, t_res = invariants._intertwines(Z, md, md)
    assert not _ok
    assert str(exc.value).endswith(
        f"(S residual {s_res:.3g}, T residual {t_res:.3g})")


def test_search_results_are_read_only_and_remember_their_pair():
    md = build("double:Z_3")
    copy = ModularData(md.S, md.T, labels=md.labels, eps=md.eps)
    invs = enumerate_invariants(md, copy)
    assert all(z.verified_pair[0] is md and z.verified_pair[1] is copy
               for z in invs)
    assert all(not z.Z.flags.writeable for z in invs)
    z = invs[0]
    by_hand = ModularInvariant(z.left_rank, z.right_rank, z.Z, z.kind)
    assert by_hand.verified_pair is None
    assert by_hand == z and repr(by_hand) == repr(z)


def _relabeled_by_seed(md, seed):
    rng = np.random.default_rng(seed)
    return _relabeled(md, np.concatenate(([0], 1 + rng.permutation(md.rank - 1))))


def _commutant_pairs():
    """Relabeled, cross and mirrored pairs; most have C != 1 on a side."""
    relabeled = [(build(s), _relabeled_by_seed(build(s), seed)) for s, seed in (
        ("double:Z_5", 3), ("tdouble:5:0", 5), ("prod(su2:4,su2:4)", 11),
        ("double:S3", 2), ("double:Z_4", 7), ("tdouble:3:1", 1),
        ("tdouble:4:1", 4), ("su2:10", 6))]
    cross = [(build(a), build(b)) for a, b in (
        ("preset:toric_code", "preset:double_semion"),
        ("double:Z_3", "tdouble:3:0"), ("tdouble:2:1", "preset:double_semion"),
        ("preset:fibonacci", "preset:ising"), ("tdouble:4:1", "tdouble:4:3"),
        ("su2:2", "prod(su2:2,preset:toric_code)"),
        ("prod(preset:semion,rev(double:Z_3))",
         "prod(rev(preset:semion),double:Z_3)"),
        ("tdouble:3:1", "rev(tdouble:3:2)"))]
    mirrored = [(build(s), build(s)) for s in (
        "prod(double:Z_3,rev(su2:2))", "prod(su2:3,rev(su2:3))",
        "rev(tdouble:5:2)", "prod(preset:semion,rev(preset:semion))")]
    own = [(build(s), build(s)) for s in (
        [f"double:Z_{n}" for n in (3, 4, 5, 6)]
        + [f"tdouble:{n}:{p}" for n in (3, 4, 5, 6) for p in range(n)])]
    return relabeled + cross + mirrored + own


def test_commutant_of_relabeled_cross_and_mirrored_pairs_matches_pinned_digest():
    # every field of the basis, pinned before the eigensolve moved to the
    # charge-conjugation orbits of the positions
    h = hashlib.sha256()
    pairs = _commutant_pairs()
    assert len(pairs) == 42
    for left, right in pairs:
        cb = commutant_basis(left, right)
        h.update(repr((cb.positions, cb.pivots, cb.denominator,
                       cb.rationalized, cb.coords.dtype.str,
                       cb.coords.shape)).encode() + cb.coords.tobytes())
    assert h.hexdigest()[:24] == "685b99cad974b7a0a4da5ac7"


def _greedy_order_by_counting(nonzero, boxes):
    """Reference: the greedy coordinate order kept as per-entry counts of
    the unassigned rows touching each entry, one numpy pass per step."""
    unset = nonzero.sum(axis=0)
    order, rest, k = [], list(range(1, len(nonzero))), 0
    while True:
        order.append(k)
        unset = unset - nonzero[k]
        if not rest:
            return order
        gain = np.count_nonzero(nonzero[rest] & (unset == 1), axis=1)
        i = int(np.argmax(gain * (max(boxes) + 1) - np.asarray(boxes)[rest]))
        k = rest.pop(i)


def test_greedy_order_matches_the_counting_reference():
    # the supports of real bases, then random ones of every density
    rng = np.random.default_rng(5)
    cases = [commutant_basis(left, right).coords != 0
             for left, right in _commutant_pairs()]
    cases += [rng.random((m, P)) < rng.random()
              for m, P in rng.integers(1, 70, (200, 2))]
    for nonzero in cases:
        if len(nonzero):
            boxes = rng.integers(0, 5, len(nonzero)).tolist()
            assert (invariants._greedy_order(nonzero, boxes)
                    == _greedy_order_by_counting(nonzero, boxes))
