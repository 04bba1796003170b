"""Tests for algebra screening, Witt invariants and anisotropy."""

import hashlib
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import CORPUS_SPECS
from mdkit import (IncompleteEnumerationError, MdkError, ModularData,
                   algebra_from_invariant, anisotropy_screen, cyclic,
                   deligne_product, drinfeld_double, enumerate_invariants,
                   evaluate, local_modules_dim, parse_spec, preset, reverse,
                   screen_algebra, su2_level, witt_inverse, witt_invariants,
                   witt_obstruction, witt_product)
from mdkit import algebras, modular_data
from mdkit.algebras import _candidate_vectors, _dimension_slack


def test_screen_toric_lagrangians():
    tc = preset("toric_code")
    for mult in ([1, 1, 0, 0], [1, 0, 1, 0]):
        c = screen_algebra(tc, mult)
        assert c.passes
        assert c.dim_gamma == 2.0
        assert abs(local_modules_dim(c) - 1.0) < 1e-9


def test_dimension_bound_slack_follows_the_data_eps():
    # d_e = 1 + 5e-8 puts d(Gamma)^2 of Gamma = 1 + e 1e-7 above dim C:
    # within eps = 1e-6, far beyond the float slack alone
    tc = preset("toric_code")
    S = tc.S.copy()
    S[0, 1] = S[1, 0] = 0.5 * (1 + 5e-8)
    md = ModularData(S, tc.T, labels=tc.labels, eps=1e-6)
    v = screen_algebra(md, [1, 1, 0, 0]).verdict("dimension_bound")
    assert v.passed and 0.9e-7 < v.residual < 1.1e-7
    assert (1, 1, 0, 0) in anisotropy_screen(md).nontrivial


def test_screen_toric_fermion_fails_twist():
    c = screen_algebra(preset("toric_code"), [1, 0, 0, 1])
    assert not c.passes
    v = c.verdict("trivial_twist_support")
    assert not v.passed and v.required
    # everything else is fine
    assert c.verdict("dimension_bound").passed
    assert c.verdict("multiplicity_bound").passed


def test_screen_dimension_bound():
    c = screen_algebra(preset("toric_code"), [1, 1, 1, 0])
    assert not c.verdict("dimension_bound").passed
    assert not c.verdict("local_quotient").passed
    assert not c.passes


def test_screen_rejects_bad_multiplicities():
    tc = preset("toric_code")
    with pytest.raises(MdkError):
        screen_algebra(tc, [0, 1, 0, 0])
    with pytest.raises(MdkError):
        screen_algebra(tc, [2, 0, 0, 0])
    with pytest.raises(MdkError):
        screen_algebra(tc, [1, -1, 0, 0])
    with pytest.raises(MdkError):
        screen_algebra(tc, [1, 0.5, 0, 0])
    with pytest.raises(MdkError):
        screen_algebra(tc, [1, 0, 0])


def test_tolerance_is_not_a_positional_argument():
    # the tolerance lives on the data; a third positional argument must
    # not silently become lenient=True, nor a second one eps = 0
    with pytest.raises(TypeError):
        screen_algebra(preset("toric_code"), [1, 1, 0, 0], 1e-9)
    with pytest.raises(TypeError):
        drinfeld_double(cyclic(2), 0)


def test_screen_lenient_demotes_advisory_checks():
    tc = preset("toric_code")
    c = screen_algebra(tc, [1, 0, 0, 1], lenient=True)
    assert not c.verdict("trivial_twist_support").required
    assert not c.verdict("multiplicity_bound").required
    assert c.passes  # only the advisory twist check fails


def test_local_modules_dim():
    md = su2_level(4)
    c = screen_algebra(md, [1, 0, 0, 0, 1])
    assert c.passes
    assert abs(local_modules_dim(c) - 3.0) < 1e-9
    trivial = screen_algebra(md, [1, 0, 0, 0, 0])
    assert abs(local_modules_dim(trivial) - md.global_dim) < 1e-9
    failing = screen_algebra(md, [1, 1, 0, 0, 0])
    with pytest.raises(MdkError):
        local_modules_dim(failing)


def test_algebra_from_identity_invariant():
    fib = preset("fibonacci")
    z = enumerate_invariants(fib)[0]
    c = algebra_from_invariant(fib, fib, z)
    assert c.host.rank == 4
    assert c.mult == (1, 0, 0, 1)
    assert c.verdict("maximal").passed
    assert c.passes
    assert abs(local_modules_dim(c) - 1.0) < 1e-6


def test_algebra_from_block_invariant():
    md = su2_level(4)
    z = enumerate_invariants(md)[1]
    c = algebra_from_invariant(md, md, z)
    assert c.verdict("maximal").passed
    assert c.passes
    # multiplicities follow the transposed matrix entries
    assert sum(c.mult) == int(np.asarray(z.Z).sum())


def test_algebra_from_invariant_leaves_host_s_unformed():
    # the screen reads only dimensions and twists of the rank-n^2 host;
    # forming its S would cost (n^2)^2 complex entries per pair
    md = su2_level(10)
    cands = [algebra_from_invariant(md, md, z) for z in enumerate_invariants(md)]
    assert all("S" not in vars(c.host) for c in cands)
    assert cands[0].host.S.shape == (121, 121)


def test_algebra_from_invariant_validates_no_host(monkeypatch):
    # the host and the reversed right-hand side inherit the gate of the
    # data they are built from, which the invariant search already passed
    md = su2_level(6)
    invs = enumerate_invariants(md)
    calls = []
    real = modular_data.validate
    monkeypatch.setattr(modular_data, "validate",
                        lambda x: calls.append(x.rank) or real(x))
    cands = [algebra_from_invariant(md, md, z) for z in invs]
    assert calls == []
    assert [c.mult for c in cands] == [tuple(np.asarray(z.Z).T.flatten())
                                       for z in invs]
    assert all(type(x) is int for c in cands for x in c.mult)


def test_algebra_from_invariant_rejects_garbage():
    fib, ising = preset("fibonacci"), preset("ising")
    z = enumerate_invariants(fib)[0]
    with pytest.raises(MdkError):
        algebra_from_invariant(ising, ising, z)  # wrong shape
    bad = type(z)(2, 2, np.array([[1, 0], [0, 0]]), "other")
    with pytest.raises(MdkError, match="intertwine"):
        algebra_from_invariant(fib, fib, bad)


@pytest.fixture
def intertwines_calls(monkeypatch):
    calls = []
    real = algebras._intertwines

    def counted(Z, left, right):
        calls.append((left, right))
        return real(Z, left, right)

    monkeypatch.setattr(algebras, "_intertwines", counted)
    return calls


def relabeled_copy(md, seed):
    rng = np.random.default_rng(seed)
    perm = np.concatenate(([0], 1 + rng.permutation(md.rank - 1)))
    return ModularData(md.S[np.ix_(perm, perm)], md.T[perm],
                       labels=[md.labels[i] for i in perm], eps=md.eps)


@pytest.mark.parametrize("spec, seed", [
    ("double:Z_5", 3),
    ("tdouble:5:0", None),
    ("prod(su2:4,su2:4)", 11),
])
def test_search_results_are_not_checked_twice(spec, seed,
                                              intertwines_calls):
    # as the benchmark's solve tasks do: search a pair, then build the
    # algebra of each result for that same pair of objects
    left = evaluate(parse_spec(spec))
    right = left if seed is None else relabeled_copy(left, seed)
    invs = enumerate_invariants(left, right)
    cands = [algebra_from_invariant(left, right, z) for z in invs]
    assert intertwines_calls == []
    assert len(cands) == len(invs) > 1


def test_another_pair_of_objects_is_checked_again(intertwines_calls):
    md = evaluate(parse_spec("double:Z_3"))
    invs = enumerate_invariants(md)
    same = ModularData(md.S, md.T, labels=md.labels, eps=md.eps)
    for z in invs:
        algebra_from_invariant(md, same, z)
    assert len(intertwines_calls) == len(invs)
    assert all(r is same for _l, r in intertwines_calls)
    # the relabeled copy moves objects, so some invariant of md is no
    # intertwiner of (md, moved) and the check refuses it
    moved = relabeled_copy(md, 5)
    with pytest.raises(MdkError, match="intertwine"):
        for z in invs:
            algebra_from_invariant(md, moved, z)


def test_hand_built_invariants_are_checked(intertwines_calls):
    md = preset("toric_code")
    z = enumerate_invariants(md)[-1]
    copy = type(z)(z.left_rank, z.right_rank, z.Z, z.kind)
    assert algebra_from_invariant(md, md, copy).mult == \
        algebra_from_invariant(md, md, z).mult
    assert len(intertwines_calls) == 1
    # swap the two nontrivial bosons of one column only: nonnegative,
    # Z_00 = 1, right shape, but no intertwiner
    Z = np.eye(md.rank, dtype=np.int64)
    Z[[1, 2], 1] = Z[[2, 1], 1]
    bad = type(z)(md.rank, md.rank, Z, "other")
    with pytest.raises(MdkError, match="intertwine"):
        algebra_from_invariant(md, md, bad)
    assert len(intertwines_calls) == 2
    # only the search can mark an invariant verified
    with pytest.raises(TypeError):
        type(z)(md.rank, md.rank, Z, "other", (md, md))


@pytest.mark.parametrize("scale, message", [(2, "n_0 must be 1"),
                                             (-1, "nonnegative")])
def test_hand_built_multiples_of_the_identity_are_refused(scale, message):
    # both intertwine, so the screen of the multiplicities refuses them
    md = preset("ising")
    z = enumerate_invariants(md)[0]
    bad = type(z)(md.rank, md.rank, scale * np.eye(md.rank, dtype=np.int64),
                  "other")
    with pytest.raises(MdkError, match=message):
        algebra_from_invariant(md, md, bad)


def test_algebra_from_invariant_forms_no_mirror_s():
    # the host's dimensions come from its factors' first rows, and the
    # mirrored factor conjugates the first row of the right-hand side
    md = su2_level(10)
    for z in enumerate_invariants(md):
        c = algebra_from_invariant(md, md, z)
        assert "S" not in vars(c.host._factors[1])


def test_witt_invariants_fibonacci():
    wi = witt_invariants(preset("fibonacci"))
    assert not wi.is_center_candidate
    assert wi.central_charge == Fraction(14, 5)
    assert len(wi.reasons) == 2
    assert any("nonzero" in r for r in wi.reasons)
    assert any("sqrt(dim)" in r for r in wi.reasons)


@pytest.mark.parametrize("build", [
    lambda: preset("trivial"),
    lambda: preset("toric_code"),
    lambda: drinfeld_double(cyclic(3)),
])
def test_witt_center_candidates(build):
    wi = witt_invariants(build())
    assert wi.is_center_candidate
    assert wi.reasons == ()
    assert wi.central_charge == 0


def test_witt_search_past_its_cap_is_inconclusive(monkeypatch):
    md = drinfeld_double(cyclic(3))
    monkeypatch.setattr("mdkit.algebras._CANDIDATE_NODE_CAP", 1)
    wi = witt_invariants(md)
    assert not wi.is_center_candidate
    assert any("(inconclusive)" in r for r in wi.reasons)
    monkeypatch.undo()
    assert witt_invariants(md).is_center_candidate


@pytest.mark.parametrize("spec", list(CORPUS_SPECS) + [
    "prod(preset:fibonacci,rev(preset:fibonacci))",
    "prod(preset:ising,rev(preset:ising))"])
def test_witt_lagrangian_matches_anisotropy_candidates(spec):
    # one enumerator serves both screens: a Lagrangian candidate is an
    # anisotropy candidate of dimension sqrt(dim)
    md = evaluate(parse_spec(spec))
    target = np.sqrt(md.global_dim)
    dims = [np.dot(c, md.dims) for c in anisotropy_screen(md).candidates]
    missing = any("sqrt(dim)" in r for r in witt_invariants(md).reasons)
    assert missing == all(abs(d - target) >= 1e-4 for d in dims)


def test_witt_product_and_inverse():
    fib = preset("fibonacci")
    ising = preset("ising")
    p = witt_product(fib, ising)
    assert p.rank == 6
    q = deligne_product(fib, ising)
    assert (p.S == q.S).all() and (p.T == q.T).all()
    # the inverse is an involution, bit for bit
    back = witt_inverse(witt_inverse(fib))
    assert back.S.tobytes() == fib.S.tobytes()
    assert back.T.tobytes() == fib.T.tobytes()


def test_witt_self_product_is_center_candidate():
    fib = preset("fibonacci")
    wi = witt_invariants(witt_product(fib, witt_inverse(fib)))
    assert wi.is_center_candidate


def test_witt_obstruction_verdicts():
    fib, tc = preset("fibonacci"), preset("trivial")
    ob = witt_obstruction(fib, tc)
    assert ob.verdict == "incompatible"
    assert any("differ mod 8" in r for r in ob.reasons)
    ob = witt_obstruction(preset("toric_code"), preset("double_semion"))
    assert ob.verdict == "possibly_equivalent"
    assert ob.reasons == ()
    ob = witt_obstruction(preset("ising"), preset("ising"))
    assert ob.verdict == "possibly_equivalent"


@pytest.mark.parametrize("spec", ["double:Z_7", "double:Z_12"])
def test_witt_obstruction_never_forms_the_product_s(monkeypatch, spec):
    # rank 2 401 and 20 736: validating the product would take seconds
    # and hundreds of MB (Z_7), or be refused at the bytes cap (Z_12)
    md = evaluate(parse_spec(spec))
    md.require_valid()
    products = []

    def product(a, b):
        products.append(deligne_product(a, b))
        return products[-1]

    monkeypatch.setattr(algebras, "deligne_product", product)
    start = time.perf_counter()
    ob = witt_obstruction(md, md)
    assert time.perf_counter() - start < 1.0
    assert (ob.verdict, ob.reasons) == ("possibly_equivalent", ())
    (prod,) = products
    assert prod.rank == md.rank ** 2
    assert "S" not in vars(prod) and prod._report is None


def test_witt_of_a_reversed_product_never_forms_the_product_s():
    # rank 20 736: the product's S alone would be refused at the bytes cap
    md = evaluate(parse_spec("rev(prod(double:Z_12,double:Z_12))"))
    start = time.perf_counter()
    wi = witt_invariants(md)
    assert time.perf_counter() - start < 1.0
    assert "S" not in vars(md) and "S" not in vars(md._inner)
    same = evaluate(parse_spec("prod(rev(double:Z_12),rev(double:Z_12))"))
    assert wi == witt_invariants(same)


def test_witt_of_a_product_with_a_mirrored_product_forms_no_s():
    # rank 20 736: reading the mirror factor's first row off its S would
    # form the product's S, which is refused at the bytes cap
    md = evaluate(parse_spec(
        "prod(preset:trivial,rev(prod(double:Z_12,double:Z_12)))"))
    start = time.perf_counter()
    wi = witt_invariants(md)
    assert time.perf_counter() - start < 1.0
    mirror = md._factors[1]
    assert all("S" not in vars(x) for x in (md, mirror, mirror._inner))
    assert wi == witt_invariants(mirror)


def test_anisotropy_fibonacci():
    rep = anisotropy_screen(preset("fibonacci"))
    assert rep.anisotropic
    assert rep.nontrivial == ()
    assert rep.candidates == ((1, 0),)


def test_anisotropy_toric_code():
    rep = anisotropy_screen(preset("toric_code"))
    assert not rep.anisotropic
    assert set(rep.nontrivial) == {(1, 1, 0, 0), (1, 0, 1, 0)}


def test_anisotropy_trivial():
    rep = anisotropy_screen(preset("trivial"))
    assert rep.anisotropic
    assert rep.candidates == ((1,),)


def test_anisotropy_budget_and_rank_limits(monkeypatch):
    # the search walks only the trivial-twist objects, so high rank alone
    # does not exhaust its node cap
    for spec, count in [("su2:16", 2), ("su2:24", 2), ("double:Z_5", 163),
                        ("double:Q8", 1376), ("double:D4", 2592)]:
        report = anisotropy_screen(evaluate(parse_spec(spec)))
        assert len(report.candidates) == count
    monkeypatch.setattr("mdkit.algebras._CANDIDATE_NODE_CAP", 100)
    with pytest.raises(IncompleteEnumerationError) as exc:
        anisotropy_screen(evaluate(parse_spec("double:Z_5")))
    assert exc.value.cap == 100 and exc.value.nodes > exc.value.cap


@pytest.mark.parametrize("spec, eps", [
    (spec, eps) for eps in (1e-9, 1e-6, 1e-3) for spec in CORPUS_SPECS
] + [("preset:ising", 2.0)])
def test_anisotropy_candidates_are_the_screened_enumeration(spec, eps):
    # reference: enumerate under the dimension_bound alone and keep what
    # screen_algebra passes.  At eps = 2 every Ising twist counts as
    # trivial, and only the local_quotient screen removes (1, 0, 1)
    md = evaluate(parse_spec(spec), eps=eps)
    hi = math.sqrt(md.global_dim + _dimension_slack(md))
    want = sorted((v for v in _candidate_vectors(md, 0.0, hi)
                   if screen_algebra(md, v).passes),
                  key=lambda t: (sum(t), t))
    assert anisotropy_screen(md).candidates == tuple(want)


def test_invariant_algebras_match_pinned_digest():
    # multiplicities, d(Gamma) and every verdict, to the last bit of each
    # residual, of the algebra of every invariant of these pairs
    pairs = [(s, s) for s in ("su2:10", "su2:28", "double:Z_5", "tdouble:5:0",
                              "prod(su2:4,su2:4)")]
    pairs.append(("preset:toric_code", "preset:double_semion"))
    h = hashlib.sha256()
    for specs in pairs:
        left, right = (evaluate(parse_spec(s)) for s in specs)
        for z in enumerate_invariants(left, right):
            for lenient in (False, True):
                c = algebra_from_invariant(left, right, z, lenient=lenient)
                h.update(repr((specs, lenient, c.mult, [
                    (v.name, v.passed, v.required) for v in c.verdicts])).encode()
                    + np.float64(c.dim_gamma).tobytes()
                    + np.array([v.residual for v in c.verdicts]).tobytes())
    assert h.hexdigest()[:24] == "df0af8af180d26c42d077c08"


def test_relabeled_invariant_algebras_match_pinned_digest():
    # as the benchmark's solve tasks: the right side a relabeled copy, so
    # every verdict comes from the search's own stack; lenient verdicts
    # are asked for first, and for every invariant before any strict one
    h = hashlib.sha256()
    for spec, seed in [("double:Z_5", 3), ("tdouble:5:0", 5),
                       ("prod(su2:4,su2:4)", 11), ("su2:10", 6),
                       ("double:Z_3", 1), ("tdouble:3:1", 2),
                       ("prod(preset:ising,preset:ising)", 4)]:
        left = evaluate(parse_spec(spec))
        right = relabeled_copy(left, seed)
        invs = enumerate_invariants(left, right)
        for lenient in (True, False):
            for c in [algebra_from_invariant(left, right, z, lenient=lenient)
                      for z in invs]:
                h.update(repr((spec, lenient, c.mult, [
                    (v.name, v.passed, v.required) for v in c.verdicts])).encode()
                    + np.float64(c.dim_gamma).tobytes()
                    + np.array([v.residual for v in c.verdicts]).tobytes())
    assert h.hexdigest()[:24] == "bef5c303eb7c4fdc9c6a9d2f"


@pytest.mark.parametrize("spec, seed", [("double:Z_5", 3), ("su2:10", None)])
def test_stack_screens_equal_the_checked_one_at_a_time_path(spec, seed,
                                                            intertwines_calls):
    # after the search's stack has been screened, a hand-built copy and a
    # call for another pair of objects still go through _intertwines, and
    # all three paths give equal candidates
    left = evaluate(parse_spec(spec))
    right = left if seed is None else relabeled_copy(left, seed)
    other = ModularData(right.S, right.T, labels=right.labels, eps=right.eps)
    invs = enumerate_invariants(left, right)
    for lenient in (False, True):
        stacked = [algebra_from_invariant(left, right, z, lenient=lenient)
                   for z in invs]
        assert intertwines_calls == []
        for z, c in zip(invs, stacked):
            copy = type(z)(z.left_rank, z.right_rank, z.Z, z.kind)
            for a in (algebra_from_invariant(left, right, copy, lenient=lenient),
                      algebra_from_invariant(left, other, z, lenient=lenient)):
                assert (a.mult, a.dim_gamma, a.verdicts) == \
                    (c.mult, c.dim_gamma, c.verdicts)
        assert [r for _l, r in intertwines_calls] == [right, other] * len(invs)
        intertwines_calls.clear()
    # each call builds its own candidate; the verdicts stay with the search
    assert (algebra_from_invariant(left, right, invs[0])
            is not algebra_from_invariant(left, right, invs[0]))
    assert set(invs[0]._found[0].screens) == {False, True}
    assert not any("screen" in name for name in vars(left))
