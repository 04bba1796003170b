"""Tests for the relabeling matcher: planted permutations, the former
frontier pairs, tolerance and the node cap."""

import numpy as np
import pytest

import mdkit.constructors as constructors
from mdkit import (IncompleteEnumerationError, ModularData, evaluate,
                   equivalent_up_to_relabeling, parse_spec, preset)


def build(spec):
    return evaluate(parse_spec(spec))


def relabeled(md, seed, noise=0.0):
    """md with objects 1.. permuted by `seed`, plus symmetric noise of
    size `noise` on S."""
    rng = np.random.default_rng(seed)
    perm = np.concatenate(([0], 1 + rng.permutation(md.rank - 1)))
    S = md.S[np.ix_(perm, perm)]
    if noise:
        E = rng.standard_normal(S.shape) + 1j * rng.standard_normal(S.shape)
        S = S + noise * (E + E.T) / 2
    return ModularData(S, md.T[perm], eps=md.eps)


def assert_carries(pi, a, b, tol=1e-9):
    p = np.asarray(pi)
    assert p[0] == 0 and sorted(p.tolist()) == list(range(a.rank))
    assert np.abs(b.S[np.ix_(p, p)] - a.S).max() <= tol
    assert np.abs(b.T[p] - a.T).max() <= tol


@pytest.mark.parametrize("spec", ["su2:4", "double:Q8", "tdouble:9:2",
                                  "prod(su2:10,su2:8)", "tdouble:12:0"])
def test_recovers_planted_permutation(spec):
    md = build(spec)
    a, b = relabeled(md, 1), relabeled(md, 2)
    for left, right in [(a, b), (md, b), (a, md)]:
        assert_carries(equivalent_up_to_relabeling(left, right), left, right)


@pytest.mark.parametrize("spec",
                         ["double:Q8", "tdouble:9:2", "prod(su2:10,su2:8)"])
def test_self_match_is_identity(spec):
    md = build(spec)
    assert equivalent_up_to_relabeling(md, md) == list(range(md.rank))


# (left, right, equivalent, individualisation nodes the search needs)
FRONTIER = [
    ("prod(double:Z_3,double:Z_4)", "tdouble:12:0", True, 4),
    ("prod(double:Z_2,double:Z_5)", "double:Z_10", True, 3),
    ("prod(double:Z_2,double:Z_4)", "tdouble:8:0", False, 0),
]


@pytest.mark.parametrize("left,right,equivalent,nodes", FRONTIER)
def test_frontier_pairs_resolve_in_a_few_nodes(monkeypatch, left, right,
                                               equivalent, nodes):
    a, b = build(left), build(right)
    monkeypatch.setattr(constructors, "_RELABEL_NODE_CAP", nodes)
    pi = equivalent_up_to_relabeling(a, b)
    assert (pi is not None) == equivalent
    if equivalent:
        assert_carries(pi, a, b)
        monkeypatch.setattr(constructors, "_RELABEL_NODE_CAP", nodes - 1)
        with pytest.raises(IncompleteEnumerationError):
            equivalent_up_to_relabeling(a, b)


def test_node_cap_raises(monkeypatch):
    monkeypatch.setattr(constructors, "_RELABEL_NODE_CAP", 1)
    with pytest.raises(IncompleteEnumerationError) as exc:
        equivalent_up_to_relabeling(build("prod(double:Z_3,double:Z_4)"),
                                    build("tdouble:12:0"))
    assert exc.value.nodes == 2 and exc.value.cap == 1


def test_relabeled_q8_and_d4_are_inequivalent():
    q8, d4 = build("double:Q8"), build("double:D4")
    assert equivalent_up_to_relabeling(relabeled(q8, 3),
                                       relabeled(d4, 4)) is None
    assert equivalent_up_to_relabeling(d4, relabeled(q8, 5)) is None


@pytest.mark.parametrize("spec", ["double:S3", "prod(su2:10,su2:8)"])
def test_noise_within_eps_keeps_the_match(spec):
    md = build(spec)
    a, b = relabeled(md, 6, noise=1e-13), relabeled(md, 7, noise=1e-13)
    assert a.validation().ok and b.validation().ok
    assert np.abs(a.S - relabeled(md, 6).S).max() > 1e-14
    assert_carries(equivalent_up_to_relabeling(a, b), a, b)


def test_value_classes_ignore_rounding_boundaries():
    # 0.50000000005 is where 10-digit rounding flips
    edge = 0.5 + 5e-11
    x = np.array([edge - 1e-13, edge + 1e-13, edge + 1e-6, -edge])
    cls = constructors._value_classes(x, 1e-9)
    assert cls[0] == cls[1]
    assert len({cls[1], cls[2], cls[3]}) == 3


def test_coarse_eps_results_are_still_checked():
    # at eps = 1 the value classes merge every twist of toric code and
    # double semion, so only the final S/T check can refuse the candidate
    tc, ds = preset("toric_code", eps=1.0), preset("double_semion", eps=1.0)
    assert equivalent_up_to_relabeling(tc, ds) is None
    a = evaluate(parse_spec("tdouble:3:0"), eps=0.8)
    b = evaluate(parse_spec("tdouble:3:1"), eps=0.8)
    assert_carries(equivalent_up_to_relabeling(a, b), a, b, tol=0.8)
