"""Commutative-algebra screening and Witt-group operations.

Everything here is necessary-condition screening on modular data: a
passing candidate is compatible with being a commutative (etale) algebra
object, but existence is never asserted, since associativity of the
structure morphisms is not visible at the level of S and T.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (DimensionMismatchError, IncompleteEnumerationError,
                     MdkError, NonRationalChargeError, _Budget)
from .invariants import ModularInvariant, _intertwines
from .modular_data import (Check, ModularData, central_charge,
                           deligne_product, gauss_sum, reverse)

__all__ = [
    "AlgebraCandidate", "screen_algebra", "local_modules_dim",
    "algebra_from_invariant", "WittInvariants", "witt_invariants",
    "witt_product", "witt_inverse", "WittObstruction", "witt_obstruction",
    "AnisotropyReport", "anisotropy_screen",
]


# Nodes a commutative-algebra candidate search (the Witt Lagrangian
# search and the anisotropy screen) visits before it stops.
_CANDIDATE_NODE_CAP = 10 ** 6


@dataclass(frozen=True)
class AlgebraCandidate:
    """A multiplicity vector n_i screened as a commutative-algebra object.

    d(Gamma) = sum n_i d_i; n_0 = 1 always (a violation is a hard error,
    not a verdict).
    """

    host: ModularData
    mult: tuple[int, ...]
    dim_gamma: float
    verdicts: tuple[Check, ...]

    @property
    def passes(self) -> bool:
        return all(v.passed for v in self.verdicts if v.required)

    def verdict(self, check: str) -> Check:
        for v in self.verdicts:
            if v.name == check:
                return v
        raise KeyError(check)


def _dimension_slack(md: ModularData) -> float:
    # float error in d(Gamma)^2 - dim scales with rank and dim
    u = float(np.finfo(float).eps)
    return md.eps + 16.0 * u * md.rank * max(1.0, md.global_dim)


def _screen_verdicts(host: ModularData, mult: np.ndarray,
                     lenient: bool) -> tuple[float, list[Check]]:
    d = host.dims
    dim = host.global_dim
    dgamma = float(mult @ d)
    verdicts = [Check("unit_multiplicity", True, 0.0)]

    over = dgamma * dgamma - dim
    verdicts.append(Check("dimension_bound", over <= _dimension_slack(host),
                          max(0.0, over)))

    support = np.flatnonzero(mult)
    twist_res = float(np.abs(host.T[support] - 1.0).max()) if support.size else 0.0
    verdicts.append(Check("trivial_twist_support", twist_res <= host.eps,
                          twist_res, required=not lenient))

    mult_res = float(np.max(mult - d)) if host.rank else 0.0
    verdicts.append(Check("multiplicity_bound", mult_res <= 1e-6,
                          max(0.0, mult_res), required=not lenient))

    quotient = dim / (dgamma * dgamma)
    verdicts.append(Check("local_quotient", quotient >= 1.0 - 1e-6,
                          max(0.0, 1.0 - quotient)))
    return dgamma, verdicts


def _as_mult(host: ModularData, mult) -> np.ndarray:
    arr = np.asarray(mult)
    if arr.shape != (host.rank,):
        raise DimensionMismatchError(
            f"multiplicity vector has shape {arr.shape}, host rank {host.rank}")
    try:  # checked on the floats: 2^63 - 1 rounds to 2^63, past int64
        values = arr.astype(float)
    except OverflowError:  # an integer past the double range
        values = np.array([math.inf])
    if not (np.abs(values) < 2.0 ** 63).all():
        raise MdkError("multiplicities must lie in the int64 range, "
                       "|n| < 2^63")
    rounded = np.round(values).astype(np.int64)
    if np.abs(values - rounded).max() > 1e-9:
        raise MdkError("multiplicities must be integers")
    if rounded.min() < 0:
        raise MdkError("multiplicities must be nonnegative")
    if rounded[0] != 1:
        raise MdkError(f"n_0 must be 1 (got {rounded[0]}): the unit appears "
                       f"exactly once in a connected algebra")
    return rounded


def screen_algebra(host: ModularData, mult, *,
                   lenient: bool = False) -> AlgebraCandidate:
    """Screen a multiplicity vector as a commutative-algebra candidate.

    Five named verdicts: unit_multiplicity (n_0 = 1, also a hard
    precondition), dimension_bound (d(Gamma)^2 <= dim C up to float
    slack), trivial_twist_support (|theta_i - 1| <= host.eps wherever
    n_i > 0), multiplicity_bound (n_i <= d_i + 1e-6), local_quotient
    (dim C / d(Gamma)^2 >= 1 - 1e-6).  With lenient=True the twist and
    multiplicity screens become advisory and do not affect `passes`.

    A pass is a necessary condition only; it never asserts that the
    algebra exists.
    """
    host.require_valid()
    vec = _as_mult(host, mult)
    dgamma, verdicts = _screen_verdicts(host, vec, lenient)
    return AlgebraCandidate(host, tuple(vec.tolist()), dgamma, tuple(verdicts))


def local_modules_dim(c: AlgebraCandidate) -> float:
    """dim C / d(Gamma)^2, the dimension of the local-module category.

    Within 1e-6 of 1 means the local modules are trivial (the maximal,
    Lagrangian case).  Requires a candidate that passes screening.
    """
    if not c.passes:
        raise MdkError("local-module dimension is only defined for "
                       "candidates that pass screening")
    return c.host.global_dim / (c.dim_gamma * c.dim_gamma)


@functools.lru_cache(maxsize=1)
def _invariant_host(left: ModularData, right: ModularData) -> ModularData:
    """deligne_product(left, reverse(right)), built once for a run of
    calls on the same pair: every invariant of the pair shares the host
    (ModularData is immutable), so memory does not grow with their count.
    """
    return deligne_product(left, reverse(right))


def algebra_from_invariant(left: ModularData, right: ModularData,
                           z: ModularInvariant, *,
                           lenient: bool = False) -> AlgebraCandidate:
    """The product-category algebra candidate attached to an invariant.

    Lives in deligne_product(left, reverse(right)); the multiplicity of
    the (i, j) product object is Z_{ji}.  Appends a "maximal" verdict:
    |d(Gamma) - sqrt(dim L * dim R)| < 1e-6, the dimension every
    invariant-induced algebra must attain.
    """
    Z = np.asarray(z.Z)
    if Z.shape != (right.rank, left.rank):
        raise DimensionMismatchError(
            f"invariant has shape {Z.shape}, expected "
            f"({right.rank}, {left.rank})")
    if Z[0, 0] != 1 or Z.min() < 0:
        raise MdkError("invariant must be nonnegative with Z_00 = 1")
    if not _intertwines(Z, left, right)[0]:
        raise MdkError("matrix does not intertwine the given data sets")

    host = _invariant_host(left, right)
    vec = _as_mult(host, Z.T.flatten())
    dgamma, verdicts = _screen_verdicts(host, vec, lenient)
    target = math.sqrt(left.global_dim * right.global_dim)
    res = abs(dgamma - target)
    verdicts.append(Check("maximal", res < 1e-6, res))
    return AlgebraCandidate(host, tuple(vec.tolist()), dgamma, tuple(verdicts))


@dataclass(frozen=True)
class WittInvariants:
    """Witt-class invariants computable from modular data alone.

    is_center_candidate is a necessary-condition verdict: central charge
    0 mod 8 and a bounded search finding a trivial-twist multiplicity
    vector of dimension sqrt(dim).  `reasons` lists the failed tests
    (empty when the candidate verdict is positive).
    """

    global_dim: float
    central_charge: Fraction | None
    gauss_sum: complex
    is_center_candidate: bool
    reasons: tuple[str, ...]


def _candidate_vectors(md: ModularData, lo: float, hi: float):
    """Yield as tuples the integer vectors n with n_0 = 1, 0 <= n_i <=
    floor(d_i + 1e-6) on the trivial-twist objects (|theta_i - 1| <=
    md.eps), zero elsewhere, and lo <= sum n_i d_i <= hi.  With hi^2 <=
    min(dim C + slack, dim C / (1 - 1e-6)) each passes every required
    screen of `screen_algebra`.

    Objects are taken by decreasing d_i, each n_i from its bound down to
    0; a branch is cut when its running sum passes hi or even its largest
    completion stays below lo.  Raises IncompleteEnumerationError once
    more than _CANDIDATE_NODE_CAP nodes are visited.
    """
    d = md.dims
    live = [i for i in range(1, md.rank) if abs(md.T[i] - 1.0) <= md.eps]
    live.sort(key=lambda i: -d[i])
    bounds = [int(math.floor(d[i] + 1e-6)) for i in live]
    suffix = [0.0] * (len(live) + 1)
    for k in range(len(live) - 1, -1, -1):
        suffix[k] = suffix[k + 1] + bounds[k] * d[live[k]]
    vec = [0] * md.rank
    vec[0] = 1
    budget = _Budget("candidate search", _CANDIDATE_NODE_CAP)
    # frames (depth, running sum, n one level up), pushed 0..bound: popped down
    stack = [(0, 1.0, None)]
    while stack:
        k, acc, n = stack.pop()
        budget.spend()
        if k:
            vec[live[k - 1]] = n
        if acc > hi or acc + suffix[k] < lo:
            continue
        if k == len(live):
            yield tuple(vec)
            continue
        di = d[live[k]]
        stack.extend((k + 1, acc + m * di, m) for m in range(bounds[k] + 1))


def witt_invariants(md: ModularData) -> WittInvariants:
    """Global dimension, Gauss sum, rational central charge, and the
    center-candidate verdict with reasons."""
    md.require_valid()
    reasons = []
    try:
        charge = central_charge(md)
    except NonRationalChargeError:
        charge = None
        reasons.append("central charge not recognized as a rational number")
    if charge is not None and charge != 0:
        reasons.append(f"central charge {charge} is nonzero mod 8")
    target = math.sqrt(md.global_dim)
    try:
        next(_candidate_vectors(md, target - 1e-4, target + 1e-4))
    except IncompleteEnumerationError:
        reasons.append("no trivial-twist candidate of dimension sqrt(dim) "
                       "found within the search budget (inconclusive)")
    except StopIteration:
        reasons.append("no trivial-twist multiplicity vector reaches "
                       "dimension sqrt(dim)")
    return WittInvariants(md.global_dim, charge, gauss_sum(md),
                          not reasons, tuple(reasons))


def witt_product(a: ModularData, b: ModularData) -> ModularData:
    """Witt-monoid product: the external (Kronecker) product of the data."""
    return deligne_product(a, b)


def witt_inverse(a: ModularData) -> ModularData:
    """Witt inverse: the braiding-reversed data (conjugated S and T)."""
    return reverse(a)


@dataclass(frozen=True)
class WittObstruction:
    verdict: str  # "incompatible" or "possibly_equivalent"
    reasons: tuple[str, ...]


def witt_obstruction(left: ModularData, right: ModularData) -> WittObstruction:
    """Obstructions to Witt equivalence of two data sets.

    Incompatible when the central charges differ mod 8 or when the
    product with the reversed partner fails the center-candidate search;
    otherwise possibly_equivalent.  Equivalence itself is never claimed.
    """
    left.require_valid()
    right.require_valid()
    reasons = []
    try:
        cl = central_charge(left)
        cr = central_charge(right)
    except NonRationalChargeError:
        cl = cr = None
        reasons.append("central charge comparison unavailable (non-rational)")
    if cl is not None and cl != cr:
        reasons.append(f"central charges differ mod 8: {cl} vs {cr}")
    if not reasons:
        wi = witt_invariants(deligne_product(left, reverse(right)))
        if not wi.is_center_candidate:
            reasons.extend(f"product with reversed partner: {r}"
                           for r in wi.reasons)
    if reasons:
        return WittObstruction("incompatible", tuple(reasons))
    return WittObstruction("possibly_equivalent", ())


@dataclass(frozen=True)
class AnisotropyReport:
    """All multiplicity vectors passing the algebra screens.

    `anisotropic` means no nontrivial candidate survived: necessary
    evidence for complete anisotropy, never a proof.
    """

    rank: int
    candidates: tuple[tuple[int, ...], ...]
    nontrivial: tuple[tuple[int, ...], ...]
    anisotropic: bool


def anisotropy_screen(md: ModularData) -> AnisotropyReport:
    """Exhaustive bounded search for commutative-algebra candidates.

    Enumerates every vector with n_0 = 1, n_i <= floor(d_i + 1e-6) on
    the trivial-twist objects and d(Gamma)^2 within both dimension
    screens: these bounds are the screens, so each vector found passes.
    Past _CANDIDATE_NODE_CAP (10^6) nodes it raises IncompleteEnumerationError.
    """
    md.require_valid()
    dim = md.global_dim
    hi = math.sqrt(min(dim + _dimension_slack(md), dim / (1.0 - 1e-6)))
    found = sorted(_candidate_vectors(md, 0.0, hi), key=lambda t: (sum(t), t))
    nontrivial = tuple(t for t in found if sum(t[1:]) > 0)
    return AnisotropyReport(md.rank, tuple(found), nontrivial,
                            not nontrivial)
