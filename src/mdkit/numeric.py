"""Small numeric helpers shared across the package.

Centralizes the tolerance conventions: a single global ``eps`` (default
1e-9, overridable per object or via the ``MDK_EPS`` environment variable),
an ``integer_eps`` of 1e-6 for round-then-verify integer extraction, and
continued-fraction caps for rational phase detection (240 for the central
charge, 10080 for twist orders).
"""

from __future__ import annotations

import cmath
import functools
import math
import os
from fractions import Fraction

import numpy as np

from .errors import MdkError, NonIntegralError, ToleranceError

DEFAULT_EPS = 1e-9
INTEGER_EPS = 1e-6
CHARGE_DENOMINATOR_CAP = 240
TWIST_ORDER_CAP = 10080
# Estimated bytes past which a dense solve (Verlinde tensor, commutant
# eigensolve, axiom checks) is refused before allocating.  The rank-128
# commutant of prod(double:S3,double:Z_4) estimates 0.41 GB and peaks at
# 0.43 GB RSS.
_BYTES_CAP = 1_500_000_000


def checked_eps(value, what: str = "eps") -> float:
    """``value`` as a float tolerance.

    Raises ToleranceError unless it converts to a finite float > 0: under
    NaN every check compares false, and under inf every check passes.  An
    integer past the double range is refused too.
    """
    try:
        eps = float(value)
    except (TypeError, ValueError, OverflowError):
        eps = math.nan
    if not (math.isfinite(eps) and eps > 0):
        raise ToleranceError(f"{what} must be a finite number > 0, got {value!r}")
    return eps


def check_bytes(need: int, what: str) -> None:
    """MdkError naming the estimate if ``need`` bytes pass ``_BYTES_CAP``."""
    if need > _BYTES_CAP:
        raise MdkError(f"{what} needs about {need / 1e6:,.0f} MB, past the "
                       f"{_BYTES_CAP / 1e6:,.0f} MB cap")


def default_eps() -> float:
    """Global tolerance, honoring the MDK_EPS environment variable."""
    raw = os.environ.get("MDK_EPS")
    return DEFAULT_EPS if raw is None else checked_eps(raw, "MDK_EPS")


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64: a fixed 64-bit mix, elementwise on uint64 arrays."""
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


_QUARTER_TURNS = (1 + 0j, 1j, -1 + 0j, -1j)


def unit_root(num: int, den: int) -> complex:
    """e^{2 pi i num/den}, exact at quarter turns.

    Emitting exact 1, -1, i, -i keeps twist multisets and the unit twist
    bit-exact, which the validation layer's T_0 == 1 check relies on.
    Cost: integer reduction of num/den mod 1 (``math.gcd``), then one
    ``cmath.exp`` of the reduced pair unless it is a quarter turn.
    """
    if den <= 0:
        raise ValueError("denominator must be positive")
    g = math.gcd(num, den)
    num, den = num % den // g, den // g
    if 4 % den == 0:
        return _QUARTER_TURNS[4 // den * num]
    return cmath.exp(2j * cmath.pi * num / den)


def _best_rational(x: float, max_den: int) -> tuple[int, int]:
    """``Fraction(x).limit_denominator(max_den)`` as (numerator, denominator),
    by CPython's continued-fraction walk in plain ints on x's exact ratio."""
    if max_den < 1:
        raise ValueError("max_den should be at least 1")
    n, d = x.as_integer_ratio()
    if d <= max_den:
        return n, d
    den = d
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > max_den:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (max_den - q0) // q1
    # p1/q1 and the semiconvergent lie 1/(q1 (q0 + k q1)) apart with x
    # between them, d/(q1 den) from p1/q1
    if 2 * d * (q0 + k * q1) <= den:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


def nearest_int(x, eps: float = INTEGER_EPS, what: str = "value", where=None) -> int:
    """Round to the nearest integer, raising if the residual exceeds eps."""
    r = round(float(np.real(x)))
    residual = abs(complex(x) - r)
    if residual > eps:
        raise NonIntegralError(
            f"{what} = {x} is not an integer within {eps:g} (residual {residual:.3g})",
            where=where, residual=residual)
    return int(r)


def phase_fraction(z: complex, max_den: int, tol: float) -> Fraction | None:
    """Write z/|z| as e^{2 pi i t} with t rational, denominator <= max_den.

    Returns t in [0, 1) or None if no bounded rational reproduces the phase
    within tol (measured on the unit circle, not on the angle), and None
    for zero or a non-finite z.  The search runs in integer arithmetic
    with one ``cmath.exp``; only the returned t is a Fraction.
    """
    hit = _phase_root(z, max_den, tol)
    return None if hit is None else Fraction(hit[0], hit[1])


@functools.lru_cache(maxsize=4096)
def _phase_root(z: complex, max_den: int, tol: float) -> tuple[int, int, complex] | None:
    """(num, den, unit_root(num, den)) for :func:`phase_fraction`'s t, or None.

    Memoized: every relabeled or rebuilt copy of a data set checks the
    same twists again.  Keys that compare equal (1 and 1+0j, or a signed
    zero part) give the same answer, so sharing an entry is exact.
    """
    if z == 0 or not cmath.isfinite(z):
        return None
    num, den = _best_rational(cmath.phase(z) / (2 * math.pi) % 1.0, max_den)
    num %= den
    root = unit_root(num, den)
    if abs(root - z / abs(z)) <= tol:
        return num, den, root
    return None


def permutation_from_matrix(m: np.ndarray, eps: float) -> list[int] | None:
    """Read a permutation pi with m[i, pi(i)] ~ 1 off a near-0/1 matrix.

    Returns None if m is not within eps of a permutation matrix.
    """
    return permutation_with_residual(m, eps)[0]


def permutation_with_residual(m: np.ndarray, eps: float
                              ) -> tuple[list[int] | None, float]:
    """:func:`permutation_from_matrix` of m, and max |m - round(Re m)|,
    from one rounding pass."""
    rounded = np.round(m.real)
    r = float(np.abs(m - rounded).max())
    n = m.shape[0]
    if (m.shape != (n, n) or r > eps
            or not ((rounded == 0) | (rounded == 1)).all()
            or (rounded.sum(axis=0) != 1).any()
            or (rounded.sum(axis=1) != 1).any()):
        return None, r
    return rounded.argmax(axis=1).tolist(), r


def rref(mat: np.ndarray, tol: float = 1e-10) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form by Gaussian elimination with partial pivoting.

    Returns (R, pivot_columns). Rows of R are scaled so each pivot is 1;
    zero rows are dropped.
    """
    a = np.array(mat, dtype=float)
    nrows, ncols = a.shape
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        pivot = row + int(np.argmax(np.abs(a[row:, col])))
        if abs(a[pivot, col]) <= tol:
            continue
        a[[row, pivot]] = a[[pivot, row]]
        a[row] = a[row] / a[row, col]
        hit = np.abs(a[:, col]) > 0
        hit[row] = False
        a[hit] -= a[hit, col][:, None] * a[row]
        pivots.append(col)
        row += 1
    return a[:row], pivots


def rationalize(mat: np.ndarray, max_den: int, tol: float):
    """Write a float matrix as int64 numerators over one common denominator.

    Each distinct value (after rounding to 12 decimals) is approximated
    once by the fraction with denominator at most max_den nearest to it.
    Returns (numerators, denominator), or None if some entry lies farther
    than tol from its fraction or a numerator or the denominator does
    not fit int64.
    """
    mat = np.asarray(mat, dtype=float)
    keys, index = np.unique(np.round(mat, 12), return_inverse=True)
    pairs = [_best_rational(x, max_den) for x in keys.tolist()]
    den = math.lcm(*(q for _, q in pairs))
    nums = [p * (den // q) for p, q in pairs]
    if max(den, *map(abs, nums)) >= 2 ** 63:
        return None
    ints = np.array(nums, dtype=np.int64)[index.reshape(mat.shape)]
    if (np.abs(ints / den - mat) > tol).any():
        return None
    return ints, den
