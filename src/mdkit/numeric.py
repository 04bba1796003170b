"""Small numeric helpers shared across the package.

Centralizes the tolerance conventions: a single global ``eps`` (default
1e-9, overridable per object or via the ``MDK_EPS`` environment variable),
an ``integer_eps`` of 1e-6 for round-then-verify integer extraction, and
continued-fraction caps for rational phase detection (240 for the central
charge, 10080 for twist orders).
"""

from __future__ import annotations

import cmath
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


_QUARTER_TURNS = {Fraction(0): 1 + 0j, Fraction(1, 4): 1j,
                  Fraction(1, 2): -1 + 0j, Fraction(3, 4): -1j}


def unit_root(num: int, den: int) -> complex:
    """e^{2 pi i num/den}, exact at quarter turns.

    Emitting exact 1, -1, i, -i keeps twist multisets and the unit twist
    bit-exact, which the validation layer's T_0 == 1 check relies on.
    """
    if den <= 0:
        raise ValueError("denominator must be positive")
    frac = Fraction(num, den) % 1
    if frac in _QUARTER_TURNS:
        return _QUARTER_TURNS[frac]
    return cmath.exp(2j * cmath.pi * frac.numerator / frac.denominator)


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
    for zero or a non-finite z.
    """
    if z == 0 or not cmath.isfinite(z):
        return None
    angle = cmath.phase(z) / (2 * math.pi) % 1.0
    frac = Fraction(angle).limit_denominator(max_den) % 1
    if abs(unit_root(frac.numerator, frac.denominator) - z / abs(z)) <= tol:
        return frac
    return None


def permutation_from_matrix(m: np.ndarray, eps: float) -> list[int] | None:
    """Read a permutation pi with m[i, pi(i)] ~ 1 off a near-0/1 matrix.

    Returns None if m is not within eps of a permutation matrix.
    """
    n = m.shape[0]
    if m.shape != (n, n):
        return None
    rounded = np.round(m.real)
    if np.abs(m - rounded).max() > eps:
        return None
    if not np.array_equal(np.sort(np.unique(rounded)), np.array([0.0, 1.0])) and n > 1:
        return None
    if (rounded.sum(axis=0) != 1).any() or (rounded.sum(axis=1) != 1).any():
        return None
    return [int(np.argmax(rounded[i])) for i in range(n)]


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
    fracs = [Fraction(float(x)).limit_denominator(max_den) for x in keys]
    den = math.lcm(*(f.denominator for f in fracs))
    nums = [f.numerator * (den // f.denominator) for f in fracs]
    if max(den, *map(abs, nums)) >= 2 ** 63:
        return None
    ints = np.array(nums, dtype=np.int64)[index.reshape(mat.shape)]
    if (np.abs(ints / den - mat) > tol).any():
        return None
    return ints, den
