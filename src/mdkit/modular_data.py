"""Modular data: the numerical avatar of a modular tensor category.

A :class:`ModularData` instance holds a unitary symmetric S matrix, the
diagonal T of twists, and labels for the simple objects (index 0 is the
unit).  Normalization conventions: S is stored unitary (``S[0,0] =
1/sqrt(global_dim)``) and T stores bare twists theta_i with no central
charge prefactor.  Everything downstream (fusion, Gauss sums, products,
the invariant solver) consumes this type.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (DimensionMismatchError, MdkError, NonIntegralError,
                     NonRationalChargeError, ValidationFailedError)
from .numeric import (CHARGE_DENOMINATOR_CAP, INTEGER_EPS, TWIST_ORDER_CAP,
                      check_bytes, checked_eps, default_eps,
                      _best_rational, _phase_root, permutation_from_matrix,
                      unit_root)

__all__ = [
    "ModularData", "FusionRing", "Check", "ValidationReport", "validate",
    "verlinde_fusion", "gauss_sum", "central_charge", "deligne_product",
    "reverse", "charge_conjugation",
]


@dataclass(frozen=True)
class Check:
    """One named check with its maximal residual.

    Axiom checks and algebra screens share this record; an advisory
    screen has required=False and does not count towards a verdict.
    """
    name: str
    passed: bool
    residual: float
    required: bool = True


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`: a list of named checks.

    The overall verdict ``ok`` is the conjunction of the individual
    checks.  Failing data does not raise; callers that need a hard
    guarantee use :meth:`ModularData.require_valid`.
    """
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def worst(self) -> float:
        return max((c.residual for c in self.checks), default=0.0)

    def __getitem__(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


class ModularData:
    """Rank, labels, S matrix, T twists, and a working tolerance.

    Parameters
    ----------
    S : (rank, rank) array_like of complex
        The modular S matrix, unitary normalization.
    T : (rank,) array_like of complex
        Bare twists theta_i; ``T[0]`` must be exactly 1.
    labels : sequence of str, optional
        Names of the simple objects; defaults to "0", "1", ....
    eps : float, optional
        Tolerance for all numeric checks; defaults to 1e-9 (or MDK_EPS).

    Notes
    -----
    Instances are immutable: the arrays are frozen at construction and
    every operation is a pure function, so values can be shared freely
    across threads.  Axiom checking is lazy; the first call to
    :meth:`validation` runs all checks and caches the report.
    """

    # set on the results of deligne_product and reverse (see require_valid)
    _inherits_gate = False

    def __init__(self, S, T, labels=None, eps: float | None = None):
        S = np.array(S, dtype=complex)
        T = np.array(T, dtype=complex)
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            raise DimensionMismatchError(f"S must be square, got shape {S.shape}")
        rank = S.shape[0]
        if rank < 1:
            raise DimensionMismatchError("rank must be at least 1")
        if T.shape != (rank,):
            raise DimensionMismatchError(
                f"T has shape {T.shape}, expected ({rank},)")
        if labels is None:
            labels = [str(i) for i in range(rank)]
        labels = tuple(str(x) for x in labels)
        if len(labels) != rank:
            raise DimensionMismatchError(
                f"{len(labels)} labels for rank {rank}")
        S.setflags(write=False)
        T.setflags(write=False)
        self.S = S
        self.T = T
        self.rank = rank
        self.labels = labels
        self.eps = default_eps() if eps is None else checked_eps(eps)
        self._report: ValidationReport | None = None

    @functools.cached_property
    def dims(self) -> np.ndarray:
        """Quantum dimensions d_i = S_{0i}/S_{00} (real parts).

        Computed once per object and returned read-only, like S and T.
        """
        dims = (self.S[0] / self.S[0, 0]).real
        dims.setflags(write=False)
        return dims

    @functools.cached_property
    def global_dim(self) -> float:
        """dim C = sum of d_i^2, computed once per object."""
        return float((self.dims ** 2).sum())

    def validation(self) -> ValidationReport:
        """The full :func:`validate` report, run on first call and cached."""
        if self._report is None:
            self._report = validate(self)
        return self._report

    def require_valid(self) -> "ModularData":
        """Return self if the axioms hold within eps, else raise.

        The result of :func:`deligne_product` or :func:`reverse` returns at
        once: its constructor already gated the inputs, and the product or
        mirror of modular data is modular.  Its :meth:`validation` still
        runs the full battery on request, and its residuals may exceed the
        inputs' (a product's reach about the sum of its factors'), so data
        within a few ulps of eps can pass this gate yet fail that report.

        Raises
        ------
        ValidationFailedError
            Carrying the report, if some check fails.
        """
        if self._inherits_gate:
            return self
        report = self.validation()
        if not report.ok:
            failed = ", ".join(c.name for c in report.checks if not c.passed)
            raise ValidationFailedError(
                f"modular data fails validation ({failed})", report=report)
        return self

    def __repr__(self):
        return f"ModularData(rank={self.rank}, labels={list(self.labels)!r})"


def validate(md: ModularData) -> ValidationReport:
    """Run all modular-data axiom checks and report residuals.

    Checks: unitarity and symmetry of S, strict positivity of row 0 with
    the S_{00} = 1/sqrt(dim) normalization, T_0 = 1 (exact), twists being
    bounded-order roots of unity, S^2 equal to a permutation (charge
    conjugation), and the (S diag(T))^3 = e^{2 pi i c/8} S^2 relation with
    the phase taken from the Gauss sum.  The root-of-unity check runs
    once per distinct twist, in integer arithmetic with one ``cmath.exp``
    each; the rest is a few O(n^3) matrix products.  Peak memory is
    about 80 n^2 bytes (the S of a Deligne product is formed here, on
    first use), and an estimate past ``numeric._BYTES_CAP`` raises
    MdkError before S is read.
    """
    n = md.rank
    # S, conj(S), S S^H, the identity, their difference and its modulus
    check_bytes(80 * n ** 2, f"validation at rank {n}")
    S, T, eps = md.S, md.T, md.eps
    checks = []

    r = np.abs(S @ S.conj().T - np.eye(n)).max()
    checks.append(Check("s_unitary", r < eps, float(r)))

    r = np.abs(S - S.T).max() if n > 1 else 0.0
    checks.append(Check("s_symmetric", r < eps, float(r)))

    row = S[0]
    im_max = float(np.abs(row.imag).max())
    re_min = float(row.real.min())
    # strict positivity: a nonpositive entry is reported at >= eps
    r = max(im_max, -re_min if re_min <= 0 else 0.0, eps if re_min <= 0 else 0.0)
    positive = re_min > 0 and im_max < eps
    checks.append(Check("row0_positive", positive, r))

    if positive:
        dim = float(((row / S[0, 0]).real ** 2).sum())
        r = float(abs(S[0, 0] - 1 / math.sqrt(dim)))
    else:
        r = math.inf
    checks.append(Check("s00_normalization", r < eps, r))

    r = float(abs(T[0] - 1))
    checks.append(Check("t_unit", r == 0.0, r))

    worst = 0.0
    for t in dict.fromkeys(T.tolist()):
        hit = _phase_root(t, TWIST_ORDER_CAP, eps)
        if hit is None or abs(abs(t) - 1) >= eps:
            worst = math.inf
            break
        worst = max(worst, abs(t - hit[2]))
    checks.append(Check("t_roots_of_unity", worst < eps, worst))

    S2 = S @ S
    perm = permutation_from_matrix(S2, eps)
    r = float(np.abs(S2 - np.round(S2.real)).max())
    checks.append(Check("s2_permutation", perm is not None, r))

    dims = (row / S[0, 0]).real if positive else np.ones(n)
    tau = complex((dims ** 2 * T).sum())
    if abs(tau) > 0:
        phase = tau / abs(tau)
        r = float(np.abs(np.linalg.matrix_power(S @ np.diag(T), 3) - phase * S2).max())
    else:
        r = math.inf
    checks.append(Check("st_cubed", r < eps, r))

    return ValidationReport(tuple(checks))


@dataclass(frozen=True)
class FusionRing:
    """Nonnegative-integer fusion coefficients N_{ij}^k with dimensions.

    Invariants (verified at construction time by :func:`verlinde_fusion`):
    unit row ``N[0, j, k] = delta_{jk}``, commutativity in the lower
    indices, exact associativity on the integer tensor, and the dimension
    identity ``sum_k N[i, j, k] d_k = d_i d_j`` within eps.  The
    associativity check tests one cyclic element against every N_i in
    O(n^4) flops and O(n^3) memory, never an n^4 tensor (see
    :func:`_check_ring`).
    """
    rank: int
    N: np.ndarray = field(repr=False)
    dims: np.ndarray = field(repr=False)
    global_dim: float

    def coefficient(self, i: int, j: int, k: int) -> int:
        return int(self.N[i, j, k])


def verlinde_fusion(md: ModularData) -> FusionRing:
    """Fusion ring via the Verlinde formula.

    N_{ij}^k = sum_m S_{im} S_{jm} conj(S_{km}) / S_{0m}; coefficients are
    rounded after checking they sit within ``integer_eps`` (1e-6) of a
    nonnegative integer.  The sum is one complex matrix product of shape
    (n^2, n) x (n, n), and the ring axioms are then checked exactly on the
    integer tensor (see :func:`_check_ring`).  Cost: O(n^4) flops, almost
    all in BLAS, and a peak of 48 n^3 bytes, checked before anything is
    allocated.  The associativity check is certified by one cyclic
    element; a ring where that certificate fails (only by an unlucky
    choice of coefficients or prime, since Verlinde rings are semisimple)
    falls back to an O(n^5) comparison in the same memory.

    Raises
    ------
    NonIntegralError
        If some coefficient is not integral (carries the worst (i, j, k)
        and its residual) or rounds to a negative value.
    MdkError
        If the rounded tensor violates a fusion-ring identity, or if the
        estimated memory is past ``numeric._BYTES_CAP``.
    """
    md.require_valid()
    n = md.rank
    # peak: the complex tensor, its rounded real part, their difference, |that|
    check_bytes(48 * n ** 3, f"Verlinde fusion at rank {n}")
    S = md.S
    raw = ((S[:, None, :] * S[None, :, :]) / S[0]).reshape(n * n, n) @ S.conj().T
    raw = raw.reshape(n, n, n)
    rounded = np.round(raw.real)
    residual = np.abs(raw - rounded)
    worst = np.unravel_index(int(residual.argmax()), residual.shape)
    if residual[worst] > INTEGER_EPS:
        i, j, k = (int(x) for x in worst)
        raise NonIntegralError(
            f"Verlinde coefficient N[{i},{j},{k}] = {raw[worst]:.9g} is not "
            f"integral within {INTEGER_EPS:g}",
            where=(i, j, k), residual=float(residual[worst]))
    del raw, residual  # the complex n^3 arrays are not needed past here
    if rounded.min() < 0:
        where = np.unravel_index(int(rounded.argmin()), rounded.shape)
        i, j, k = (int(x) for x in where)
        raise NonIntegralError(
            f"Verlinde coefficient N[{i},{j},{k}] rounds to {rounded[where]:g} < 0",
            where=(i, j, k), residual=float(rounded[where]))
    dims = md.dims
    # on the float64 tensor, which holds the integers of N exactly
    dim_residual = np.abs(rounded @ dims - np.outer(dims, dims)).max()
    N = rounded.astype(np.int64)
    del rounded

    _check_ring(N)
    if dim_residual > max(md.eps, 1e-12 * md.global_dim * n):
        raise MdkError(
            f"fusion dimensions inconsistent (residual {dim_residual:.3g})")
    N.setflags(write=False)
    return FusionRing(rank=n, N=N, dims=dims, global_dim=md.global_dim)


def _check_ring(N: np.ndarray) -> None:
    """Check the unit row, commutativity and associativity of an integer N.

    Write N_y for the matrix ``N[y]`` (rows j, columns l).  Once the
    lower indices commute, associativity, sum_m N_ij^m N_mk^l = sum_m
    N_jk^m N_im^l, says exactly N_i N_k = N_k N_i for all i, k.  That is
    checked in O(n^4) flops by one element, X = sum_i c_i N_i, with fixed
    coefficients c_i in [1, 2^20] taken from a splitmix64 hash of i:

    1. If the N_y commute, so does X with each of them.  X N_y = N_y X
       is therefore checked for every y, as two float64 products of shape
       (n x n) x (n x n^2), and a mismatch proves that associativity
       fails.  All sums stay below ``n^2 * 2^20 * max|N|^2 < 2^53``, so
       float64 holds them exactly.
    2. Conversely, if X is cyclic then every N_y is a polynomial in X, so
       the N_y commute and the ring is associative.  Proof: let the rows
       w_k = e_0 X^k (k < n) span Q^n.  If B commutes with X, write w_0 B
       = sum_k a_k w_k = w_0 q(X); then w_k B = w_0 B X^k = w_0 q(X) X^k
       = w_k q(X) for every k, so B = q(X).  The rows w_k are integer
       vectors; their n x n matrix is certified invertible by exact
       int64 elimination mod the prime ``_KRYLOV_PRIME``: a determinant
       that is nonzero mod p is nonzero over Q.

    When the certificate fails (no X is cyclic in a non-semisimple ring,
    and an unlucky c may miss in a semisimple one) or the bound of step 1
    does not hold, :func:`_check_associativity_by_rows` decides in
    O(n^5) flops.

    Raises
    ------
    MdkError
        Naming the first identity that fails, or that the coefficients
        are too large to check exactly (``n * max|N|^2 >= 2^63``).
    """
    n = N.shape[0]
    if not np.array_equal(N[0], np.eye(n, dtype=N.dtype)):
        raise MdkError("fusion ring violates the unit row N[0,j,k] = delta_jk")
    if not np.array_equal(N, N.transpose(1, 0, 2)):
        raise MdkError("fusion ring is not commutative in the lower indices")
    big = max(int(N.max()), -int(N.min()))
    if n * big ** 2 >= 2 ** 63:
        raise MdkError(
            f"fusion coefficients up to {big} at rank {n} are too large for an "
            f"exact associativity check (n * max|N|^2 >= 2^63)")
    M = N.astype(np.float64) if n * big ** 2 < 2 ** 53 else N
    if n * n * 2 ** 20 * big ** 2 < 2 ** 53 and _commutes_with_cyclic_element(M):
        return
    _check_associativity_by_rows(M)


# largest prime below 2^23: with n < 2^17, which the bound of step 1 in
# _check_ring implies, the Krylov products n * (p - 1)^2 stay in int64
_KRYLOV_PRIME = 8388593


def _splitmix64(i: int) -> int:
    """Output i of the splitmix64 generator started from state 0."""
    z = (i + 1) * 0x9E3779B97F4A7C15 & 0xFFFFFFFFFFFFFFFF
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
    z = (z ^ z >> 27) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
    return z ^ z >> 31


def _commutes_with_cyclic_element(M: np.ndarray) -> bool:
    """Steps 1 and 2 of :func:`_check_ring` on a commutative float64 M.

    Raises on a mismatch in step 1; returns whether X was certified
    cyclic.
    """
    n = M.shape[0]
    c = np.array([(_splitmix64(i) >> 44) + 1 for i in range(n)], dtype=np.float64)
    rows = M.reshape(n, n * n)  # [j, (y, l)] = (N_y)_jl, by commutativity
    X = (c @ rows).reshape(n, n)
    left = (X @ rows).reshape(n, n, n)  # [j, y, l] = (X N_y)_jl
    right = (M.reshape(n * n, n) @ X).reshape(n, n, n)  # [y, j, l] = (N_y X)_jl
    if not np.array_equal(left, right.transpose(1, 0, 2)):
        raise MdkError("fusion ring violates associativity")
    del left, right
    p = _KRYLOV_PRIME
    Xp = X.astype(np.int64) % p
    K = np.zeros((n, n), dtype=np.int64)  # row k: e_0 X^k mod p
    K[0, 0] = 1
    for k in range(1, n):
        K[k] = K[k - 1] @ Xp % p
    for col in range(n):  # Gaussian elimination mod p
        nonzero = np.flatnonzero(K[col:, col])
        if nonzero.size == 0:
            return False
        r = col + int(nonzero[0])
        if r != col:
            K[[col, r]] = K[[r, col]]
        K[col, col:] = K[col, col:] * pow(int(K[col, col]), -1, p) % p
        K[col + 1:, col:] = (K[col + 1:, col:]
                             - K[col + 1:, col, None] * K[col, col:]) % p
    return True


def _check_associativity_by_rows(M: np.ndarray) -> None:
    """Associativity of a commutative M, compared one object at a time.

    For each i, the identity is two matrix products, for k >= i only:
    once commutativity holds, the identity for (i, j, k) is the one for
    (k, j, i) with its sides swapped.  M is float64 when ``n * max|N|^2 <
    2**53``: every partial sum is then an integer float64 holds exactly,
    so the comparison stays exact.  Otherwise it is the int64 tensor,
    exact while ``n * max|N|^2 < 2**63``.
    """
    n = M.shape[0]
    rows = M.reshape(n, n * n)
    for i in range(n):
        left = (M[i] @ rows[:, i * n:]).reshape(n, n - i, n)  # [j, k, l]
        # N_jk^m = N_kj^m, so the rows for k >= i are the slice M[i:]
        right = (M[i:].reshape(-1, n) @ M[i]).reshape(n - i, n, n)
        if not np.array_equal(left, right.transpose(1, 0, 2)):
            raise MdkError("fusion ring violates associativity")


def gauss_sum(md: ModularData, sign: int = +1) -> complex:
    """Gauss sum tau_+- = sum_i d_i^2 theta_i^{+-1}.

    ``sign`` selects the exponent of the twists; its modulus equals
    sqrt(dim C) for valid data.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    md.require_valid()
    T = md.T if sign == +1 else np.conj(md.T)
    return complex((md.dims ** 2 * T).sum())


def central_charge(md: ModularData) -> Fraction:
    """Central charge c in [0, 8) from tau_+ / |tau_+| = e^{2 pi i c/8}.

    Returned as an exact rational with denominator at most 240, verified
    to reproduce the Gauss-sum phase within eps.

    Raises
    ------
    NonRationalChargeError
        If no rational of bounded denominator matches the phase.
    """
    tau = gauss_sum(md, +1)
    raw = (cmath.phase(tau) / (2 * math.pi) * 8) % 8.0
    num, den = _best_rational(raw, CHARGE_DENOMINATOR_CAP)
    num %= 8 * den
    phase = unit_root(num, 8 * den)
    if abs(phase - tau / abs(tau)) > md.eps:
        raise NonRationalChargeError(
            f"no rational c with denominator <= {CHARGE_DENOMINATOR_CAP} matches "
            f"the Gauss-sum phase (raw angle {raw:.12g} in units of c)")
    return Fraction(num, den)


def deligne_product(a: ModularData, b: ModularData) -> ModularData:
    """Kronecker product of modular data (the product of categories).

    Labels are "left⊗right" pairs in row-major index order, so the unit
    (0, 0) lands at index 0.  Both factors must pass their gate; the
    product then inherits it (``require_valid`` returns at once), so
    screens that read only dimensions and twists never form its S.
    """
    a.require_valid()
    b.require_valid()
    return _DeligneProduct(a, b)


class _DeligneProduct(ModularData):
    """A Deligne product whose S and labels are formed on first use.

    Algebra screens and Witt invariants on a product read only its
    dimensions and twists, so the (rank_a rank_b)^2 S matrix is never
    built for them.  Once formed, S equals the eager ``np.kron(a.S,
    b.S)`` bit for bit, and so do the dimensions, taken from the
    Kronecker product of the factors' first rows.
    """

    _inherits_gate = True

    def __init__(self, a: ModularData, b: ModularData):
        T = np.kron(a.T, b.T)
        T.setflags(write=False)
        self._factors = (a, b)
        self.T = T
        self.rank = a.rank * b.rank
        self.eps = max(a.eps, b.eps)
        self._report = None

    @functools.cached_property
    def labels(self) -> tuple[str, ...]:
        a, b = self._factors
        return tuple(f"{la}⊗{lb}" for la in a.labels for lb in b.labels)

    @functools.cached_property
    def S(self) -> np.ndarray:
        check_bytes(16 * self.rank ** 2, f"product S at rank {self.rank}")
        a, b = self._factors
        S = np.kron(a.S, b.S)
        S.setflags(write=False)
        return S

    @functools.cached_property
    def dims(self) -> np.ndarray:
        a, b = self._factors
        row = np.kron(a.S[0], b.S[0])
        dims = (row / row[0]).real
        dims.setflags(write=False)
        return dims


def reverse(md: ModularData) -> ModularData:
    """Reverse (mirror) data: complex conjugate of S and T.

    Applying it twice restores the original arrays bit for bit.  ``md``
    must pass its gate, and the mirror inherits it: ``require_valid`` on
    the result returns at once.
    """
    md.require_valid()
    rev = ModularData(np.conj(md.S), np.conj(md.T), labels=md.labels, eps=md.eps)
    rev._inherits_gate = True
    return rev


def charge_conjugation(md: ModularData) -> list[int]:
    """The permutation C with S^2 = C; an involution fixing 0.

    Raises
    ------
    MdkError
        If S^2 is not within eps of a permutation matrix.
    """
    md.require_valid()
    perm = permutation_from_matrix(md.S @ md.S, md.eps)
    if perm is None:
        raise MdkError("S^2 is not a permutation matrix within eps")
    return perm
