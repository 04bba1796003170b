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
                      _best_rational, _mix, _phase_root, permutation_from_matrix,
                      permutation_with_residual, unit_root)

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
    Instances are immutable (read-only arrays; assigning an attribute
    raises AttributeError), so one object can be shared freely, across
    threads too.  :func:`validate` records its report on the object.
    """

    # _inherits_gate: see require_valid; _report: recorded by validate
    _inherits_gate = False
    _report: ValidationReport | None = None

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
        eps = default_eps() if eps is None else checked_eps(eps)
        vars(self).update(S=S, T=T, rank=rank, labels=labels, eps=eps)

    def __setattr__(self, name, value):
        raise AttributeError(f"ModularData is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"ModularData is immutable: cannot delete {name!r}")

    @functools.cached_property
    def _row0(self) -> np.ndarray:
        """Row 0 of S; products and mirrors form it without forming S."""
        return self.S[0]

    @functools.cached_property
    def _charge(self) -> np.ndarray | None:
        """Charge conjugation C = S^2 as an index array, None when S^2 is
        no permutation within eps; :func:`validate` records it, and
        products and mirrors form it from their inputs' without S."""
        return _perm_array(permutation_from_matrix(self.S @ self.S, self.eps))

    @functools.cached_property
    def dims(self) -> np.ndarray:
        """Quantum dimensions d_i = S_{0i}/S_{00} (real parts).

        Computed once per object and returned read-only, like S and T.
        """
        dims = (self._row0 / self._row0[0]).real
        dims.setflags(write=False)
        return dims

    @functools.cached_property
    def global_dim(self) -> float:
        """dim C = sum of d_i^2, computed once per object."""
        return float((self.dims ** 2).sum())

    def validation(self) -> ValidationReport:
        """The report :func:`validate` recorded here, run now if there is none."""
        return validate(self) if self._report is None else self._report

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
    MdkError before S is read.  The report is recorded on ``md``, and so
    is the permutation S^2 = C, which the invariant solver reads.
    """
    n = md.rank
    # S, S^2, (S diag(T))^3, phase S^2 and their difference (st_cubed)
    check_bytes(80 * n ** 2, f"validation at rank {n}")
    S, T, eps = md.S, md.T, md.eps
    checks = []

    gram = S @ S.conj().T
    gram.flat[::n + 1] -= 1  # S S^H - 1 with no identity matrix formed
    r = np.abs(gram).max()
    del gram
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
        r = float(abs(S[0, 0] - 1 / math.sqrt(md.global_dim)))
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
    perm, r = permutation_with_residual(S2, eps)
    checks.append(Check("s2_permutation", perm is not None, r))

    dims = md.dims if positive else np.ones(n)
    tau = complex((dims ** 2 * T).sum())
    if abs(tau) > 0:
        phase = tau / abs(tau)
        r = float(np.abs(np.linalg.matrix_power(S @ np.diag(T), 3) - phase * S2).max())
    else:
        r = math.inf
    checks.append(Check("st_cubed", r < eps, r))

    vars(md)["_charge"] = _perm_array(perm)
    report = vars(md)["_report"] = ValidationReport(tuple(checks))
    return report


def _perm_array(perm) -> np.ndarray | None:
    """A permutation as a read-only index array; None stays None."""
    if perm is None:
        return None
    out = np.array(perm, dtype=np.intp)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class FusionRing:
    """Nonnegative-integer fusion coefficients N_{ij}^k with dimensions.

    Invariants (verified at construction time by :func:`verlinde_fusion`):
    unit row ``N[0, j, k] = delta_{jk}``, commutativity in the lower
    indices, exact associativity on the integer tensor, and the dimension
    identity ``sum_k N[i, j, k] d_k = d_i d_j`` within eps.  The
    associativity check tests one cyclic element against every N_i in
    O(n^4) flops, a block of N_i at a time, so N is its only n^3 array
    (see :func:`_check_ring`).
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
    nonnegative integer.  The sum is the complex matrix product of shape
    (n^2, n) x (n, n), formed a block of rows i at a time (about
    ``_BLOCK_ENTRIES`` coefficients, see :func:`_verlinde_blocks`); each
    block is rounded, checked and written into the int64 N, and the ring
    axioms are then checked exactly on N (see :func:`_check_ring`).  Cost:
    O(n^4) flops, almost all in BLAS, and a peak of about 16 n^3 bytes (N
    and the float64 copy the O(n^5) fallback below takes), checked before
    anything is allocated; on the certified path N is the only n^3 array.
    The associativity check is certified by one cyclic element; a ring
    where that certificate fails (only by an unlucky choice of
    coefficients or prime, since Verlinde rings are semisimple) falls back
    to an O(n^5) comparison.

    Raises
    ------
    NonIntegralError
        If some coefficient is not integral (carries the first worst
        (i, j, k) in C order and its residual), or, once all are, if one
        rounds to a negative value.
    MdkError
        If the rounded tensor violates a fusion-ring identity, or if the
        estimated memory is past ``numeric._BYTES_CAP``.
    """
    md.require_valid()
    n = md.rank
    # N, the fallback's float64 copy of it, and blocks of O(n^2) bytes
    check_bytes(16 * n ** 3, f"Verlinde fusion at rank {n}")
    dims = md.dims
    N = np.empty((n, n, n), dtype=np.int64)
    worst, where, value = -1.0, None, None  # first worst residual, C order
    dim_residual = 0.0
    for rows, raw in _verlinde_blocks(md.S):
        rounded = np.round(raw.real)
        residual = np.abs(raw - rounded)
        at = int(residual.argmax())
        if residual.flat[at] > worst:
            worst, value = float(residual.flat[at]), raw.flat[at]
            where = tuple(int(x) for x in
                          np.unravel_index(rows.start * n * n + at, (n, n, n)))
        if worst <= INTEGER_EPS:  # otherwise this call raises below
            N[rows] = rounded
            # on the float64 block, which holds the integers of N exactly
            dim_residual = max(dim_residual, float(np.abs(
                rounded @ dims - np.outer(dims[rows], dims)).max()))
    if worst > INTEGER_EPS:
        i, j, k = where
        raise NonIntegralError(
            f"Verlinde coefficient N[{i},{j},{k}] = {value:.9g} is not "
            f"integral within {INTEGER_EPS:g}", where=where, residual=worst)
    if N.min() < 0:
        i, j, k = (int(x) for x in np.unravel_index(int(N.argmin()), N.shape))
        raise NonIntegralError(
            f"Verlinde coefficient N[{i},{j},{k}] rounds to {N[i, j, k]:g} < 0",
            where=(i, j, k), residual=float(N[i, j, k]))

    _check_ring(N)
    if dim_residual > max(md.eps, 1e-12 * md.global_dim * n):
        raise MdkError(
            f"fusion dimensions inconsistent (residual {dim_residual:.3g})")
    N.setflags(write=False)
    return FusionRing(rank=n, N=N, dims=dims, global_dim=md.global_dim)


# entries of one block: the Verlinde sum and the ring check form their
# temporaries a block of about this many coefficients at a time
_BLOCK_ENTRIES = 2 ** 14


def _row_blocks(n: int) -> list[slice]:
    """Slices of the first axis of an (n, n, n) tensor, in order, each of
    about ``_BLOCK_ENTRIES`` entries and at least one row."""
    step = max(1, _BLOCK_ENTRIES // (n * n))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def _verlinde_blocks(S: np.ndarray):
    """Yield (rows, raw): the complex Verlinde sums ``raw[i - rows.start,
    j, k]`` for the rows i of each of :func:`_row_blocks`.

    Each block goes through the same operations as the one product
    ``((S[:, None] * S[None]) / S[0]).reshape(n * n, n) @ S^H``, on a
    slice of its rows, and so is that product's entries bit for bit.
    """
    n = len(S)
    S_H = S.conj().T
    for rows in _row_blocks(n):
        raw = ((S[rows, None, :] * S[None, :, :]) / S[0]).reshape(-1, n) @ S_H
        yield rows, raw.reshape(-1, n, n)


def _check_ring(N: np.ndarray) -> None:
    """Check the unit row, commutativity and associativity of an integer N.

    Write N_y for the matrix ``N[y]`` (rows j, columns l).  Once the
    lower indices commute, associativity, sum_m N_ij^m N_mk^l = sum_m
    N_jk^m N_im^l, says exactly N_i N_k = N_k N_i for all i, k.  That is
    checked in O(n^4) flops by one element, X = sum_i c_i N_i, with fixed
    coefficients c_i in [1, 2^20] taken from a splitmix64 hash of i:

    1. If the N_y commute, so does X with each of them.  X N_y = N_y X
       is therefore checked for every y, as float64 products of float64
       copies of a block of N_y at a time (:func:`_row_blocks`), and a
       mismatch proves that associativity fails.  All sums stay below
       ``n^2 * 2^20 * max|N|^2 < 2^53``, so float64 holds them exactly,
       in any order.
    2. Conversely, if X is cyclic then every N_y is a polynomial in X, so
       the N_y commute and the ring is associative.  Proof: let the rows
       w_k = e_0 X^k (k < n) span Q^n.  If B commutes with X, write w_0 B
       = sum_k a_k w_k = w_0 q(X); then w_k B = w_0 B X^k = w_0 q(X) X^k
       = w_k q(X) for every k, so B = q(X).  The rows w_k are integer
       vectors; their n x n matrix is certified invertible by exact
       int64 elimination mod the prime ``_KRYLOV_PRIME``: a determinant
       that is nonzero mod p is nonzero over Q.

    Commutativity is compared a block at a time too, so a certified ring
    forms no n^3 array besides N.  When the certificate fails (no X is
    cyclic in a non-semisimple ring, and an unlucky c may miss in a
    semisimple one) or the bound of step 1 does not hold,
    :func:`_check_associativity_by_rows` decides in O(n^5) flops, on a
    float64 copy of N when that is exact.

    Raises
    ------
    MdkError
        Naming the first identity that fails, or that the coefficients
        are too large to check exactly (``n * max|N|^2 >= 2^63``).
    """
    n = N.shape[0]
    if not np.array_equal(N[0], np.eye(n, dtype=N.dtype)):
        raise MdkError("fusion ring violates the unit row N[0,j,k] = delta_jk")
    if not all(np.array_equal(N[b], N[:, b].transpose(1, 0, 2))
               for b in _row_blocks(n)):
        raise MdkError("fusion ring is not commutative in the lower indices")
    big = max(int(N.max()), -int(N.min()))
    if n * big ** 2 >= 2 ** 63:
        raise MdkError(
            f"fusion coefficients up to {big} at rank {n} are too large for an "
            f"exact associativity check (n * max|N|^2 >= 2^63)")
    if n * n * 2 ** 20 * big ** 2 < 2 ** 53 and _commutes_with_cyclic_element(N):
        return
    _check_associativity_by_rows(N.astype(np.float64) if n * big ** 2 < 2 ** 53
                                 else N)


# largest prime below 2^23: with n < 2^17, which the bound of step 1 in
# _check_ring implies, the Krylov products n * (p - 1)^2 stay in int64
_KRYLOV_PRIME = 8388593


def _commutes_with_cyclic_element(N: np.ndarray) -> bool:
    """Steps 1 and 2 of :func:`_check_ring` on a commutative integer N.

    Raises on a mismatch in step 1; returns whether X was certified
    cyclic.
    """
    n = N.shape[0]
    # outputs 0..n-1 of the splitmix64 generator started from state 0
    z = _mix(np.arange(n, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15))
    c = ((z >> np.uint64(44)) + np.uint64(1)).astype(np.float64)
    blocks = _row_blocks(n)
    X = np.zeros((n, n))
    for b in blocks:
        X += np.tensordot(c[b], N[b].astype(np.float64), axes=1)
    for b in blocks:
        Nb = N[b].astype(np.float64)
        # [y, j, l]: (X N_y)_jl against (N_y X)_jl
        if not np.array_equal(X @ Nb, Nb @ X):
            raise MdkError("fusion ring violates associativity")
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
    built for them, nor the S of a mirror factor: row 0 of S is the
    Kronecker product of the factors' rows 0.  T and that row, 32 bytes
    per object, are checked against ``numeric._BYTES_CAP`` first.  S,
    once formed, equals ``np.kron(a.S, b.S)`` bit for bit.  Each lazy
    attribute is formed on the products and mirrors below first (see
    :func:`_form_inputs_first`), so no nesting depth is too deep for it.
    """

    _inherits_gate = True

    def __init__(self, a: ModularData, b: ModularData):
        rank = a.rank * b.rank
        check_bytes(32 * rank, f"product at rank {rank}")
        T = np.outer(a.T, b.T).ravel()
        T.setflags(write=False)
        vars(self).update(_factors=(a, b), T=T, rank=rank, eps=max(a.eps, b.eps))

    @functools.cached_property
    def labels(self) -> tuple[str, ...]:
        _form_inputs_first(self, "labels")
        a, b = self._factors
        return tuple(f"{la}⊗{lb}" for la in a.labels for lb in b.labels)

    @functools.cached_property
    def S(self) -> np.ndarray:
        check_bytes(16 * self.rank ** 2, f"product S at rank {self.rank}")
        _form_inputs_first(self, "S")
        a, b = self._factors
        S = np.kron(a.S, b.S)
        S.setflags(write=False)
        return S

    @functools.cached_property
    def _row0(self) -> np.ndarray:
        _form_inputs_first(self, "_row0")
        a, b = self._factors
        return np.outer(a._row0, b._row0).ravel()

    @functools.cached_property
    def _charge(self) -> np.ndarray:
        _form_inputs_first(self, "_charge")
        a, b = self._factors
        return _perm_array((a._charge[:, None] * b.rank + b._charge).ravel())


def _form_inputs_first(md: ModularData, name: str) -> None:
    """Form the lazy attribute ``name`` on every product and mirror that
    ``md`` is built from, each after its own inputs.

    The tree is walked with an explicit stack, each shared node once, so
    that forming ``name`` on ``md`` then reads only formed attributes of
    its inputs, however deeply products and mirrors nest.
    """
    order, seen = [], set()
    stack = [(x, False) for x in _inputs(md)]
    while stack:
        node, expanded = stack.pop()  # expanded: its inputs are in order
        if expanded:
            order.append(node)
        elif _inputs(node) and name not in vars(node) and id(node) not in seen:
            seen.add(id(node))
            stack += [(node, True)] + [(x, False) for x in _inputs(node)]
    for node in order:
        getattr(node, name)


def _inputs(md: ModularData) -> tuple[ModularData, ...]:
    """The data a product or mirror is built from; none for other data."""
    if isinstance(md, _DeligneProduct):
        return md._factors
    return (md._inner,) if isinstance(md, _Reverse) else ()


def reverse(md: ModularData) -> ModularData:
    """Reverse (mirror) data: complex conjugate of S and T.

    Applying it twice returns the original object, whose arrays are
    those of the double conjugate bit for bit, so mirrors never nest.
    ``md`` must pass its gate, and the mirror inherits it:
    ``require_valid`` on the result returns at once.
    """
    md.require_valid()
    return md._inner if isinstance(md, _Reverse) else _Reverse(md)


class _Reverse(ModularData):
    """The mirror of gated data, whose S is conjugated on first use.

    Row 0 of its S is the conjugate of the original's, formed without
    either S, so a mirror, alone or as a product factor, answers screens
    that read only dimensions and twists without forming S.  The
    conjugate S is taken of the original's S, never rebuilt from factors:
    that keeps its signed zeros, and so the bytes of every serialization.
    """

    _inherits_gate = True

    def __init__(self, md: ModularData):
        T = np.conj(md.T)
        T.setflags(write=False)
        vars(self).update(_inner=md, T=T, rank=md.rank, labels=md.labels,
                          eps=md.eps)

    @functools.cached_property
    def S(self) -> np.ndarray:
        S = np.conj(self._inner.S)
        S.setflags(write=False)
        return S

    @functools.cached_property
    def _row0(self) -> np.ndarray:
        return np.conj(self._inner._row0)

    @functools.cached_property
    def _charge(self) -> np.ndarray:
        return self._inner._charge  # conj(S)^2 = conj(C) = C


def charge_conjugation(md: ModularData) -> list[int]:
    """The permutation C with S^2 = C; an involution fixing 0.

    Read off the record :func:`validate` keeps; a product or mirror
    forms it from its inputs'.

    Raises
    ------
    ValidationFailedError
        If the data fails validation (S^2 off a permutation matrix
        included).
    """
    return md.require_valid()._charge.tolist()


def _intertwines(Z: np.ndarray, left: ModularData, right: ModularData):
    """(ok, S residual, T residual) of Z as an intertwiner of the pair;
    of each matrix, as arrays, when Z is a stack of matrices.  The
    invariant search verifies its results with it, and
    `algebras.algebra_from_invariant` checks a hand-built Z."""
    Z = Z.astype(complex)  # once, not once per product
    s_res = np.abs(Z @ left.S - right.S @ Z).max(axis=(-2, -1))
    t_res = np.abs(Z * left.T - right.T[:, None] * Z).max(axis=(-2, -1))
    ok = np.maximum(s_res, t_res) <= max(left.eps, right.eps, 1e-9)
    return ok, s_res, t_res
