"""Modular invariants: commutant bases and integer-matrix enumeration.

A modular invariant between two modular data sets is a nonnegative-integer
matrix Z with Z_{00} = 1 satisfying Z S_L = S_R Z and Z T_L = T_R Z (Z has
shape right_rank x left_rank).  The solver first computes the linear
commutant.  S_R is unitary, so Z S_L = S_R Z exactly when Z is a fixed
point of the unitary map Z -> S_R^H Z S_L.  On the real matrices
supported where T allows, that map compresses to a real symmetric matrix
A of norm at most 1, and an eigenvector of A at eigenvalue 1 is a true
fixed point: the eigenvalue-1 space of A is the commutant.  Every other
eigenvalue lies strictly below 1, and in practice far below (1 minus it
was at least 0.55 on every data set measured, up to rank 99), so one
symmetric eigensolve separates the commutant cleanly.  Its basis is then
put in reduced row-echelon form.  Each pivot coordinate of a point in
the commutant equals the matrix entry at its pivot position, so the
integer points are enumerated by a depth-first search over the pivot
coordinates alone, each bounded by floor(d^L_i d^R_j), with interval
pruning on every other entry.  The search is exact (integer arithmetic
over a common denominator) whenever the basis rationalizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .errors import MdkError, SearchBudgetError, _Budget
from .modular_data import ModularData
from .numeric import check_bytes, rationalize, rref

__all__ = [
    "CommutantBasis", "ModularInvariant", "commutant_basis",
    "enumerate_invariants", "classify_invariant",
]


@dataclass(frozen=True)
class CommutantBasis:
    """Basis of {M : M S_L = S_R M, M T_L = T_R M} over the rationals.

    Attributes
    ----------
    left_rank, right_rank : int
    positions : tuple of (int, int)
        Row-major (j, i) entry positions not forced to zero by the
        T-relation; every basis matrix is supported here.
    coords : ndarray, shape (dimension, len(positions))
        Reduced row-echelon coefficient rows over ``positions``: int64
        numerators over ``denominator`` when ``rationalized``, else floats
        over 1.  Row k holds ``denominator`` at index ``pivots[k]``.
    rationalized : bool
        False when continued-fraction reconstruction failed (or would not
        fit int64) and the floating-point basis is kept instead.
    """

    left_rank: int
    right_rank: int
    positions: tuple[tuple[int, int], ...]
    coords: np.ndarray
    denominator: int
    pivots: tuple[int, ...]
    rationalized: bool

    def __post_init__(self):
        self.coords.setflags(write=False)

    @property
    def dimension(self) -> int:
        """Number of basis elements."""
        return self.coords.shape[0]

    @cached_property
    def basis(self) -> tuple:
        """Basis matrices of shape (right_rank, left_rank), in echelon order.

        Nested tuples of `Fraction` when ``rationalized``, else read-only
        float ndarrays; built from ``coords`` on first access.
        """
        if not self.rationalized:
            out = self.as_float()
            out.setflags(write=False)
            return tuple(out)
        values, index = np.unique(self.coords, return_inverse=True)
        fracs = np.array([Fraction(v, self.denominator) for v in values.tolist()],
                         dtype=object)
        grid = self._grid(fracs[index.reshape(self.coords.shape)], Fraction(0))
        return tuple(tuple(map(tuple, mat)) for mat in grid.tolist())

    def as_float(self) -> np.ndarray:
        """Basis stacked as a float array of shape (dimension, rR, rL)."""
        return self._grid(self.coords / self.denominator, 0.0)

    def _grid(self, rows: np.ndarray, fill) -> np.ndarray:
        out = np.full((self.dimension, self.right_rank, self.left_rank), fill,
                      dtype=rows.dtype)
        js, is_ = np.array(self.positions).T
        out[:, js, is_] = rows
        return out


@dataclass(frozen=True)
class ModularInvariant:
    """A verified nonnegative-integer intertwiner with Z_{00} = 1."""

    left_rank: int
    right_rank: int
    Z: np.ndarray
    kind: str

    def __post_init__(self):
        self.Z.setflags(write=False)


# Coordinate values enumerate_invariants tries before it raises, and
# nodes the block-decomposition (Gram) search of classify_invariant
# visits before the invariant falls through to "other".
_NODE_CAP = 10 ** 8
_GRAM_NODE_CAP = 100_000


def commutant_basis(left: ModularData,
                    right: ModularData | None = None) -> CommutantBasis:
    """Solve the linear intertwiner equations.

    The T-relation zeroes every entry (j, i) with theta^L_i != theta^R_j,
    so only the P surviving positions enter the S-relation.  S_R is
    unitary, so Z S_L = S_R Z holds exactly when Z is a fixed point of the
    unitary map Z -> S_R^H Z S_L.  For real Z on the P positions, and with
    S_L, S_R symmetric, that map compresses to the real symmetric P x P
    matrix A[p, p'] = Re(conj(S_R[j, j']) S_L[i, i']).  A compression of a
    unitary map has norm <= 1, so a unit eigenvector of A at eigenvalue 1
    loses no norm under the map and is a true fixed point: the commutant
    is exactly the eigenvalue-1 space of A.  The rest of the spectrum is
    isolated from 1 (see the module docstring).  The space is read off
    one symmetric eigensolve, at eigenvalues within 1e-8 of 1, canonicalized
    by reduced row echelon form and written as int64 numerators over one
    common denominator, each distinct value approximated with denominator
    up to 10^6.  Every rationalized row is then checked against the full
    relation Z S_L = S_R Z (real and imaginary parts within 1e-6); if one
    fails, the float basis is kept and ``rationalized`` is False.  Raises
    MdkError when the estimated memory of the eigensolve is past
    ``numeric._BYTES_CAP``.
    """
    if right is None:
        right = left
    left.require_valid()
    right.require_valid()
    tol = max(left.eps, right.eps)
    rL, rR = left.rank, right.rank

    js, is_ = np.nonzero(np.abs(right.T[:, None] - left.T[None, :]) < tol)
    positions = tuple(zip(js.tolist(), is_.tolist()))
    P = len(positions)
    # A, one gathered factor, and eigh's copy, workspace and eigenvectors
    check_bytes(40 * P * P, f"commutant eigensolve over {P} positions")
    SL, SR = left.S, right.S
    jj, ii = np.ix_(js, js), np.ix_(is_, is_)
    A = SR.real[jj] * SL.real[ii]
    A += SR.imag[jj] * SL.imag[ii]
    w, vecs = np.linalg.eigh(A)
    null = vecs[:, np.abs(w - 1) <= 1e-8].T
    m = null.shape[0]
    if m == 0:
        return CommutantBasis(rL, rR, positions,
                              np.zeros((0, P), np.int64), 1, (), True)
    R, pivots = rref(null, tol=1e-10)
    if R.shape[0] != m:
        raise MdkError("null-space basis lost rank during canonicalization")
    exact = rationalize(R, max_den=10 ** 6, tol=1e-7)
    if exact is not None:
        B = np.zeros((m, rR, rL))
        B[:, js, is_] = exact[0] / exact[1]
        if max(np.abs(B @ SL.real - SR.real @ B).max(),
               np.abs(B @ SL.imag - SR.imag @ B).max()) <= 1e-6:
            return CommutantBasis(rL, rR, positions, *exact, tuple(pivots),
                                  True)
    return CommutantBasis(rL, rR, positions, R, 1, tuple(pivots), False)


def _partitions_into_squares(r: int, mx: int):
    """Nonincreasing positive integer tuples with sum of squares r."""
    if r == 0:
        yield ()
        return
    top = min(mx, math.isqrt(r))
    for y in range(top, 0, -1):
        for rest in _partitions_into_squares(r - y * y, y):
            yield (y,) + rest


def _is_gram(Z: np.ndarray) -> bool:
    """Whether Z = C^T C for a nonnegative-integer C found within budget.

    Builds Gram vectors column by column; coordinates introduced by each
    new vector are kept nonincreasing so each Gram matrix is produced in
    one canonical coordinate order only.
    """
    n = Z.shape[0]
    vecs: list[tuple[int, ...]] = []
    budget = _Budget("Gram search", _GRAM_NODE_CAP)

    def place(i: int) -> bool:
        if i == n:
            return True
        used = len(vecs[-1]) if vecs else 0
        targets = [int(Z[i, j]) for j in range(i)]
        x = [0] * used

        def choose(t: int, norm_left: int, partial: list[int]) -> bool:
            budget.spend()
            if t == used:
                if any(partial[j] != targets[j] for j in range(i)):
                    return False
                for tail in _partitions_into_squares(norm_left, norm_left or 1):
                    vecs.append(tuple(x) + tail)
                    if place(i + 1):
                        return True
                    vecs.pop()
                return False
            hi = math.isqrt(norm_left)
            for v in range(hi + 1):
                ok = True
                new = partial[:]
                for j in range(i):
                    cj = vecs[j][t] if t < len(vecs[j]) else 0
                    new[j] = partial[j] + v * cj
                    if new[j] > targets[j]:
                        ok = False
                        break
                    if t + 1 >= len(vecs[j]) and new[j] != targets[j]:
                        ok = False
                        break
                if not ok:
                    continue
                x[t] = v
                if choose(t + 1, norm_left - v * v, new):
                    return True
            x[t] = 0
            return False

        return choose(0, int(Z[i, i]), [0] * i)

    try:
        return place(0)
    except SearchBudgetError:
        return False


def _classify(Z: np.ndarray) -> str:
    rR, rL = Z.shape
    if rR == rL:
        if (Z == np.eye(rR, dtype=np.int64)).all():
            return "diagonal"
        if ((Z >= 0).all() and (Z <= 1).all()
                and (Z.sum(axis=0) == 1).all() and (Z.sum(axis=1) == 1).all()):
            return "permutation"
        if rL <= 12 and (Z == Z.T).all() and Z[0, 0] == 1 and _is_gram(Z):
            return "block"
    return "other"


def classify_invariant(z: ModularInvariant) -> str:
    """Classification tag: diagonal, permutation, block, or other.

    Block means Z = C^T C for some nonnegative-integer C whose first
    column is a unit vector; the decomposition search runs for ranks up
    to 12, larger matrices fall through to "other", and so does a matrix
    whose search runs past its node cap.
    """
    return _classify(np.asarray(z.Z))


def _coordinate_search(DB, scale, slack, boxes, caps):
    """Integer points of {sum_k c_k DB[k] / scale} with every entry in range.

    DB is the (m, P) basis, scaled by ``scale`` and in reduced-echelon
    form, so coordinate c_k is the entry at the k-th pivot and ranges
    over 0..boxes[k] (c_0 is fixed to 1).  After c_0, coordinates are
    assigned greedily, first the one that settles the most entries.  Each
    expansion adds v * DB[k] to the running entry vector for every
    candidate v at once and keeps v only if every entry can still land
    in [0, caps] given the boxes of the unassigned coordinates, and every
    entry the assignment settles is a multiple of ``scale`` (within
    ``slack``).  Returns the surviving entry vectors, unscaled.
    """
    m, P = DB.shape
    nonzero = DB != 0
    unset = nonzero.sum(axis=0)
    order, settled, rest = [], [], list(range(1, m))
    k = 0
    while True:
        settled.append(np.flatnonzero(nonzero[k] & (unset == 1)))
        order.append(k)
        unset = unset - nonzero[k]
        if not rest:
            break
        k = max(rest, key=lambda r: (
            np.count_nonzero(nonzero[r] & (unset == 1)), -boxes[r]))
        rest.remove(k)
    DB = DB[order]
    boxes = np.asarray(boxes)[order, None]
    hi = np.zeros((m + 1, P), DB.dtype)
    lo = np.zeros((m + 1, P), DB.dtype)
    hi[:m] = np.cumsum((np.maximum(DB, 0) * boxes)[::-1], axis=0)[::-1]
    lo[:m] = np.cumsum((np.minimum(DB, 0) * boxes)[::-1], axis=0)[::-1]
    found = []
    budget = _Budget("invariant search", _NODE_CAP)

    def expand(t, acc):
        vals = np.arange(1, 2) if t == 0 else np.arange(boxes[t, 0] + 1)
        budget.spend(vals.size)
        trial = acc + vals[:, None] * DB[t]
        ok = ((trial + hi[t + 1] >= -slack)
              & (trial + lo[t + 1] <= caps + slack)).all(axis=1)
        if settled[t].size:
            rem = trial[:, settled[t]] % scale
            ok &= (np.minimum(rem, scale - rem) <= slack).all(axis=1)
        for row in trial[ok]:
            if t + 1 == m:
                found.append(row // scale if slack == 0 else np.rint(row))
            else:
                expand(t + 1, row)

    expand(0, np.zeros(P, DB.dtype))
    return found


def _intertwines(Z: np.ndarray, left: ModularData, right: ModularData):
    """(ok, S residual, T residual) of Z as an intertwiner of the pair."""
    s_res = np.abs(Z @ left.S - right.S @ Z).max()
    t_res = np.abs(Z * left.T[None, :] - right.T[:, None] * Z).max()
    return max(s_res, t_res) <= max(left.eps, right.eps, 1e-9), s_res, t_res


def enumerate_invariants(left: ModularData, right: ModularData | None = None
                         ) -> list[ModularInvariant]:
    """All modular invariants between two data sets, canonically sorted.

    Depth-first search over the m pivot coordinates of the reduced-echelon
    commutant basis.  Each pivot coordinate of a solution equals the
    matrix entry at its pivot position, so it ranges over
    0..floor(d^L_i d^R_j + 1e-6), and the first pivot must be entry (0, 0)
    with coordinate 1.  Each assignment costs one axpy on the running
    entry vector; a branch is cut as soon as some entry can no longer
    reach [0, floor(d^L_i d^R_j)] within the boxes of the unassigned
    coordinates, or an entry no unassigned coordinate touches is not an
    integer.  A rationalized basis is searched exactly, as an int64
    matrix scaled by the common denominator of its entries; a float
    basis (rationalization failed, or the scaled search could overflow
    int64) is searched with 1e-6 integrality and bound slack.  Every
    result is verified against S and T before it is returned.  Trying
    more than _NODE_CAP (10^8) coordinate values raises
    IncompleteEnumerationError rather than returning a partial list.

    Returns
    -------
    list of ModularInvariant
        Sorted by total entry sum, then row-major lexicographic order.
    """
    if right is None:
        right = left
    return _invariants_in(commutant_basis(left, right), left, right)


def _invariants_in(cb: CommutantBasis, left: ModularData,
                   right: ModularData) -> list[ModularInvariant]:
    if cb.dimension == 0 or cb.positions[cb.pivots[0]] != (0, 0):
        return []  # every element of the commutant has Z_00 = 0
    js, is_ = np.array(cb.positions).T
    bounds = np.floor(left.dims[is_] * right.dims[js] + 1e-6).astype(np.int64)
    boxes = bounds[list(cb.pivots)]
    widest = int(np.abs(cb.coords).max())
    if cb.rationalized and widest * int(bounds.sum()) < 2 ** 62:
        DB, scale, slack = cb.coords, cb.denominator, 0
        caps = scale * bounds
    else:
        DB, scale, slack = cb.coords / cb.denominator, 1.0, 1e-6
        caps = bounds.astype(float)
    found = _coordinate_search(DB, scale, slack, boxes, caps)

    results = []
    for vec in found:
        Z = np.zeros((right.rank, left.rank), dtype=np.int64)
        Z[js, is_] = vec
        ok, s_res, t_res = _intertwines(Z, left, right)
        if not ok:
            raise MdkError(
                f"enumeration produced a non-verifying candidate "
                f"(S residual {s_res:.3g}, T residual {t_res:.3g})")
        results.append(Z)

    results.sort(key=lambda Z: (int(Z.sum()), tuple(Z.flatten().tolist())))
    return [ModularInvariant(left.rank, right.rank, Z, _classify(Z))
            for Z in results]
