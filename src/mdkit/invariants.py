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
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

import numpy as np

from .errors import MdkError, SearchBudgetError, _Budget
from .modular_data import ModularData, _intertwines
from .numeric import INTEGER_EPS, check_bytes, rationalize, rref

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
    """A verified nonnegative-integer intertwiner with Z_{00} = 1.

    ``verified_pair`` is the (left, right) pair of data sets that
    ``enumerate_invariants`` verified Z against, and None on an invariant
    built by hand; it is no constructor argument and takes no part in
    equality or repr.  Neither does ``_found``: on a search result, the
    call's shared :class:`_Found` and the row of Z in its stack.
    """

    left_rank: int
    right_rank: int
    Z: np.ndarray
    kind: str
    verified_pair: tuple | None = field(default=None, init=False,
                                        compare=False, repr=False)
    _found: tuple | None = field(default=None, init=False,
                                 compare=False, repr=False)

    def __post_init__(self):
        self.Z.setflags(write=False)


@dataclass(eq=False)
class _Found:
    """The invariants of one ``enumerate_invariants`` call.

    ``Z`` is their read-only (k, right_rank, left_rank) stack in the
    returned order; ``screens`` maps a ``lenient`` flag to the algebra
    screens of the whole stack, filled by ``algebra_from_invariant`` on
    first use.
    """

    Z: np.ndarray
    screens: dict = field(default_factory=dict)


# Coordinate values enumerate_invariants tries before it raises, and
# nodes the block-decomposition (Gram) search of classify_invariant
# visits before the invariant falls through to "other".
_NODE_CAP = 10 ** 8
_GRAM_NODE_CAP = 100_000

# Entries of one trial array of the invariant search (64 KB of int64):
# the walk expands blocks of sibling nodes of about this size at once.
_BLOCK_ENTRIES = 8192
# Matrix entries of the found invariants checked against S and T in one
# batched product (about 1 MB per complex temporary).
_VERIFY_ENTRIES = 1 << 16


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
    isolated from 1 (see the module docstring).

    The eigensolve runs on charge-conjugation orbits.  S^2 = C, so every
    Z of the commutant satisfies Z C_L = C_R Z: it is constant on the
    orbits of the involution (j, i) -> (C_R j, C_L i) of the positions
    (C keeps theta).  The map Z -> S_R^H Z S_L commutes with it, so A
    maps the span of the orbit sums into itself, and the eigensolve
    restricted to that span is exact.  As S C = S^-1 = conj(S), A[p, q]
    equals A[p, q'] for the partner q' of q, so A compressed to the
    normalized orbit sums is A on one position per orbit, scaled by
    sqrt(|orbit| |orbit'|).  Where C = 1 every orbit is one position.
    The commutant is read off that one eigensolve, at eigenvalues within
    1e-8 of 1, spread back over both positions of each orbit,
    canonicalized by reduced row echelon form and written as int64
    numerators over one common denominator, each distinct value
    approximated with denominator up to 10^6.  Every rationalized row is
    then checked against the full relation Z S_L = S_R Z (real and
    imaginary parts within 1e-6); if one fails, the float basis is kept
    and ``rationalized`` is False.  Raises MdkError when the estimated
    memory of the eigensolve is past ``numeric._BYTES_CAP``.
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
    # each position's partner under C; none (-1) when T, within tol, tells
    # the two apart, and then the commutant vanishes at the position
    at = np.full((rR, rL), -1)
    at[js, is_] = np.arange(P)
    partner = at[right._charge[js], left._charge[is_]]
    reps = np.flatnonzero(partner >= np.arange(P))
    Q = len(reps)
    # A, one gathered factor, and eigh's copy, workspace and eigenvectors,
    # then at most Q basis rows over the P positions
    check_bytes(40 * Q * Q + 8 * Q * P,
                f"commutant eigensolve over {Q} orbits")
    SL, SR = left.S, right.S
    jo, io = js[reps], is_[reps]
    # rows, then columns: much faster than one two-axis gather
    A = SR.real[jo][:, jo] * SL.real[io][:, io]
    A += SR.imag[jo][:, jo] * SL.imag[io][:, io]
    root = np.where(partner[reps] == reps, 1.0, math.sqrt(2.0))
    A *= root
    A *= root[:, None]
    w, vecs = np.linalg.eigh(A)
    orbit = vecs[:, np.abs(w - 1) <= 1e-8].T
    del A, vecs  # the Q x Q arrays are not needed past here
    orbit /= root
    null = np.zeros((orbit.shape[0], P))
    null[:, partner[reps]] = orbit
    null[:, reps] = orbit
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


def _kinds(Zs: np.ndarray) -> list[str]:
    """The tag of each matrix of a (k, rR, rL) stack, in one pass: the
    diagonal, permutation and symmetry tests on the whole stack, then
    the Gram search only where a block form is still possible."""
    k, rR, rL = Zs.shape
    if rR != rL:
        return ["other"] * k
    diagonal = (Zs == np.eye(rR, dtype=np.int64)).all(axis=(1, 2))
    permutation = (((Zs >= 0) & (Zs <= 1)).all(axis=(1, 2))
                   & (Zs.sum(axis=1) == 1).all(axis=1)
                   & (Zs.sum(axis=2) == 1).all(axis=1))
    symmetric = ((Zs == Zs.transpose(0, 2, 1)).all(axis=(1, 2))
                 & (Zs[:, 0, 0] == 1) & (rL <= 12))
    return ["diagonal" if d else "permutation" if p
            else "block" if s and _is_gram(Z) else "other"
            for d, p, s, Z in zip(diagonal.tolist(), permutation.tolist(),
                                  symmetric.tolist(), Zs)]


def _classify(Z: np.ndarray) -> str:
    return _kinds(Z[None])[0]


def classify_invariant(z: ModularInvariant) -> str:
    """Classification tag: diagonal, permutation, block, or other.

    Block means Z = C^T C for some nonnegative-integer C whose first
    column is a unit vector; the decomposition search runs for ranks up
    to 12, larger matrices fall through to "other", and so does a matrix
    whose search runs past its node cap.  Raises MdkError unless Z is a
    matrix of nonnegative integer values.
    """
    Z = np.asarray(z.Z)
    if (Z.ndim != 2 or Z.dtype.kind not in "iuf" or not np.isfinite(Z).all()
            or (Z < 0).any() or (Z != np.round(Z)).any()):
        raise MdkError("Z must be a matrix of nonnegative integer values")
    return _classify(Z)


def _coordinate_search(DB, scale, slack, boxes, caps):
    """Integer points of {sum_k c_k DB[k] / scale} with every entry in range.

    DB is the (m, P) basis, scaled by ``scale`` and in reduced-echelon
    form, so coordinate c_k is the entry at the k-th pivot and ranges
    over 0..boxes[k] (c_0 is fixed to 1).  After c_0, coordinates are
    assigned greedily, first the one that settles the most entries.  The
    walk is depth-first over blocks of sibling partial entry vectors: a
    block of r vectors at depth t spends r * (boxes[t] + 1) values of the
    budget, forms every v * DB[t] extension of each vector in one
    broadcast, and keeps an extension only if every entry can still land
    in [0, caps] given the boxes of the unassigned coordinates, and every
    entry the assignment settles is a multiple of ``scale`` (within
    ``slack``).  Survivors go back on the stack in blocks of about
    _BLOCK_ENTRIES entries per trial array, first block on top.  Returns
    the surviving entry vectors, unscaled, as a (k, P) array in
    depth-first order.
    """
    m, P = DB.shape
    nonzero = DB != 0
    boxes = np.asarray(boxes)
    order = _greedy_order(nonzero, boxes.tolist())
    # an entry is settled by the last coordinate in the order that touches it
    rank = np.empty(m, np.intp)
    rank[order] = np.arange(m)
    last = np.where(nonzero, rank[:, None], -1).max(axis=0)
    by_last = np.argsort(last, kind="stable")
    cuts = np.searchsorted(last[by_last], np.arange(m + 1)).tolist()
    settled = [by_last[a:b] for a, b in zip(cuts, cuts[1:])]
    DB = DB[order]
    boxes = boxes[order, None]
    hi = np.zeros((m + 1, P), DB.dtype)
    lo = np.zeros((m + 1, P), DB.dtype)
    hi[:m] = np.cumsum((np.maximum(DB, 0) * boxes)[::-1], axis=0)[::-1]
    lo[:m] = np.cumsum((np.minimum(DB, 0) * boxes)[::-1], axis=0)[::-1]
    vals = [np.arange(1, 2)] + [np.arange(b + 1) for b in boxes[1:, 0]]
    rows = [max(1, _BLOCK_ENTRIES // (P * v.size)) for v in vals]
    # the stack holds, per depth, the survivors of one block of its parent
    # depth: at most that block's trials, and at most one block's worth
    # (_BLOCK_ENTRIES, or one row's P * (box + 1)) of entries
    need, width = 0, 1
    for v, r in zip(vals, rows):
        need += min(r, width) * v.size * P
        width *= v.size
    check_bytes(need * DB.itemsize,
                f"invariant search stack over {m} coordinates")
    found = [np.zeros((0, P), DB.dtype)]
    budget = _Budget("invariant search", _NODE_CAP)
    stack = [(0, np.zeros((1, P), DB.dtype))]
    while stack:
        t, block = stack.pop()
        budget.spend(len(block) * vals[t].size)
        trial = (block[:, None, :]
                 + vals[t][:, None] * DB[t]).reshape(-1, P)
        ok = ((trial + hi[t + 1] >= -slack)
              & (trial + lo[t + 1] <= caps + slack)).all(axis=1)
        if settled[t].size:
            rem = trial[:, settled[t]] % scale
            ok &= (np.minimum(rem, scale - rem) <= slack).all(axis=1)
        keep = trial[ok]
        if t + 1 == m:
            found.append(keep // scale if slack == 0 else np.rint(keep))
            continue
        r = rows[t + 1]
        stack.extend((t + 1, keep[i:i + r])
                     for i in reversed(range(0, len(keep), r)))
    return np.concatenate(found)


def _greedy_order(nonzero: np.ndarray, boxes: list[int]) -> list[int]:
    """Coordinate 0, then repeatedly the first of the rest that settles
    the most entries (touched by no other unassigned coordinate), then
    the one with the smallest box.

    Row supports are Python-int bitsets, and the number of unassigned
    rows touching each entry is a bit-sliced counter (``planes[l]`` holds
    bit l of every entry's count), so a step is a few integer operations
    per row, not a numpy call.
    """
    m = len(nonzero)
    packed = np.packbits(nonzero, axis=1, bitorder="little").tobytes()
    w = len(packed) // m
    rows = [int.from_bytes(packed[r * w:(r + 1) * w], "little")
            for r in range(m)]
    planes = [0] * m.bit_length()
    for bits in rows:  # add each row to the counter
        for level, plane in enumerate(planes):
            planes[level], bits = plane ^ bits, plane & bits
    top = max(boxes) + 1
    order, rest, k = [], list(range(1, m)), 0
    while True:
        order.append(k)
        bits = rows[k]
        for level, plane in enumerate(planes):  # take row k off the counter
            planes[level], bits = plane ^ bits, ~plane & bits
        if not rest:
            return order
        many = 0
        for plane in planes[1:]:
            many |= plane
        once = planes[0] & ~many
        k = max(rest, key=lambda r: (rows[r] & once).bit_count() * top
                - boxes[r])
        rest.remove(k)


def enumerate_invariants(left: ModularData, right: ModularData | None = None
                         ) -> list[ModularInvariant]:
    """All modular invariants between two data sets, canonically sorted.

    Depth-first search over the m pivot coordinates of the reduced-echelon
    commutant basis.  Each pivot coordinate of a solution equals the
    matrix entry at its pivot position, so it ranges over
    0..floor(d^L_i d^R_j + 1e-6), and the first pivot must be entry (0, 0)
    with coordinate 1.  The walk expands a block of sibling partial entry
    vectors at a time: every value of the next coordinate is added to
    every vector of the block in one broadcast, and a branch is cut as
    soon as some entry can no longer reach [0, floor(d^L_i d^R_j)] within
    the boxes of the unassigned coordinates, or an entry no unassigned
    coordinate touches is not an integer.  A rationalized basis is
    searched exactly, as an int64 matrix scaled by the common denominator
    of its entries; a float basis (rationalization failed, or the scaled
    search could overflow int64) is searched with 1e-6 integrality and
    bound slack.  The results are verified against S and T in batched
    products before they are returned, and each remembers the pair it
    was verified against.  Trying more than _NODE_CAP (10^8) coordinate
    values raises IncompleteEnumerationError rather than returning a
    partial list; the block that passes the cap is counted whole, so the
    error's ``nodes`` may exceed the cap by up to one block.  The
    search's block stack is sized before the walk, and MdkError is raised
    when it would pass ``numeric._BYTES_CAP``.

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
    bounds = np.floor(left.dims[is_] * right.dims[js] + INTEGER_EPS).astype(np.int64)
    boxes = bounds[list(cb.pivots)]
    widest = int(np.abs(cb.coords).max())
    if cb.rationalized and widest * int(bounds.sum()) < 2 ** 62:
        DB, scale, slack = cb.coords, cb.denominator, 0
        caps = scale * bounds
    else:
        DB, scale, slack = cb.coords / cb.denominator, 1.0, INTEGER_EPS
        caps = bounds.astype(float)
    found = _coordinate_search(DB, scale, slack, boxes, caps)

    Zs = np.zeros((len(found), right.rank, left.rank), dtype=np.int64)
    Zs[:, js, is_] = found
    Zs.setflags(write=False)
    step = max(1, _VERIFY_ENTRIES // (right.rank * left.rank))
    for start in range(0, len(Zs), step):
        ok, s_res, t_res = _intertwines(Zs[start:start + step], left, right)
        if not ok.all():
            i = ok.argmin()
            raise MdkError(
                f"enumeration produced a non-verifying candidate "
                f"(S residual {s_res[i]:.3g}, T residual {t_res[i]:.3g})")

    flat = Zs.reshape(len(Zs), -1)
    keys = list(zip(flat.sum(axis=1).tolist(), map(tuple, flat.tolist())))
    Zs = Zs[sorted(range(len(Zs)), key=keys.__getitem__)]
    Zs.setflags(write=False)
    found = _Found(Zs)
    invs = [ModularInvariant(left.rank, right.rank, Z, kind)
            for Z, kind in zip(Zs, _kinds(Zs))]
    for k, z in enumerate(invs):
        object.__setattr__(z, "verified_pair", (left, right))
        object.__setattr__(z, "_found", (found, k))
    return invs
