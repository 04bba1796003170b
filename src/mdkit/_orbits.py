"""The large-box invariant search: S/T automorphisms, a settling-order
basis and lex-leader orbit pruning.

When the search box of ``invariants.enumerate_invariants`` passes
``invariants._LARGE_BOX``, the commutant is re-parametrised over
pivots picked in settling order, the S/T automorphisms of both sides
act on the solutions, the walk keeps only the least solution of each
orbit (lex-leader constraints; Crawford, Ginsberg, Luks and Roy, KR
1996), and the survivors are closed under the same automorphisms.  The
module is loaded only then.
"""

from __future__ import annotations

import itertools

import numpy as np

from .constructors import _relabelings
from .errors import IncompleteEnumerationError
from .invariants import CommutantBasis
from .modular_data import ModularData
from .numeric import _mix, rationalize

# Multiply-adds that the exact checks of the automorphisms of one search
# may take, about 0.15 s with one BLAS thread on x86-64; all those of
# double:D4 (24 a side) or of the rank-32 product take about 2 % of it.
_CHECK_WORK = 4 * 10 ** 9


def settling_basis(cb: CommutantBasis, bounds: np.ndarray):
    """The commutant in reduced-echelon form over pivots picked in
    settling order, as (numerators, denominator, pivots), or None.

    Entry (0, 0) is picked first.  Then, while the rows that vanish on
    the picked entries span a space W, the next pivot is an entry of the
    largest class of entries whose columns over W are parallel: fixing
    it settles the whole class.  Ties go to the smaller box, then the
    larger column weight in ``cb.coords``, then the earlier position.
    The basis over those pivots is solved in floats and rationalized as
    ``commutant_basis`` does, then checked exactly to span the rows of
    ``cb.coords``: an integer product in float64, whose sums stay below
    2^53.  None when that fails or could not be exact, or when the
    search would overflow int64.
    """
    m = cb.dimension
    W = cb.coords / cb.denominator
    weight = np.count_nonzero(cb.coords, axis=0)
    mixer = _mix(np.arange(m, dtype=np.uint64)).view(np.int64)
    pivots = [0]
    while len(pivots) < m:
        c = pivots[-1]
        r = np.abs(W[:, c]).argmax()
        W = np.delete(W - np.outer(W[:, c] / W[r, c], W[r]), r, axis=0)
        W[:, c] = 0
        size = np.abs(W).max(axis=0)
        live = np.flatnonzero(size > 1e-9)
        if not live.size:
            return None
        cols = W[:, live]
        # scale each column by its first entry that is not (near) zero,
        # and key its direction by a hash of the rounded entries
        lead = (np.abs(cols) > 1e-9 * size[live]).argmax(axis=0)
        cols = np.rint(cols / cols[lead, np.arange(len(live))] * 2 ** 20)
        key = cols.astype(np.int64).T @ mixer[:len(W)]
        _, group, count = np.unique(key, return_inverse=True,
                                    return_counts=True)
        pivots.append(int(live[np.lexsort((live, -weight[live], bounds[live],
                                           -count[group]))[0]]))
    M = cb.coords[:, pivots]
    exact = rationalize(np.linalg.solve(M.astype(float), cb.coords),
                        max_den=10 ** 6, tol=1e-7)
    if exact is None:
        return None
    B, den = exact
    widest, wide = int(np.abs(cb.coords).max()), int(np.abs(B).max())
    if (m * widest * wide >= 2 ** 53 or den * widest >= 2 ** 53
            or wide * int(bounds.sum()) >= 2 ** 62
            or (B[:, pivots] != den * np.eye(m, dtype=np.int64)).any()
            or (M.astype(float) @ B != den * cb.coords).any()):
        return None
    return B, den, pivots


def symmetries(cb: CommutantBasis, bounds: np.ndarray, left: ModularData,
               right: ModularData) -> list[np.ndarray]:
    """Index arrays g, one per S/T automorphism of either side but the
    identity, such that x -> x[g] maps the search's solution set onto
    itself.

    An automorphism pi of ``right`` sends Z to Z' with Z'[pi(j), i] =
    Z[j, i], one of ``left`` sends it to Z'[j, pi(i)] = Z[j, i], and
    either keeps Z S_L = S_R Z and Z T_L = T_R Z.  The automorphisms are
    read from the relabeling matcher's walk; when that passes its cap,
    those found so far are used.  Each is kept only if it maps the
    positions, the entry bounds and the rational row space of
    ``cb.coords`` onto themselves, checked exactly (integer products in
    float64, whose sums stay below 2^53).  One check is an (m, m) by
    (m, P) product, and no more automorphisms are read than checks of
    ``_CHECK_WORK`` multiply-adds in all allow.
    """
    def automorphisms(md, most):
        found = []  # the identity comes first
        try:
            for pi in itertools.islice(_relabelings(md, md), most + 1):
                found.append(np.array(pi))
        except IncompleteEnumerationError:
            pass
        return found

    js, is_ = np.array(cb.positions).T
    at = np.full((right.rank, left.rank), -1)
    at[js, is_] = np.arange(len(js))
    m, P = cb.coords.shape
    den, widest = cb.denominator, int(np.abs(cb.coords).max())
    most = _CHECK_WORK // (2 * m * m * P)  # a side
    if m * widest * widest >= 2 ** 53 or den * widest >= 2 ** 53 or not most:
        return []
    coords = cb.coords.astype(float)
    on_left = automorphisms(left, most)
    on_right = on_left if right is left else automorphisms(right, most)
    images = []
    for target in ([at[js, pi[is_]] for pi in on_left]
                   + [at[pi[js], is_] for pi in on_right]):
        # target[p]: where entry p goes
        if ((target == np.arange(P)).all() or target[0] != 0
                or (target < 0).any()):
            continue
        g = np.argsort(target)
        image = coords[:, g]
        if ((bounds[g] == bounds).all()
                and (den * image == image[:, list(cb.pivots)] @ coords).all()):
            images.append(g)
    return images


def closure(reps: np.ndarray, images: list) -> np.ndarray:
    """Every vector x[g1][g2]... reached from the rows of ``reps``, each
    once: the orbits of the reps under the group the images generate."""
    seen = {x.tobytes() for x in reps}
    out, new = [reps], reps
    while images and len(new):
        fresh = []
        for x in np.concatenate([new[:, g] for g in images]):
            if x.tobytes() not in seen:
                seen.add(x.tobytes())
                fresh.append(x)
        new = np.array(fresh, reps.dtype).reshape(-1, reps.shape[1])
        out.append(new)
    return np.concatenate(out)


def lex_checks(last: np.ndarray, by_last: np.ndarray, images: list,
               m: int) -> list:
    """Per depth t of the walk, None, or (columns, a, b) for the images
    whose known prefix grew at t.

    Entries are ordered by the depth at which they settle (``by_last``).
    At depth t, the prefix known for a vector x and its image x[g] is the
    longest one whose entries p and g[p] all have ``last <= t``.  Row k
    of ``a`` is the stretch that the prefix of the k-th such image gained
    at t, and ``b = g[a]``, both padded by (0, 0) pairs, which never
    differ; ``columns`` are those images' flag columns, which follow the
    P entries.
    """
    P = len(last)
    grown = np.array([np.searchsorted(np.maximum.accumulate(
        np.maximum(last[by_last], last[g[by_last]])), np.arange(m),
        side="right") for g in images])
    start = np.hstack([np.zeros((len(images), 1), np.intp), grown[:, :-1]])
    checks = [None] * m
    for t in range(m):
        new = np.flatnonzero(grown[:, t] > start[:, t])
        if new.size:
            a = np.zeros((new.size, (grown[new, t] - start[new, t]).max()),
                         np.intp)
            b = a.copy()
            for row, e in enumerate(new.tolist()):
                stretch = by_last[start[e, t]:grown[e, t]]
                a[row, :stretch.size] = stretch
                b[row, :stretch.size] = images[e][stretch]
            checks[t] = (P + new, a, b)
    return checks
