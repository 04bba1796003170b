"""Finite groups from Cayley tables, with classes and character tables.

Groups are plain multiplication tables over {0..n-1} with 0 the identity;
conjugacy classes, centralizers, and complex character tables are derived
on demand.  Character tables are computed numerically from the class
algebra (simultaneous eigenvectors of the class-multiplication matrices),
which is adequate and simple at the supported scale (order <= 200).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegeneracyResolutionError, MdkError, NotAGroupError,
                     UnknownPresetError)
from .numeric import nearest_int

__all__ = [
    "FiniteGroup", "Subgroup", "CharacterTable", "group_from_table",
    "group_preset", "cyclic", "direct_product", "centralizer",
    "character_table", "GROUP_PRESETS",
]


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group presented by its Cayley table.

    Fields are fully derived and verified by :func:`group_from_table`;
    do not construct directly unless the table is known to be a group.

    Attributes
    ----------
    order : int
    table : (order, order) ndarray of int
        ``table[a, b]`` is the product ab; element 0 is the identity.
    classes : tuple of tuple of int
        Conjugacy classes, sorted by least element; class 0 is {0}.
    inverses : tuple of int
    class_of : tuple of int
        Class index of each element.
    """
    order: int
    table: np.ndarray = field(repr=False)
    classes: tuple[tuple[int, ...], ...] = field(repr=False)
    inverses: tuple[int, ...] = field(repr=False)
    class_of: tuple[int, ...] = field(repr=False)

    @property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])


def group_from_table(table) -> FiniteGroup:
    """Verify the group axioms exhaustively and derive class data.

    Raises
    ------
    NotAGroupError
        Naming the first violated axiom and a witness element or triple.
    """
    try:
        t = np.asarray(table)
    except ValueError:
        raise NotAGroupError("table rows differ in length", axiom="closure") from None
    if t.ndim != 2 or t.shape[0] != t.shape[1] or t.dtype.kind not in "iu":
        raise NotAGroupError(f"table must be a square integer array, got "
                             f"shape {t.shape} of {t.dtype}", axiom="closure")
    t = t.astype(np.int64)
    n = t.shape[0]
    if n < 1:
        raise NotAGroupError("empty table", axiom="closure")
    if t.min() < 0 or t.max() >= n:
        bad = np.argwhere((t < 0) | (t >= n))[0]
        raise NotAGroupError(
            f"entry at {tuple(int(x) for x in bad)} is outside 0..{n - 1}",
            axiom="closure", witness=tuple(int(x) for x in bad))
    idx = np.arange(n)
    if not (np.array_equal(t[0], idx) and np.array_equal(t[:, 0], idx)):
        bad = int(np.argmax((t[0] != idx) | (t[:, 0] != idx)))
        raise NotAGroupError(f"element 0 is not a two-sided identity (seen at {bad})",
                             axiom="identity", witness=bad)
    # associativity: (ab)c == a(bc), one row a at a time, O(n^2) memory
    for a in range(n):
        left, right = t[t[a]], t[a][t]  # [b, c]
        if not np.array_equal(left, right):
            b, c = (int(x) for x in np.argwhere(left != right)[0])
            raise NotAGroupError(f"associativity fails at ({a}, {b}, {c})",
                                 axiom="associativity", witness=(a, b, c))
    is_unit = t == 0
    inv = is_unit.argmax(axis=1)
    bad = (is_unit.sum(axis=1) != 1) | (t[inv, idx] != 0)
    if bad.any():
        a = int(bad.argmax())
        raise NotAGroupError(f"element {a} has no two-sided inverse",
                             axiom="inverse", witness=a)

    seen = np.zeros(n, dtype=bool)
    classes = []
    for a in range(n):
        if seen[a]:
            continue
        orbit = np.flatnonzero(np.bincount(t[t[idx, a], inv[idx]], minlength=n))
        seen[orbit] = True
        classes.append(tuple(int(x) for x in orbit))
    classes.sort(key=lambda c: c[0])
    class_of = np.empty(n, dtype=np.int64)
    for ci, members in enumerate(classes):
        class_of[list(members)] = ci
    for members in classes:
        if n % len(members) != 0:
            raise MdkError(f"class size {len(members)} does not divide order {n}")

    t.setflags(write=False)
    return FiniteGroup(order=n, table=t, classes=tuple(classes),
                       inverses=tuple(int(x) for x in inv),
                       class_of=tuple(int(x) for x in class_of))


def cyclic(n: int) -> FiniteGroup:
    """Z_n with addition mod n."""
    if n < 1:
        raise MdkError("cyclic group order must be >= 1")
    idx = np.arange(n)
    return group_from_table((idx[:, None] + idx[None, :]) % n)


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """A x B with row-major element indexing (x, y) -> x*|B| + y."""
    nb = b.order
    ta, tb = a.table, b.table
    table = (ta[:, None, :, None] * nb + tb[None, :, None, :])
    n = a.order * nb
    return group_from_table(table.reshape(a.order, nb, n).reshape(n, n))


def _cayley(elements, mul) -> FiniteGroup:
    """The group that mul makes of elements, numbered in the order given."""
    index = {e: i for i, e in enumerate(elements)}
    return group_from_table([[index[mul(a, b)] for b in elements]
                             for a in elements])


def _hamilton(p, q):
    """The product of two quaternions given as (1, i, j, k) coordinates."""
    a, b, c, d = p
    e, f, g, h = q
    return (a * e - b * f - c * g - d * h, a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f, a * h + b * g - c * f + d * e)


# Each preset group, by its exact name.  S3 is the sorted permutations of
# (0, 1, 2); D4 numbers r^i s^j as i + 4j, with s r s = r^-1; Q8 is
# ordered 1, -1, i, -i, j, -j, k, -k.
_GROUP_BUILDERS = {
    **{f"Z_{n}": functools.partial(cyclic, n) for n in range(1, 13)},
    "S3": lambda: _cayley(sorted(itertools.permutations(range(3))),
                          lambda p, q: tuple(p[x] for x in q)),
    "D4": lambda: _cayley([(i, j) for j in range(2) for i in range(4)],
                          lambda a, b: ((a[0] + (-1) ** a[1] * b[0]) % 4,
                                        (a[1] + b[1]) % 2)),
    "Q8": lambda: _cayley([tuple(s * x for x in e)
                           for e in np.eye(4, dtype=int).tolist()
                           for s in (1, -1)], _hamilton),
}

GROUP_PRESETS = tuple(_GROUP_BUILDERS)


def group_preset(name: str) -> FiniteGroup:
    """Named small groups: Z_1..Z_12, S3, D4, Q8, matched exactly, so
    "Z_05" names none (UnknownPresetError)."""
    try:
        build = _GROUP_BUILDERS[name]
    except KeyError:
        raise UnknownPresetError(
            f"unknown group preset {name!r}; available: {', '.join(GROUP_PRESETS)}",
            available=GROUP_PRESETS) from None
    return build()


@dataclass(frozen=True)
class Subgroup:
    """A subgroup re-indexed as a group of its own, with the embedding."""
    group: FiniteGroup
    embed: tuple[int, ...]  # subgroup element -> parent element


def centralizer(g: FiniteGroup, a: int) -> Subgroup:
    """The centralizer {x : xa = ax} of element a, as a Subgroup."""
    if not 0 <= a < g.order:
        raise MdkError(f"element {a} out of range for order {g.order}")
    members = np.flatnonzero(g.table[:, a] == g.table[a, :])
    index = np.full(g.order, -1)
    index[members] = np.arange(len(members))
    sub = group_from_table(index[g.table[np.ix_(members, members)]])
    cls_size = len(g.classes[g.class_of[a]])
    if cls_size * len(members) != g.order:
        raise MdkError("orbit-stabilizer identity violated (corrupt table?)")
    return Subgroup(group=sub, embed=tuple(int(x) for x in members))


@dataclass(frozen=True)
class CharacterTable:
    """Complex irreducible characters, one row per character.

    Row 0 is the trivial character; rows are sorted by (degree, then
    descending lexicographic on rounded values) so the order is
    deterministic.  ``values[i, c]`` is the character value on class c.
    """
    values: np.ndarray = field(repr=False)
    class_sizes: tuple[int, ...]
    degrees: tuple[int, ...]


def _class_matrices(g: FiniteGroup) -> np.ndarray:
    """a[r, s, t] = #{(x, y) in cls_r x cls_s : xy = rep_t}."""
    k = len(g.classes)
    reps = [c[0] for c in g.classes]
    rep_of = -np.ones(g.order, dtype=np.int64)
    for t, rep in enumerate(reps):
        rep_of[rep] = t
    a = np.zeros((k, k, k), dtype=np.int64)
    class_of = np.array(g.class_of)
    for r, members in enumerate(g.classes):
        prod = g.table[list(members), :]        # (|cls_r|, n)
        hits = rep_of[prod]                      # rep index or -1
        mask = hits >= 0
        ys = np.broadcast_to(np.arange(g.order), prod.shape)[mask]
        np.add.at(a[r], (class_of[ys], hits[mask]), 1)
    return a


def character_table(g: FiniteGroup) -> CharacterTable:
    """Character table via simultaneous class-matrix eigenvectors.

    A linear combination of the class-multiplication matrices is
    diagonalized; its eigenbasis simultaneously diagonalizes every class
    matrix when the combination separates the characters.  The
    coefficients are fixed pseudo-random normal draws: attempt j takes
    draws [j k, (j + 1) k) of ``numpy.random.default_rng(0).normal()``
    for k classes, read from a table of the first 4 000 (``_normals``,
    loaded on first use), so no ``numpy.random`` import is needed.
    Degenerate combinations are retried with the next draws, up to 20
    attempts.

    Raises
    ------
    DegeneracyResolutionError
        If no attempt separates the characters.
    MdkError
        If the order exceeds the supported cap (200).
    """
    if g.order > 200:
        raise MdkError(f"character table supports order <= 200, got {g.order}")
    k = len(g.classes)
    sizes = np.array([len(c) for c in g.classes], dtype=float)
    mats = _class_matrices(g).astype(float)

    from ._normals import DRAWS
    draws = np.frombuffer(DRAWS, dtype="<f8")
    last_error = "no attempt made"
    for attempt in range(20):
        combo = np.tensordot(draws[attempt * k:(attempt + 1) * k], mats, axes=1)
        eigvals, vecs = np.linalg.eig(combo)
        scale = max(1.0, float(np.abs(eigvals).max()))
        gaps = np.abs(eigvals[:, None] - eigvals[None, :]) + np.eye(k) * scale
        if gaps.min() < 1e-6 * scale:
            last_error = "eigenvalues of the random combination collide"
            continue
        try:
            vinv = np.linalg.inv(vecs)
        except np.linalg.LinAlgError:
            last_error = "eigenbasis is singular"
            continue
        omegas = np.empty((k, k), dtype=complex)  # omegas[i, r]
        off = 0.0
        for r in range(k):
            d = vinv @ mats[r] @ vecs
            off = max(off, float(np.abs(d - np.diag(np.diagonal(d))).max()))
            omegas[:, r] = np.diagonal(d)
        if off > 1e-8 * max(1.0, float(np.abs(omegas).max())):
            last_error = f"class matrices not simultaneously diagonal (off {off:.2g})"
            continue

        degrees = np.sqrt(g.order / ((np.abs(omegas) ** 2 / sizes).sum(axis=1)))
        try:
            deg_int = [nearest_int(d, what="character degree") for d in degrees]
        except MdkError:
            last_error = "degrees did not round to integers"
            continue
        values = omegas * np.array(deg_int, dtype=float)[:, None] / sizes[None, :]
        # snap values that are Gaussian integers to machine precision, so
        # e.g. the trivial character is exactly 1
        snapped = np.round(values.real) + 1j * np.round(values.imag)
        near = np.abs(values - snapped) < 1e-8
        values[near] = snapped[near]

        order = sorted(range(k), key=lambda i: (
            deg_int[i],
            tuple((-round(values[i, c].real, 10), -round(values[i, c].imag, 10))
                  for c in range(k))))
        values = values[order]
        deg_int = [deg_int[i] for i in order]

        gram = (values * sizes[None, :]) @ values.conj().T / g.order
        if np.abs(gram - np.eye(k)).max() > 1e-8:
            last_error = "row orthogonality failed"
            continue
        if sum(d * d for d in deg_int) != g.order:
            last_error = "sum of squared degrees is off"
            continue
        values.setflags(write=False)
        return CharacterTable(values=values,
                              class_sizes=tuple(int(s) for s in sizes),
                              degrees=tuple(deg_int))
    raise DegeneracyResolutionError(
        f"could not separate characters after 20 attempts ({last_error})")
