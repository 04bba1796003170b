"""Constructors for the standard modular-data families.

Pointed categories from quadratic forms on finite abelian groups,
untwisted doubles of finite groups, twisted doubles of cyclic groups,
the SU(2) level-k series, half a dozen named presets, and the
relabeling matcher used to compare outputs of different constructors.
"""

from __future__ import annotations

import numpy as np

from .errors import (DegenerateFormError, DimensionMismatchError, MdkError,
                     UnknownPresetError, _Budget)
from .groups import (FiniteGroup, centralizer, character_table, cyclic,
                     group_from_table)
from .modular_data import ModularData
from .numeric import (TWIST_ORDER_CAP, _mix, _phase_root, checked_eps,
                      default_eps, unit_root)

__all__ = [
    "QuadraticForm", "pointed", "drinfeld_double", "twisted_double_cyclic",
    "su2_level", "preset", "PRESETS", "equivalent_up_to_relabeling",
]

# 30-digit reference constants, rounded to doubles on load
_SQRT_HALF = float("0.707106781186547524400844362105")
_COS_PI_8 = float("0.923879532511286756128183189397")
_SIN_PI_8 = float("0.382683432365089771728459984030")
_FIB_UNIT = float("0.525731112119133606025669084848")   # 1/sqrt(2+phi)
_FIB_TAU = float("0.850650808352039932181540497063")    # phi/sqrt(2+phi)
_COS_4PI_5 = float("-0.809016994374947424102293417183")
_SIN_4PI_5 = float("0.587785252292473129168705954639")

# The twisted-double orders n (twist index p in range(n)) and the SU(2)
# levels that are built; build specs are parsed against the same ranges.
_TDOUBLE_ORDERS = range(1, 13)
_SU2_LEVELS = range(1, 33)


class QuadraticForm:
    """A quadratic form q on a finite abelian group.

    Verifies at construction that the group is abelian, that q takes unit
    values with q(0) = 1, that q(-x) = q(x) and q(lambda x) = q(x)^{lambda^2},
    and that the polarization b(x, y) = q(x+y)/(q(x) q(y)) is nondegenerate
    (b/sqrt(|A|) unitary).

    Parameters
    ----------
    group : FiniteGroup
        Must be abelian.
    values : sequence of complex
        q(x) for each element x, in element order.
    eps : float, optional

    Raises
    ------
    MdkError
        If the group is not abelian or q fails a quadratic-form identity.
    DegenerateFormError
        If the polarization is degenerate.
    """

    def __init__(self, group: FiniteGroup, values, eps: float | None = None):
        self.eps = default_eps() if eps is None else checked_eps(eps)
        if not group.is_abelian:
            raise MdkError("quadratic forms require an abelian group")
        q = np.array(values, dtype=complex)
        if q.shape != (group.order,):
            raise DimensionMismatchError(
                f"form has {q.shape[0] if q.ndim == 1 else '?'} values "
                f"for group order {group.order}")
        if np.abs(np.abs(q) - 1).max() > self.eps:
            raise MdkError("quadratic form values must lie on the unit circle")
        if abs(q[0] - 1) > self.eps:
            raise MdkError(f"q(0) = {q[0]} must be 1")
        q[0] = 1.0 + 0.0j
        inv = np.array(group.inverses)
        if np.abs(q[inv] - q).max() > self.eps:
            worst = int(np.abs(q[inv] - q).argmax())
            raise MdkError(f"q(-x) != q(x) at element {worst}")
        # q(lambda x) = q(x)^{lambda^2}, checked for all scalars up to the
        # exponent of the group
        powers = np.arange(group.order)  # powers[x] tracks lambda*x
        lam = 1
        while True:
            lam += 1
            powers = group.table[powers, np.arange(group.order)]
            if np.abs(q[powers] - q ** (lam * lam)).max() > max(self.eps, 1e-7):
                worst = int(np.abs(q[powers] - q ** (lam * lam)).argmax())
                raise MdkError(
                    f"q({lam}*x) != q(x)^{lam * lam} at element {worst}")
            if (powers == np.arange(group.order)).all():
                break

        n = group.order
        table = group.table
        b = q[table] / (q[:, None] * q[None, :])
        gram = (b / np.sqrt(n)) @ (b / np.sqrt(n)).conj().T
        defect = np.abs(gram - np.eye(n)).max()
        if defect > max(self.eps, 1e-8):
            raise DegenerateFormError(
                f"polarization of the form is degenerate (unitarity defect "
                f"{defect:.3g})")
        self.group = group
        self.values = q
        self.bilinear = b
        q.setflags(write=False)
        b.setflags(write=False)


def pointed(group: FiniteGroup, q, labels=None, eps: float | None = None) -> ModularData:
    """Pointed modular data from a quadratic form.

    T_x = q(x) and S_{xy} = conj(b(x, y))/sqrt(|A|); the conjugate pairs
    the S matrix with T = q so the twist relation carries the Gauss-sum
    phase of q.  All quantum dimensions are 1 and the rank is |A|.
    """
    if not isinstance(q, QuadraticForm):
        q = QuadraticForm(group, q, eps=eps)
    n = group.order
    S = np.conj(q.bilinear) / np.sqrt(n)
    return ModularData(S, q.values, labels=labels,
                       eps=q.eps if eps is None else eps)


def drinfeld_double(G: FiniteGroup, *, eps: float | None = None) -> ModularData:
    """Untwisted double of a finite group.

    Simple objects are pairs (conjugacy class [a], irreducible character
    chi of the centralizer of a), labeled "([a],row)".  Twists chi(a)/chi(e)
    snap to the root of unity within 1e-8 that `validate` finds; S is

        S = 1/(|C(a)||C(b)|) * sum over x in G with a.(x b x^-1) commuting
            of conj(chi(x b x^-1)) * conj(rho(x^-1 a x)).

    The 1/(|C(a)||C(b)|) normalization makes S unitary with S_00 =
    1/|G|; the Gauss sum is |G| and the central charge 0.
    """
    if G.order > 200:
        raise MdkError(f"double supports |G| <= 200, got {G.order}")
    reps = [c[0] for c in G.classes]
    cents = [centralizer(G, a) for a in reps]
    charts = [character_table(c.group) for c in cents]
    # parent element -> its conjugacy class inside each centralizer
    sub_class = [np.full(G.order, -1) for _ in cents]
    for cls, c in zip(sub_class, cents):
        cls[list(c.embed)] = c.group.class_of

    labels: list[str] = []
    twists: list[complex] = []
    for ci, a in enumerate(reps):
        chart = charts[ci]
        a_cls = sub_class[ci][a]
        for row in range(chart.values.shape[0]):
            labels.append(f"([{a}],{row})")
            theta = complex(chart.values[row, a_cls]) / chart.degrees[row]
            # a is central in its centralizer, so it acts as a scalar on
            # each irreducible and theta is an exact ord(a)-th root of
            # unity; snap away the eigensolver noise
            hit = _phase_root(theta, TWIST_ORDER_CAP, 1e-8)
            twists.append(theta if hit is None else hit[2])
    rank = len(labels)

    S = np.zeros((rank, rank), dtype=complex)
    offsets = np.cumsum([0] + [chart.values.shape[0] for chart in charts])
    table = G.table
    xs = np.arange(G.order)
    inv = np.array(G.inverses)
    for ca, a in enumerate(reps):
        rows_a = np.conj(charts[ca].values)
        xax = table[table[inv, a], xs]  # x^-1 a x for every x
        for cb, b in enumerate(reps):
            rows_b = np.conj(charts[cb].values)
            xbx = table[table[xs, b], inv]  # x b x^-1 for every x
            keep = table[a, xbx] == table[xbx, a]
            cols_a = rows_a[:, sub_class[ca][xbx[keep]]].T
            cols_b = rows_b[:, sub_class[cb][xax[keep]]].T
            # an axis-0 sum adds in x order; a BLAS product would
            # change the last bits of S
            acc = np.sum(cols_a[:, :, None] * cols_b[:, None, :], axis=0,
                         initial=0)
            norm = cents[ca].group.order * cents[cb].group.order
            S[offsets[ca]:offsets[ca + 1], offsets[cb]:offsets[cb + 1]] = acc / norm

    return ModularData(S, twists, labels=labels, eps=eps)


def twisted_double_cyclic(n: int, p: int, eps: float | None = None) -> ModularData:
    """Twisted double of Z_n, indexed by p in H^3(Z_n, T) = Z_n.

    Realized as the pointed category of the quadratic form

        q_p(a, j) = exp(2 pi i (n a j + p a^2) / n^2)

    on the flux-charge group: elements (a, j) with a the flux and j the
    charge, where adding fluxes past n shifts the charge by 2p.  (On that
    extension q_p is a genuine quadratic form for every p; for p = 0 the
    group is the plain Z_n x Z_n and the data matches the untwisted
    double of Z_n up to relabeling.)  Rank n^2.
    """
    if n not in _TDOUBLE_ORDERS:
        raise MdkError(f"twisted double supports {_TDOUBLE_ORDERS[0]} <= n <= "
                       f"{_TDOUBLE_ORDERS[-1]}, got n={n}")
    if p not in range(n):
        raise MdkError(f"twist index must satisfy 0 <= p < n, got p={p}")
    size = n * n
    a1, j1, a2, j2 = np.ix_(*[np.arange(n)] * 4)
    a3, wrap = (a1 + a2) % n, (a1 + a2) // n
    j3 = (j1 + j2 + 2 * p * wrap) % n
    table = (a3 * n + j3).reshape(size, size)
    group = group_from_table(table)
    q = [unit_root(n * a * j + p * a * a, size) for a in range(n) for j in range(n)]
    labels = [f"({a},{j})" for a in range(n) for j in range(n)]
    return pointed(group, QuadraticForm(group, q, eps=eps), labels=labels, eps=eps)


def su2_level(k: int, eps: float | None = None) -> ModularData:
    """SU(2) level-k data: rank k+1, labeled by the spin index a = 0..k.

    S_{ab} = sqrt(2/(k+2)) sin(pi (a+1)(b+1)/(k+2)),
    theta_a = e^{2 pi i a(a+2)/(4(k+2))}; central charge 3k/(k+2) mod 8.
    """
    if k not in _SU2_LEVELS:
        raise MdkError(f"su2 level must satisfy {_SU2_LEVELS[0]} <= k <= "
                       f"{_SU2_LEVELS[-1]}, got {k}")
    a = np.arange(k + 1)
    S = np.sqrt(2.0 / (k + 2)) * np.sin(
        np.pi * np.outer(a + 1, a + 1) / (k + 2)).astype(complex)
    T = [unit_root(x * (x + 2), 4 * (k + 2)) for x in range(k + 1)]
    return ModularData(S, T, labels=[str(x) for x in a], eps=eps)


# S, T and labels of each named data set
_PRESET_DATA = {
    "trivial": ([[1.0]], [1.0], ["1"]),
    "ising": ([[0.5, 0.5, _SQRT_HALF],
               [0.5, 0.5, -_SQRT_HALF],
               [_SQRT_HALF, -_SQRT_HALF, 0.0]],
              [1.0, -1.0, complex(_COS_PI_8, _SIN_PI_8)], ["1", "psi", "sigma"]),
    "fibonacci": ([[_FIB_UNIT, _FIB_TAU],
                   [_FIB_TAU, -_FIB_UNIT]],
                  [1.0, complex(_COS_4PI_5, _SIN_4PI_5)], ["1", "tau"]),
    "toric_code": ([[0.5, 0.5, 0.5, 0.5], [0.5, 0.5, -0.5, -0.5],
                    [0.5, -0.5, 0.5, -0.5], [0.5, -0.5, -0.5, 0.5]],
                   [1.0, 1.0, 1.0, -1.0], ["1", "e", "m", "f"]),
    "double_semion": ([[0.5, 0.5, 0.5, 0.5], [0.5, 0.5, -0.5, -0.5],
                       [0.5, -0.5, -0.5, 0.5], [0.5, -0.5, 0.5, -0.5]],
                      [1.0, 1.0, 1.0j, -1.0j], ["1", "b", "s", "sbar"]),
    "semion": ([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]],
               [1.0, 1.0j], ["1", "s"]),
}

PRESETS = tuple(sorted(_PRESET_DATA))


def preset(name: str, eps: float | None = None) -> ModularData:
    """The named data set; one of :data:`PRESETS`, matched exactly."""
    try:
        S, T, labels = _PRESET_DATA[name]
    except KeyError:
        raise UnknownPresetError(
            f"unknown preset {name!r}; available: {', '.join(PRESETS)}",
            available=PRESETS) from None
    return ModularData(S, T, labels=labels, eps=eps)


# Individualisation nodes the relabeling matcher tries before it raises;
# at rank 144 a node costs 0.3-2 ms, so the cap is reached within 4 s.
_RELABEL_NODE_CAP = 2000


def _value_classes(x: np.ndarray, tol: float) -> np.ndarray:
    """Integer classes of the real array x: its sorted values split at gaps
    wider than tol, so entries within tol of each other share a class."""
    v = np.sort(x, axis=None)
    wide = np.diff(v) > tol
    return np.searchsorted((v[:-1][wide] + v[1:][wide]) / 2, x)


def equivalent_up_to_relabeling(a: ModularData,
                                b: ModularData) -> list[int] | None:
    """Search for a relabeling identifying two modular data sets.

    Returns a permutation pi with pi(0) = 0, S_b[pi(i), pi(j)] = S_a[i, j]
    and T_b[pi(i)] = T_a[i] within max(a.eps, b.eps), or else None.  When
    several exist, any one of them is returned; every one returned passes
    that check, and a set compared with itself gives the identity.

    Objects of both sets are coloured jointly by (d, theta), the unit apart,
    and colours are refined by the multiset of (S-value class, colour) over
    each S row until they are stable (1-WL colour refinement).  S entries
    within that tolerance share a value class.  Unequal colour-class
    sizes prove that no relabeling exists.  Otherwise the search
    individualises the first object of a's smallest non-trivial class
    against each object of that class in b, refines again and goes on
    depth-first (McKay-Piperno, arXiv:1301.1493).

    Raises
    ------
    IncompleteEnumerationError
        If the search tries more than ``_RELABEL_NODE_CAP`` individualisations.
    """
    return next(_relabelings(a, b), None)


def _relabelings(a: ModularData, b: ModularData):
    """Every relabeling that :func:`equivalent_up_to_relabeling` checks
    and accepts, as lists, in the order of its walk, which spends one
    budget of ``_RELABEL_NODE_CAP`` individualisations across them all."""
    a.require_valid()
    b.require_valid()
    if a.rank != b.rank:
        return
    tol = max(a.eps, b.eps)
    n = a.rank
    S, T = np.stack([a.S, b.S]), np.stack([a.T, b.T])

    def entry_keys(z):  # a key per entry from its parts' value classes
        re, im = _value_classes(np.stack([z.real, z.imag]), tol)
        return _mix((re.astype(np.uint64) << np.uint64(32))
                    | im.astype(np.uint64))

    values = entry_keys(S)
    # d_i = S_0i / S_00, so the keys of row 0 colour by d; only the unit
    # gets an even key
    start = (values[:, 0, :] ^ _mix(entry_keys(T))) | np.uint64(1)
    start[:, 0] = 0
    # a fixed key per colour id; fewer than 2n ids are live at once
    keys = _mix(np.arange(2 * n, dtype=np.uint64))
    sides = np.repeat([1.0, -1.0], n)

    def refine(colours, count):
        while True:
            # colour-class sizes of a minus those of b
            if np.bincount(colours.ravel(), sides).any():
                return None, count
            own = keys[colours]
            # both keys are mixed already, so half a splitmix round will do
            z = values ^ own[:, None, :]
            z ^= z >> np.uint64(31)
            z *= np.uint64(0xBF58476D1CE4E5B9)
            z ^= z >> np.uint64(29)
            distinct, new = np.unique(z.sum(axis=2) ^ own,
                                      return_inverse=True)
            if distinct.size == count:
                return colours, count
            colours, count = new.reshape(2, n), distinct.size

    distinct, colours = np.unique(start, return_inverse=True)
    pending = [(colours.reshape(2, n), distinct.size)]
    # the root is no individualisation
    budget = _Budget("relabeling search", _RELABEL_NODE_CAP, nodes=-1)
    while pending:
        budget.spend()
        colours, count = refine(*pending.pop())
        if colours is None:
            continue
        if count == n:  # discrete: one candidate left
            pi = np.argsort(colours[1])[colours[0]]
            if (np.abs(S[1][np.ix_(pi, pi)] - S[0]).max() <= tol
                    and np.abs(T[1][pi] - T[0]).max() <= tol):
                yield pi.tolist()
            continue
        sizes = np.bincount(colours[0])
        cell = np.where(sizes > 1, sizes, n + 1).argmin()
        v = np.flatnonzero(colours[0] == cell)[0]
        for w in np.flatnonzero(colours[1] == cell)[::-1]:
            branch = colours.copy()
            branch[0, v] = branch[1, w] = count
            pending.append((branch, count + 1))
