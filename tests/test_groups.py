"""Tests for finite groups and character tables."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from mdkit import (DegeneracyResolutionError, GROUP_PRESETS, MdkError,
                   NotAGroupError, UnknownPresetError, centralizer,
                   character_table, cyclic, direct_product, group_from_table,
                   group_preset)
from mdkit import _normals, groups


def test_cyclic_group():
    g = cyclic(5)
    assert g.order == 5
    assert g.is_abelian
    assert g.inverses[2] == 3
    assert len(g.classes) == 5


def test_group_from_table_rejects_broken_tables():
    # not closed / not a Latin square
    with pytest.raises(NotAGroupError):
        group_from_table([[0, 1], [1, 5]])
    with pytest.raises(NotAGroupError):
        group_from_table([[0, 1], [0, 1]])
    # identity must sit at index 0
    with pytest.raises(NotAGroupError):
        group_from_table([[1, 0], [0, 1]])
    # a Latin square with identity but no associativity (an order-5 loop)
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(NotAGroupError) as exc:
        group_from_table(loop)
    assert exc.value.axiom == "associativity"
    # an associative monoid: 1 * 1 = 1, so 1 has no inverse
    with pytest.raises(NotAGroupError, match="element 1 has no two-sided inverse") as exc:
        group_from_table([[0, 1], [1, 1]])
    assert exc.value.axiom == "inverse"
    assert exc.value.witness == 1


def test_associativity_witness_is_the_first_failing_triple():
    loop = np.array([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1],
                     [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]])
    first = next((a, b, c) for a in range(5) for b in range(5)
                 for c in range(5) if loop[loop[a, b], c] != loop[a, loop[b, c]])
    with pytest.raises(NotAGroupError, match=r"associativity fails at "
                                             r"\(1, 1, 2\)") as exc:
        group_from_table(loop)
    assert exc.value.witness == first == (1, 1, 2)


def test_group_axioms_are_checked_in_quadratic_memory():
    # the n^3 triples of order 300 would take 216 MB as one int64 tensor
    idx = np.arange(300)
    table = (idx[:, None] + idx[None, :]) % 300
    tracemalloc.start()
    try:
        assert group_from_table(table).order == 300
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 10 ** 6


def test_direct_product():
    g = direct_product(cyclic(2), cyclic(3))
    assert g.order == 6
    assert g.is_abelian
    # (1,0)+(0,1) = (1,1): indices 3, 1, 4 in row-major encoding
    assert g.mul(3, 1) == 4


def test_presets_available():
    assert set(GROUP_PRESETS) >= {"Z_1", "Z_6", "Z_12", "S3", "D4", "Q8"}
    with pytest.raises(MdkError):
        group_preset("M24")


@pytest.mark.parametrize("name", ["Z_05", "Z_ 3", "Z_+3", "Z_\u0663", "Z_13",
                                  "s3", "Z_3 "])
def test_preset_names_are_matched_exactly(name):
    with pytest.raises(UnknownPresetError) as exc:
        group_preset(name)
    assert exc.value.available == GROUP_PRESETS


@pytest.mark.parametrize("name, order, abelian", [
    ("Z_4", 4, True), ("S3", 6, False), ("D4", 8, False), ("Q8", 8, False),
])
def test_preset_orders(name, order, abelian):
    g = group_preset(name)
    assert g.order == order
    assert g.is_abelian == abelian


def test_s3_classes():
    g = group_preset("S3")
    assert sorted(len(c) for c in g.classes) == [1, 2, 3]


@pytest.mark.parametrize("name, n_classes", [("D4", 5), ("Q8", 5)])
def test_order8_classes(name, n_classes):
    assert len(group_preset(name).classes) == n_classes


def test_centralizer_sizes():
    g = group_preset("S3")
    transposition = next(c[0] for c in g.classes if len(c) == 3)
    cent = centralizer(g, transposition)
    assert cent.group.order == 2
    three_cycle = next(c[0] for c in g.classes if len(c) == 2)
    assert centralizer(g, three_cycle).group.order == 3
    # the identity centralizes everything
    assert centralizer(g, 0).group.order == 6


@pytest.mark.parametrize("g", [
    group_preset("S3"), group_preset("D4"), group_preset("Q8"),
    direct_product(group_preset("S3"), cyclic(2)),
], ids=["S3", "D4", "Q8", "S3xZ_2"])
def test_centralizer_embedding_consistent(g):
    for rep in (c[0] for c in g.classes):
        cent = centralizer(g, rep)
        emb = cent.embed
        for x in range(cent.group.order):
            for y in range(cent.group.order):
                assert emb[cent.group.mul(x, y)] == g.mul(emb[x], emb[y])


def test_character_table_z2_exact():
    table = character_table(cyclic(2))
    assert np.array_equal(table.values, np.array([[1, 1], [1, -1]]))
    assert table.degrees == (1, 1)


@pytest.mark.parametrize("name, degrees", [
    ("Z_5", (1, 1, 1, 1, 1)),
    ("S3", (1, 1, 2)),
    ("D4", (1, 1, 1, 1, 2)),
    ("Q8", (1, 1, 1, 1, 2)),
])
def test_character_degrees(name, degrees):
    table = character_table(group_preset(name))
    assert table.degrees == degrees
    assert sum(d * d for d in table.degrees) == group_preset(name).order


@pytest.mark.parametrize("name", ["Z_6", "S3", "D4", "Q8", "Z_12"])
def test_character_orthogonality(name):
    g = group_preset(name)
    table = character_table(g)
    k = len(g.classes)
    sizes = np.array(table.class_sizes, dtype=float)
    gram = (table.values * sizes) @ table.values.conj().T / g.order
    assert np.abs(gram - np.eye(k)).max() < 1e-10


def test_character_trivial_row_first_and_exact():
    for name in ("Z_3", "S3", "Q8"):
        table = character_table(group_preset(name))
        assert (table.values[0] == 1).all()


def test_character_table_nonabelian_s3_values():
    # degree-2 character: 2 on e, -1 on 3-cycles, 0 on transpositions
    g = group_preset("S3")
    table = character_table(g)
    row = table.values[2]
    by_size = {len(g.classes[c]): row[c] for c in range(3)}
    assert by_size[1] == 2
    assert by_size[2] == -1
    assert by_size[3] == 0


def test_character_table_order_cap():
    with pytest.raises(MdkError):
        character_table(cyclic(201))


def test_normals_are_the_first_draws_of_the_seeded_stream():
    # the table stands in for numpy.random.default_rng(0).normal(): 20
    # attempts at up to 200 classes read at most its 4 000 draws
    draws = np.random.default_rng(0).normal(size=20 * 200)
    assert _normals.DRAWS == draws.astype("<f8").tobytes()


def _table_digest(h, tag, table):
    v = table.values
    h.update(repr((tag, v.dtype.str, v.shape, table.class_sizes,
                   table.degrees)).encode() + v.tobytes())


def test_character_tables_match_pinned_digest():
    # every bit of the table of each preset group and of the centralizer
    # of each of its elements, as the drawn coefficients gave it
    h = hashlib.sha256()
    for name in GROUP_PRESETS:
        g = group_preset(name)
        _table_digest(h, (name,), character_table(g))
        for a in range(g.order):
            _table_digest(h, (name, a), character_table(centralizer(g, a).group))
    assert h.hexdigest()[:24] == "3ac04fb051211bb4c0020070"


@pytest.mark.parametrize("name, digest", [("S3", "b8d540c09973cd9775aa692c"),
                                          ("Z_6", "13c89d514e715c2aab9b19aa")])
def test_forced_retries_read_the_next_draws(monkeypatch, name, digest):
    # three failed inversions: attempt 3 combines draws [3k, 4k), and the
    # table is the one those draws gave when they came from the generator
    g = group_preset(name)
    k = len(g.classes)
    combos, inv_calls = [], []
    real_eig, real_inv = np.linalg.eig, np.linalg.inv

    def eig(a):
        combos.append(a.copy())
        return real_eig(a)

    def inv(a):
        inv_calls.append(None)
        if len(inv_calls) <= 3:
            raise np.linalg.LinAlgError("forced")
        return real_inv(a)

    monkeypatch.setattr(np.linalg, "eig", eig)
    monkeypatch.setattr(np.linalg, "inv", inv)
    table = character_table(g)
    assert len(combos) == 4
    draws = np.random.default_rng(0).normal(size=4 * k)
    mats = groups._class_matrices(g).astype(float)
    for j, combo in enumerate(combos):
        want = np.tensordot(draws[j * k:(j + 1) * k], mats, axes=1)
        assert np.array_equal(combo, want)
    h = hashlib.sha256()
    _table_digest(h, (name,), table)
    assert h.hexdigest()[:24] == digest
