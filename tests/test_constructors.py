"""Tests for the modular data constructors."""

from fractions import Fraction

import numpy as np
import pytest

from mdkit import (DegenerateFormError, MdkError, PRESETS, QuadraticForm,
                   UnknownPresetError, central_charge, cyclic, deligne_product,
                   direct_product, drinfeld_double,
                   equivalent_up_to_relabeling, gauss_sum,
                   group_preset, pointed, preset, su2_level,
                   twisted_double_cyclic, unit_root, verlinde_fusion)


@pytest.mark.parametrize("name", PRESETS)
def test_presets_are_valid(name):
    md = preset(name)
    report = md.validation()
    assert report.ok, report
    verlinde_fusion(md)  # must have integral structure constants


def test_preset_names():
    assert set(PRESETS) == {"trivial", "ising", "fibonacci", "toric_code",
                            "double_semion", "semion"}
    with pytest.raises(UnknownPresetError) as exc:
        preset("isingg")
    assert tuple(exc.value.available) == PRESETS


def test_ising_entries():
    md = preset("ising")
    r = 1 / np.sqrt(2)
    assert abs(md.S[0, 2] - r) < 1e-15
    assert abs(md.S[2, 2]) == 0.0
    assert abs(md.T[2] - np.exp(1j * np.pi / 8)) < 1e-15
    assert md.labels == ("1", "psi", "sigma")


def test_fibonacci_entries():
    md = preset("fibonacci")
    phi = (1 + np.sqrt(5)) / 2
    assert abs(md.dims[1] - phi) < 1e-14
    assert abs(md.T[1] - np.exp(4j * np.pi / 5)) < 1e-15
    assert abs(md.global_dim - (2 + phi)) < 1e-13


@pytest.mark.parametrize("name, charge", [
    ("trivial", Fraction(0)),
    ("ising", Fraction(1, 2)),
    ("fibonacci", Fraction(14, 5)),
    ("toric_code", Fraction(0)),
    ("double_semion", Fraction(0)),
    ("semion", Fraction(1)),
])
def test_preset_central_charges(name, charge):
    assert central_charge(preset(name)) == charge


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
def test_su2_fusion_is_truncated_clebsch_gordan(k):
    md = su2_level(k)
    N = verlinde_fusion(md).N
    for a in range(k + 1):
        for b in range(k + 1):
            for c in range(k + 1):
                allowed = (abs(a - b) <= c <= min(a + b, 2 * k - a - b)
                           and (a + b + c) % 2 == 0)
                assert N[a, b, c] == (1 if allowed else 0)


@pytest.mark.parametrize("k, charge", [
    (1, Fraction(1)), (2, Fraction(3, 2)), (3, Fraction(9, 5)),
    (4, Fraction(2)), (10, Fraction(5, 2)),
])
def test_su2_central_charge(k, charge):
    # 3k/(k+2) reduced mod 8
    assert central_charge(su2_level(k)) == Fraction(3 * k, k + 2) % 8
    assert central_charge(su2_level(k)) == charge


def test_su2_level_bounds():
    with pytest.raises(MdkError):
        su2_level(0)
    with pytest.raises(MdkError):
        su2_level(33)


def test_su2_2_is_not_ising():
    a, b = su2_level(2), preset("ising")
    # same dimensions, different twists on the sqrt(2) object
    assert np.allclose(np.sort(a.dims), np.sort(b.dims))
    assert equivalent_up_to_relabeling(a, b) is None


def test_quadratic_form_rejects_nonabelian():
    with pytest.raises(MdkError, match="abelian"):
        QuadraticForm(group_preset("S3"), [1] * 6)


def test_quadratic_form_rejects_bad_values():
    z2 = cyclic(2)
    with pytest.raises(MdkError, match="unit circle"):
        QuadraticForm(z2, [1, 2])
    with pytest.raises(MdkError, match="must be 1"):
        QuadraticForm(z2, [-1, 1])
    with pytest.raises(MdkError, match="q\\(-x\\)"):
        QuadraticForm(cyclic(3), [1, 1j, 1])


def test_quadratic_form_rejects_degenerate():
    # b(x, y) = 1 identically
    with pytest.raises(DegenerateFormError):
        QuadraticForm(cyclic(2), [1, 1])
    # q(x) = i^(x^2) on Z_4 polarizes to (-1)^(xy), which has rank 2
    with pytest.raises(DegenerateFormError):
        QuadraticForm(cyclic(4), [1, 1j, 1, 1j])


def test_pointed_z4():
    z4 = cyclic(4)
    q = QuadraticForm(z4, [unit_root(x * x, 8) for x in range(4)])
    md = pointed(z4, q)
    assert md.validation().ok
    assert np.allclose(md.dims, 1.0)
    assert np.allclose(md.T, q.values)
    assert central_charge(md) == Fraction(1)
    # fusion is the group law
    N = verlinde_fusion(md).N
    for x in range(4):
        for y in range(4):
            assert N[x, y, (x + y) % 4] == 1
            assert N[x, y].sum() == 1


def test_pointed_accepts_raw_values():
    z2 = cyclic(2)
    md = pointed(z2, [1, 1j])
    assert equivalent_up_to_relabeling(md, preset("semion")) is not None


def test_double_z2_is_toric_code():
    md = drinfeld_double(cyclic(2))
    assert equivalent_up_to_relabeling(md, preset("toric_code")) is not None


def test_double_s3():
    md = drinfeld_double(group_preset("S3"))
    assert md.rank == 8
    dims = np.sort(md.dims)
    assert np.allclose(dims, [1, 1, 2, 2, 2, 2, 3, 3], atol=1e-9)
    assert md.validation().ok


@pytest.mark.parametrize("g", [
    cyclic(2), cyclic(3), group_preset("S3"), group_preset("D4"),
    group_preset("Q8"), direct_product(group_preset("S3"), cyclic(2)),
], ids=["Z_2", "Z_3", "S3", "D4", "Q8", "S3xZ_2"])
def test_double_gauss_sum_and_charge(g):
    md = drinfeld_double(g)
    assert abs(gauss_sum(md) - g.order) < 1e-7
    assert central_charge(md) == 0


def test_double_d4_vs_q8():
    a = drinfeld_double(group_preset("D4"))
    b = drinfeld_double(group_preset("Q8"))
    assert a.rank == b.rank == 22
    assert np.allclose(np.sort(a.dims), np.sort(b.dims))
    # same fusion dimensions, but the twists tell them apart
    assert equivalent_up_to_relabeling(a, b) is None


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_twisted_double_p0_matches_double(n):
    a = twisted_double_cyclic(n, 0)
    b = drinfeld_double(cyclic(n))
    pi = np.array(equivalent_up_to_relabeling(a, b))
    assert np.abs(b.S[np.ix_(pi, pi)] - a.S).max() < 1e-9
    assert np.abs(b.T[pi] - a.T).max() < 1e-9


def test_twisted_double_semion():
    md = twisted_double_cyclic(2, 1)
    twists = sorted(md.T, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    assert np.allclose(twists, [-1j, 1j, 1, 1], atol=1e-12)
    assert equivalent_up_to_relabeling(md, preset("double_semion")) is not None


def test_twisted_double_bounds():
    for n, p in [(0, 0), (13, 0), (3, -1), (3, 3)]:
        with pytest.raises(MdkError):
            twisted_double_cyclic(n, p)


def test_relabeling_on_permuted_copy():
    a = su2_level(4)
    sigma = np.array([0, 2, 1, 4, 3])
    from mdkit import ModularData
    b = ModularData(a.S[np.ix_(sigma, sigma)], a.T[sigma])
    pi = equivalent_up_to_relabeling(a, b)
    assert pi is not None
    pi = np.array(pi)
    assert np.abs(b.S[np.ix_(pi, pi)] - a.S).max() < 1e-9
    assert np.abs(b.T[pi] - a.T).max() < 1e-9


def test_relabeling_identity_and_mismatch():
    ising = preset("ising")
    assert equivalent_up_to_relabeling(ising, ising) == [0, 1, 2]
    assert equivalent_up_to_relabeling(preset("fibonacci"), ising) is None
    assert equivalent_up_to_relabeling(preset("toric_code"),
                                       preset("double_semion")) is None


def test_deligne_product_of_doubles():
    # D(Z_2) x D(Z_3) has the modular data of D(Z_6)
    a = deligne_product(drinfeld_double(cyclic(2)), drinfeld_double(cyclic(3)))
    b = drinfeld_double(cyclic(6))
    assert equivalent_up_to_relabeling(a, b) is not None
