"""Tests for the core data type, its axiom checks, and the derived
quantities (fusion, Gauss sums, central charge, products)."""

from fractions import Fraction

import numpy as np
import pytest

from mdkit import (DimensionMismatchError, MdkError, ModularData,
                   NonIntegralError, ValidationFailedError, central_charge,
                   charge_conjugation, cyclic, deligne_product, gauss_sum,
                   pointed, preset, reverse, unit_root, validate,
                   verlinde_fusion)

TORIC_S = 0.5 * np.array([[1, 1, 1, 1], [1, 1, -1, -1],
                          [1, -1, 1, -1], [1, -1, -1, 1]], dtype=complex)
TORIC_T = [1.0, 1.0, 1.0, -1.0]


def toric():
    return ModularData(TORIC_S, TORIC_T, labels=["1", "e", "m", "f"])


def test_constructor_basics():
    md = toric()
    assert md.rank == 4
    assert md.labels == ("1", "e", "m", "f")
    assert np.allclose(md.dims, [1, 1, 1, 1])
    assert md.global_dim == pytest.approx(4.0)
    # arrays are frozen
    with pytest.raises(ValueError):
        md.S[0, 0] = 2.0


def test_constructor_shape_errors():
    with pytest.raises(DimensionMismatchError):
        ModularData(TORIC_S, [1.0, 1.0])
    with pytest.raises(DimensionMismatchError):
        ModularData(TORIC_S, TORIC_T, labels=["a"])
    with pytest.raises(DimensionMismatchError):
        ModularData(np.ones((2, 3)), [1.0, 1.0])


def test_validate_all_checks_pass():
    report = validate(toric())
    assert report.ok
    assert report.worst < 1e-12
    names = [c.name for c in report.checks]
    assert names == ["s_unitary", "s_symmetric", "row0_positive",
                     "s00_normalization", "t_unit", "t_roots_of_unity",
                     "s2_permutation", "st_cubed"]


def test_validate_catches_broken_unitarity():
    S = TORIC_S.copy()
    S[3, 3] = 0.7
    report = validate(ModularData(S, TORIC_T))
    assert not report.ok
    assert not report["s_unitary"].passed


def test_validate_catches_nonunit_t0():
    report = validate(ModularData(TORIC_S, [1.0 + 1e-12, 1.0, 1.0, -1.0]))
    assert not report["t_unit"].passed  # exact check, no tolerance


def test_validate_catches_wrong_twist():
    report = validate(ModularData(TORIC_S, [1.0, 1.0, 1.0, 0.5 - 0.5j]))
    assert not report["t_roots_of_unity"].passed


def test_validate_catches_negative_row0():
    S = TORIC_S.copy()
    S[0, 1] = -0.5
    S[1, 0] = -0.5
    report = validate(ModularData(S, TORIC_T))
    assert not report["row0_positive"].passed
    assert report["row0_positive"].residual >= 1e-9


def test_validate_catches_st_relation():
    # legal root-of-unity twists that do not pair with this S matrix
    report = validate(ModularData(TORIC_S, [1.0, 1.0j, 1.0, -1.0]))
    assert report["t_roots_of_unity"].passed
    assert not report["st_cubed"].passed
    # vanishing Gauss sum: residual is infinite rather than a crash
    report = validate(ModularData(TORIC_S, [1.0, -1.0, -1.0, 1.0]))
    assert not report["st_cubed"].passed


def test_require_valid_raises_with_report():
    S = TORIC_S.copy()
    S[3, 3] = 0.7
    md = ModularData(S, TORIC_T)
    with pytest.raises(ValidationFailedError) as exc:
        md.require_valid()
    assert exc.value.report is not None
    assert not exc.value.report.ok


def test_dims_ising():
    md = preset("ising")
    assert np.allclose(md.dims, [1.0, 1.0, np.sqrt(2)])
    assert md.global_dim == pytest.approx(4.0)


def test_verlinde_toric_is_klein_four():
    ring = verlinde_fusion(toric())
    # e*e = m*m = f*f = 1 and e*m = f
    assert ring.coefficient(1, 1, 0) == 1
    assert ring.coefficient(2, 2, 0) == 1
    assert ring.coefficient(3, 3, 0) == 1
    assert ring.coefficient(1, 2, 3) == 1
    assert ring.N.sum() == 16


def test_verlinde_ising():
    ring = verlinde_fusion(preset("ising"))
    # sigma * sigma = 1 + psi
    assert ring.coefficient(2, 2, 0) == 1
    assert ring.coefficient(2, 2, 1) == 1
    assert ring.coefficient(2, 2, 2) == 0
    # psi * sigma = sigma
    assert ring.coefficient(1, 2, 2) == 1


def test_verlinde_fibonacci():
    ring = verlinde_fusion(preset("fibonacci"))
    assert ring.coefficient(1, 1, 0) == 1
    assert ring.coefficient(1, 1, 1) == 1


def test_verlinde_rejects_non_modular_input():
    S = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    with pytest.raises((MdkError, NonIntegralError)):
        verlinde_fusion(ModularData(S, [1.0, 1.0]))


@pytest.mark.parametrize("name, charge", [
    ("trivial", Fraction(0)),
    ("semion", Fraction(1)),
    ("ising", Fraction(1, 2)),
    ("fibonacci", Fraction(14, 5)),
    ("toric_code", Fraction(0)),
    ("double_semion", Fraction(0)),
])
def test_central_charges(name, charge):
    assert central_charge(preset(name)) == charge


def test_gauss_sum_magnitude():
    # |tau+| = sqrt(dim) for modular data
    for name in ("ising", "fibonacci", "double_semion"):
        md = preset(name)
        assert abs(gauss_sum(md)) == pytest.approx(np.sqrt(md.global_dim))
        assert gauss_sum(md, -1) == pytest.approx(np.conj(gauss_sum(md)))


def test_deligne_product_structure():
    a, b = preset("fibonacci"), preset("semion")
    prod = deligne_product(a, b)
    assert prod.rank == 4
    assert prod.labels == ("1⊗1", "1⊗s", "tau⊗1", "tau⊗s")
    assert validate(prod).ok
    assert prod.global_dim == pytest.approx(a.global_dim * b.global_dim)
    assert central_charge(prod) == (central_charge(a) + central_charge(b)) % 8


@pytest.mark.parametrize("left,right", [("fibonacci", "semion"),
                                        ("ising", "toric_code")])
def test_deligne_product_matches_eager_kron(left, right):
    a, b = preset(left), reverse(preset(right))
    prod = deligne_product(a, b)
    dims = prod.dims  # read before S is formed
    eager = ModularData(np.kron(a.S, b.S), np.kron(a.T, b.T))
    assert np.array_equal(prod.S, eager.S)
    assert np.array_equal(prod.T, eager.T)
    assert np.array_equal(dims, eager.dims)
    assert not prod.S.flags.writeable and not prod.T.flags.writeable


def test_reverse_conjugates():
    md = preset("ising")
    rev = reverse(md)
    assert validate(rev).ok
    assert np.array_equal(rev.S, np.conj(md.S))
    assert np.array_equal(rev.T, np.conj(md.T))
    assert central_charge(rev) == (-central_charge(md)) % 8


def test_charge_conjugation_pointed_z3():
    q = [unit_root(x * x, 3) for x in range(3)]
    md = pointed(cyclic(3), q)
    assert charge_conjugation(md) == [0, 2, 1]


def test_charge_conjugation_self_dual():
    assert charge_conjugation(preset("fibonacci")) == [0, 1]
    assert charge_conjugation(toric()) == [0, 1, 2, 3]
