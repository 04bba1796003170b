"""Tests for the numeric helpers."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mdkit import NonIntegralError, phase_fraction, unit_root
from mdkit.numeric import (nearest_int, permutation_from_matrix, rationalize,
                           rref)


def test_unit_root_quarter_turns_exact():
    # quarter turns must be bit-exact, not just close
    assert unit_root(0, 4) == 1
    assert unit_root(1, 4) == 1j
    assert unit_root(2, 4) == -1
    assert unit_root(3, 4) == -1j
    assert unit_root(6, 8) == -1j
    assert unit_root(24, 24) == 1
    assert unit_root(-1, 4) == -1j


def test_unit_root_generic_values():
    assert abs(unit_root(1, 3) - cmath.exp(2j * cmath.pi / 3)) < 1e-15
    assert abs(unit_root(5, 7) - cmath.exp(10j * cmath.pi / 7)) < 1e-15


@given(st.integers(-300, 300), st.integers(1, 120))
def test_unit_root_is_periodic_unit(num, den):
    z = unit_root(num, den)
    assert abs(abs(z) - 1) < 1e-12
    assert abs(z - unit_root(num + den, den)) < 1e-12


@given(st.integers(0, 119), st.integers(1, 120))
def test_phase_fraction_round_trip(num, den):
    t = Fraction(num, den) % 1
    got = phase_fraction(unit_root(num, den), max_den=120, tol=1e-9)
    assert got == t


def test_phase_fraction_rejects_off_circle_direction():
    assert phase_fraction(cmath.exp(0.123j), max_den=10, tol=1e-9) is None


@pytest.mark.parametrize("z", [complex(math.nan, 0), complex(0, math.inf),
                               complex(-math.inf, 1)])
def test_phase_fraction_rejects_non_finite(z):
    assert phase_fraction(z, max_den=10, tol=1e-9) is None


def test_nearest_int():
    assert nearest_int(3.0000000001) == 3
    assert nearest_int(-2.0) == -2
    with pytest.raises(NonIntegralError):
        nearest_int(2.5)


def test_rationalize_common_denominator():
    nums, den = rationalize(np.array([[1 / 2, 1 / 3]]), 100, 1e-9)
    assert nums.dtype == np.int64
    assert nums.tolist() == [[3, 2]] and den == 6
    assert rationalize(np.array([[math.pi]]), 10, 1e-9) is None


def test_permutation_from_matrix():
    eye = np.eye(3)
    assert permutation_from_matrix(eye, 1e-9) == [0, 1, 2]
    swap = eye[[1, 0, 2]]
    assert permutation_from_matrix(swap, 1e-9) == [1, 0, 2]
    assert permutation_from_matrix(np.ones((2, 2)), 1e-9) is None
    assert permutation_from_matrix(0.5 * eye, 1e-9) is None


def test_rref_known_matrix():
    R, pivots = rref(np.array([[0.0, 2.0, 4.0], [1.0, 1.0, 1.0]]))
    assert pivots == [0, 1]
    assert np.allclose(R, [[1.0, 0.0, -1.0], [0.0, 1.0, 2.0]])


def test_rref_drops_dependent_rows():
    mat = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 1.0]])
    R, pivots = rref(mat)
    assert R.shape == (2, 2)
    assert np.allclose(R, np.eye(2))


def test_rationalize():
    nums, den = rationalize(np.array([[0.25, 1.5]]), 100, 1e-9)
    assert nums.tolist() == [[1, 6]] and den == 4
    assert rationalize(np.array([[math.sqrt(2)]]), 100, 1e-9) is None


def test_rationalize_near_values_share_one_fraction():
    x = 1 / 3
    nums, den = rationalize(np.array([[x, x + 1e-12, -x]]), 10 ** 6, 1e-9)
    assert nums.tolist() == [[1, 1, -1]] and den == 3


def test_rationalize_rejects_numerators_past_int64():
    assert rationalize(np.array([[1e19]]), 100, 1e-9) is None
