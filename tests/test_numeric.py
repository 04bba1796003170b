"""Tests for the numeric helpers."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mdkit import NonIntegralError, phase_fraction, unit_root
from mdkit.numeric import (_best_rational, nearest_int, permutation_from_matrix,
                           rationalize, rref)

CAPS = (1, 7, 240, 10080)


def unit_root_by_fraction(num, den):
    """The Fraction formula unit_root must reproduce bit for bit."""
    frac = Fraction(num, den) % 1
    quarter = {Fraction(0): 1 + 0j, Fraction(1, 4): 1j,
               Fraction(1, 2): -1 + 0j, Fraction(3, 4): -1j}
    if frac in quarter:
        return quarter[frac]
    return cmath.exp(2j * cmath.pi * frac.numerator / frac.denominator)


def farey_successor(a, b, n):
    """The fraction right after a/b (reduced, b <= n) among those with
    denominator <= n: the largest d <= n with b c - a d = 1."""
    d = n - (n + pow(a, -1, b)) % b
    return (1 + a * d) // b, d


def test_unit_root_quarter_turns_exact():
    # quarter turns must be bit-exact, not just close
    assert unit_root(0, 4) == 1
    assert unit_root(1, 4) == 1j
    assert unit_root(2, 4) == -1
    assert unit_root(3, 4) == -1j
    assert unit_root(6, 8) == -1j
    assert unit_root(24, 24) == 1
    assert unit_root(-1, 4) == -1j


def test_unit_root_matches_fraction_formula_bit_for_bit():
    for den in range(1, 301):
        for num in range(-2 * den, 2 * den + 1):
            got, want = unit_root(num, den), unit_root_by_fraction(num, den)
            assert repr(got) == repr(want), (num, den)


@pytest.mark.parametrize("cap", CAPS)
@given(x=st.one_of(st.floats(0, 1, exclude_max=True),
                   st.floats(0, 8, exclude_max=True),
                   st.floats(max_value=0, allow_nan=False, allow_infinity=False)))
def test_best_rational_matches_limit_denominator(cap, x):
    want = Fraction(x).limit_denominator(cap)
    assert _best_rational(x, cap) == (want.numerator, want.denominator)


@pytest.mark.parametrize("cap", (1, 2, 4, *CAPS))
def test_best_rational_on_dyadic_grid(cap):
    # j/1024 holds every exact tie of caps 1, 2 and 4 (k + 1/2 at cap 1,
    # k + 1/4 at cap 2, ...)
    for j in range(-4096, 4096):
        x = j / 1024
        want = Fraction(x).limit_denominator(cap)
        assert _best_rational(x, cap) == (want.numerator, want.denominator)


def test_best_rational_ties_go_to_the_convergent():
    assert _best_rational(0.5, 1) == (0, 1)
    assert _best_rational(-0.5, 1) == (-1, 1)
    assert _best_rational(0.25, 2) == (0, 1)
    assert _best_rational(0.125, 4) == (0, 1)


@pytest.mark.parametrize("cap", CAPS)
@given(data=st.data(), whole=st.integers(-8, 8))
def test_best_rational_between_neighbouring_fractions(cap, data, whole):
    # the midpoint of two neighbours in the Farey sequence of order cap is
    # where the choice between the bounds flips; test it and the floats
    # on either side
    b = data.draw(st.integers(1, cap))
    a = data.draw(st.integers(0, b - 1).filter(lambda a: math.gcd(a, b) == 1))
    c, d = farey_successor(a, b, cap)
    mid = float(whole + (Fraction(a, b) + Fraction(c, d)) / 2)
    for x in (math.nextafter(mid, -math.inf), mid, math.nextafter(mid, math.inf)):
        want = Fraction(x).limit_denominator(cap)
        assert _best_rational(x, cap) == (want.numerator, want.denominator)


def test_best_rational_rejects_cap_below_one():
    with pytest.raises(ValueError):
        _best_rational(0.5, 0)


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


@pytest.mark.parametrize("cap", CAPS)
@given(st.floats(-4, 4), st.floats(0.5, 2))
def test_phase_fraction_matches_fraction_formula(cap, turns, radius):
    z = radius * cmath.exp(2j * cmath.pi * turns)
    for tol in (1e-9, 1e-3, 0.5):
        t = Fraction(cmath.phase(z) / (2 * math.pi) % 1.0).limit_denominator(cap) % 1
        ok = abs(unit_root_by_fraction(t.numerator, t.denominator) - z / abs(z)) <= tol
        assert phase_fraction(z, cap, tol) == (t if ok else None)


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


@pytest.mark.parametrize("m, want", [
    # rows and columns sum to 1, but an entry is -1 or 2
    ([[1, 1, -1], [0, 0, 1], [0, 0, 1]], None),
    ([[2, -1, 0], [-1, 1, 1], [0, 1, 0]], None),
    ([[0, 0], [0, 1]], None),
    ([[1]], [0]),
    ([[0]], None),
    ([[2]], None),
    ([[-0.0, 1.0], [1.0, -0.0]], [1, 0]),
    (np.eye(3)[[1, 0, 2]] + 1e-10 * np.arange(9).reshape(3, 3), [1, 0, 2]),
    (np.eye(3)[[1, 0, 2]] + 1e-10j, [1, 0, 2]),
    (np.eye(3)[[1, 0, 2]] + 1e-8 * np.arange(9).reshape(3, 3), None),
    ([[math.nan, 1], [1, 0]], None),
    ([[math.nan]], None),
    (np.ones((2, 3)), None),
], ids=["minus_one", "two", "zero_row", "one", "zero", "two_1x1", "negative_zero",
        "within_eps", "within_eps_imaginary", "past_eps", "nan", "nan_1x1",
        "not_square"])
def test_permutation_from_matrix_edge_cases(m, want):
    # complex, like the S @ S that validation passes
    assert permutation_from_matrix(np.asarray(m, dtype=complex), 1e-9) == want


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
