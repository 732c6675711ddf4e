import math
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from scipy import integrate

from lyapunov_lab.bounds import (
    alpha_bound,
    lo_max_atom,
    verify_alpha_mc,
)
from lyapunov_lab.laws import BERNOULLI, GAUSSIAN, RngStream
from lyapunov_lab.verification import _alpha_by_grid


def test_alpha_unit_moments_closed_form():
    # for sigma2 = D = 1 the maximizer solves 2a^2 + 3a - 1 = 0 exactly
    a_star = (-3.0 + math.sqrt(17.0)) / 4.0
    expected = 1.0 - a_star * (1.0 - a_star) ** 2 / (7.0 * (1.0 + a_star))
    res = alpha_bound(1.0, 1.0)
    assert res.alpha == pytest.approx(expected, abs=1e-9)
    assert res.argmax_a == pytest.approx(a_star, abs=1e-6)
    assert res.alpha == pytest.approx(0.9838, abs=1e-4)
    assert 0.0 < res.argmax_a < 1.0


@given(
    sigma2=st.floats(min_value=1e-6, max_value=100.0),
    excess=st.floats(min_value=1.0, max_value=100.0),
)
@settings(max_examples=150, deadline=None)
def test_alpha_closed_form_matches_grid_oracle(sigma2, excess):
    fourth = sigma2**2 * excess  # D >= sigma2^2 (Jensen)
    res = alpha_bound(sigma2, fourth)
    grid_alpha, _ = _alpha_by_grid(sigma2, fourth)
    assert abs(res.alpha - grid_alpha) <= 1e-9
    a = res.argmax_a
    assert 2.0 * a * a + 3.0 * a == pytest.approx(sigma2, rel=1e-12)


def test_alpha_small_sigma2_tends_to_one():
    assert alpha_bound(1e-6, 1.0).alpha > 1.0 - 1e-6


def test_alpha_scaling_in_fourth_moment():
    one = alpha_bound(1.0, 1.0)
    two = alpha_bound(1.0, 2.0)
    assert (1.0 - two.alpha) == pytest.approx((1.0 - one.alpha) / 2.0, rel=1e-10)


def test_alpha_domain_errors():
    with pytest.raises(ValueError):
        alpha_bound(0.0, 1.0)
    with pytest.raises(ValueError):
        alpha_bound(2.0, 1.0)
    # NaN fails every range test, and sigma2 must be finite
    for args in ((math.nan, 1.0), (1.0, math.nan), (math.inf, math.inf)):
        with pytest.raises(ValueError):
            alpha_bound(*args)
    # a*(s-a)^2 overflows to inf, and so does the divisor: inf/inf makes alpha NaN
    with pytest.raises(ValueError, match=r"sigma2=1e\+154 and fourth_moment=1e\+308 give alpha=nan: .* overflows"):
        alpha_bound(1e154, 1e308)


def test_mc_delta_vector_is_constant():
    # y = e0 makes 1/||AY|| identically 1/sqrt(2) under the sign law
    check = verify_alpha_mc(BERNOULLI, np.array([1.0]), 1000, RngStream(1, 0))
    assert check.empirical_mean == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    assert check.stderr == pytest.approx(0.0, abs=1e-15)
    assert check.passed


def test_mc_two_equal_coordinates_enumeration():
    # four sign patterns: g in {-sqrt2, 0, 0, sqrt2}
    expected = 0.5 + 0.5 / math.sqrt(3.0)
    y = np.array([1.0, 1.0]) / math.sqrt(2.0)
    check = verify_alpha_mc(BERNOULLI, y, 100_000, RngStream(2, 0))
    assert abs(check.empirical_mean - expected) <= 3.0 * check.stderr
    assert check.passed


def test_mc_gaussian_delta_matches_quadrature():
    # independent oracle: adaptive quadrature of E (1+g^2)^(-1/2)
    target, _ = integrate.quad(
        lambda x: (1.0 + x * x) ** -0.5 * math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi),
        -np.inf,
        np.inf,
    )
    check = verify_alpha_mc(GAUSSIAN, np.array([1.0]), 100_000, RngStream(3, 0))
    assert abs(check.empirical_mean - target) <= 3.0 * check.stderr
    assert check.passed


def test_mc_rejects_non_unit_vector():
    with pytest.raises(ValueError):
        verify_alpha_mc(BERNOULLI, np.array([1.0, 1.0]), 100, RngStream(0, 0))


def test_lo_single_coefficient():
    res = lo_max_atom([1])
    assert res.max_atom == Fraction(1, 2)
    assert res.atom_string() == "1/2^1"


def test_lo_three_ones():
    res = lo_max_atom([1, 1, 1])
    assert res.max_atom == Fraction(3, 8)
    assert res.max_count * Fraction(1, 2**res.k) == res.max_atom


def _brute_force(coeffs):
    counts = {}
    k = len(coeffs)
    for mask in range(1 << k):
        s = sum(b if (mask >> i) & 1 else -b for i, b in enumerate(coeffs))
        counts[s] = counts.get(s, 0) + 1
    return Fraction(max(counts.values()), 1 << k)


def test_lo_distinct_ten_vs_bruteforce():
    coeffs = list(range(1, 11))
    res = lo_max_atom(coeffs)
    assert res.max_atom == _brute_force(coeffs)
    assert res.max_atom <= Fraction(comb(10, 5), 2**10)


def test_lo_all_equal_is_central_binomial():
    for k in range(1, 21):
        res = lo_max_atom([3] * k)
        assert res.max_atom == Fraction(comb(k, k // 2), 2**k)


@given(coeffs=st.lists(st.integers(min_value=-9, max_value=9).filter(lambda b: b != 0), min_size=1, max_size=10))
@settings(max_examples=60, deadline=None)
def test_lo_matches_bruteforce(coeffs):
    assert lo_max_atom(coeffs).max_atom == _brute_force(coeffs)


@given(coeffs=st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=9))
@settings(max_examples=40, deadline=None)
def test_lo_sign_and_permutation_invariance(coeffs):
    base = lo_max_atom(coeffs).max_atom
    flipped = lo_max_atom([-b for b in coeffs]).max_atom
    shuffled = lo_max_atom(list(reversed(coeffs))).max_atom
    assert base == flipped == shuffled


def test_lo_atom_bounds():
    res = lo_max_atom([2, 5, 9, 14])
    assert Fraction(1, 2**4) <= res.max_atom <= 1


def test_lo_validation():
    with pytest.raises(ValueError):
        lo_max_atom([])
    with pytest.raises(ValueError):
        lo_max_atom([1, 0, 2])
    with pytest.raises(ValueError, match="exact-count limit"):
        lo_max_atom([1] * 41)
    with pytest.raises(ValueError, match="table budget"):
        lo_max_atom([10**7, 10**7])
