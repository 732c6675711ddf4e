import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from numpy.polynomial.hermite_e import hermegauss
from scipy import integrate
from scipy.special import exp1

from lyapunov_lab import gaussian
from lyapunov_lab.gaussian import (
    COUPLE_STEP_CAP,
    E_LOG1P_G2,
    ETA,
    LAMBDA_V,
    contraction_f,
    couple,
    eta,
    expected_f,
    gaussian_log_moments,
)
from lyapunov_lab.laws import GAUSSIAN, ROW_CHUNK, RngStream, sample_rows

E_LOG_CHI2_2 = math.exp(0.5) * float(exp1(0.5))  # E log(1 + g^2 + w^2)


def _e_log1p_g2_quad() -> float:
    # independent oracle for E log(1+g^2): adaptive quadrature of the density
    val, _ = integrate.quad(
        lambda x: math.log1p(x * x) * math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi),
        -np.inf,
        np.inf,
        epsabs=1e-14,
        epsrel=1e-13,
    )
    return val


def test_e_log1p_g2_closed_form_matches_adaptive_quadrature():
    assert abs(E_LOG1P_G2 - _e_log1p_g2_quad()) < 1e-13


def test_eta_closed_form():
    # exp(1/2) E1(1/2) - 2 E log(1+g^2), 30 digits with mpmath
    assert abs(ETA - (-0.1439957272045392)) < 1e-15


def test_lambda_v_closed_form_matches_gauss_hermite():
    assert abs(LAMBDA_V - gaussian_log_moments().e_log1p_g2 / 2.0) < 1e-8


def test_f_vanishes_at_zero_noise():
    for rho in (0.0, 0.3, 0.9, 1.0):
        assert contraction_f(rho, 0.0, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_f_limit_form_at_rho_one():
    expected = math.log(3.0) - 2.0 * math.log(2.0)
    assert contraction_f(1.0, 1.0, 1.0) == pytest.approx(expected, abs=1e-12)


def test_f_at_rho_zero():
    # a = 1, misaligned term (g - w), cross term 2gw: argument is 1+g^2+w^2
    expected = math.log(3.0) - 2.0 * math.log(2.0)
    assert contraction_f(0.0, 1.0, 1.0) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("rho", [0.0, 0.3, 0.9, math.sqrt(1.0 - 1.1e-12), 1.0 - 1e-13, 1.0])
def test_f_on_floats_equals_f_on_length_one_arrays(rho):
    # the two middle rhos sit on either side of the switch to the limit form at a^2 < 1e-12;
    # floats and arrays run the same np.log1p loop, so a scalar formula that rounds
    # differently would show here; couple's aligned steps call it on a whole chunk of rows at once
    gw = sample_rows(GAUSSIAN, RngStream(15, 0), 0, 1000, 2)
    whole = contraction_f(rho, gw[:, 0], gw[:, 1]).tolist()
    for (g, w), in_whole in zip(gw.tolist(), whole):
        val = contraction_f(rho, g, w)
        assert type(val) is float
        arr = contraction_f(rho, np.array([g]), np.array([w]))
        assert val.hex() == float(arr[0]).hex() == in_whole.hex()


@given(
    rho=st.floats(min_value=0.0, max_value=0.999999),
    g=st.floats(min_value=-50, max_value=50),
    w=st.floats(min_value=-50, max_value=50),
)
@settings(max_examples=200, deadline=None)
def test_f_finite_and_first_argument_nonnegative(rho, g, w):
    val = contraction_f(rho, g, w)
    assert math.isfinite(val)
    # the first log argument equals (a^2 + g^2 + gt^2 - 2 rho g gt)/a^2,
    # which is bounded below by (1-rho)(g^2+gt^2)/a^2 >= 0
    a = math.sqrt(1.0 - rho * rho)
    gt = rho * g + a * w
    b = ((1.0 - rho) * g - a * w) / a
    arg = 1.0 + b * b + 2.0 * g * gt / (1.0 + rho)
    ident = (a * a + g * g + gt * gt - 2.0 * rho * g * gt) / (a * a)
    assert arg == pytest.approx(ident, rel=1e-6, abs=1e-9)
    assert arg >= -1e-9


def test_expected_f_at_zero_matches_closed_decomposition():
    target = E_LOG_CHI2_2 - 2.0 * _e_log1p_g2_quad()
    assert expected_f(0.0, 80) == pytest.approx(target, abs=1e-7)


def test_expected_f_endpoints_agree():
    assert abs(expected_f(1.0, 80) - expected_f(0.0, 80)) < 1e-9


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.99])
def test_expected_f_quadrature_self_convergence(rho):
    assert abs(expected_f(rho, 80) - expected_f(rho, 120)) < 1e-6


@pytest.mark.parametrize("rho", [0.0, 0.25, 0.7, 0.95])
def test_sign_conventions_agree_in_quadrature(rho):
    # w is symmetric: the same tensor quadrature of F(rho, g, -w) gives E F
    x, wts = hermegauss(80)
    wts = wts / math.sqrt(2.0 * math.pi)
    g, w = np.meshgrid(x, x, indexing="ij")
    flipped = float(np.sum(np.outer(wts, wts) * contraction_f(rho, g, -w)))
    assert abs(flipped - expected_f(rho, 80)) < 1e-9


def test_eta_properties():
    res = eta(80, 201)
    assert res.eta_hat < 0.0
    assert res.eta_hat >= expected_f(0.5, 80)
    assert res.rho_grid.size == 201
    assert res.eta_hat == res.mean_f.max()


def test_eta_stability():
    base = eta(80, 201).eta_hat
    assert abs(base - eta(120, 201).eta_hat) < 1e-4
    assert abs(base - eta(80, 401).eta_hat) < 1e-4


def test_eta_preconditions():
    with pytest.raises(ValueError):
        eta(80, 50)
    with pytest.raises(ValueError):
        expected_f(0.5, 10)


def test_log_moments_against_closed_form_and_oracle():
    lm = gaussian_log_moments()
    assert lm.e_log1p_g2_w2 == pytest.approx(E_LOG_CHI2_2, abs=1e-6)
    assert lm.e_log1p_g2 == pytest.approx(_e_log1p_g2_quad(), abs=1e-7)
    assert 0.0 < lm.e_log1p_g2 < lm.e_log1p_g2_w2


def test_log_moment_identity_with_expected_f():
    lm = gaussian_log_moments()
    assert expected_f(1.0, 80) == pytest.approx(lm.e_log1p_g2_w2 - 2.0 * lm.e_log1p_g2, abs=1e-12)


def test_log_moment_monte_carlo_cross_check():
    # validates both the chi^2 identity and the stream's normal generator
    n = 1_000_000
    g = RngStream(8086, 0).normals(n)
    w = RngStream(8086, 1).normals(n)
    vals = np.log1p(g * g + w * w)
    se = float(np.std(vals)) / math.sqrt(n)
    assert abs(float(np.mean(vals)) - E_LOG_CHI2_2) <= 4.0 * se


def test_couple_replay_bit_identical():
    a = couple(1000, RngStream(4, 9))
    b = couple(1000, RngStream(4, 9))
    assert np.array_equal(a.rho, b.rho)
    assert np.array_equal(a.log_a2, b.log_a2)
    assert np.array_equal(a.log_b, b.log_b)


def _couple_per_row(n: int, rng: RngStream, rows=None):
    # reference: one seek_row + normals(2) per step from rho = 0,
    # or the given (g, w) rows
    rho, log_a2, log_b = np.empty(n + 1), np.empty(n + 1), np.zeros(n + 1)
    r = 0.0
    la2 = math.log1p(-r * r)
    rho[0], log_a2[0] = r, la2
    for t in range(1, n + 1):
        if rows is None:
            rng.seek_row(t - 1)
            gw = rng.normals(2)
        else:
            gw = rows[t - 1]
        f = contraction_f(r, gw[0], gw[1])
        la2 = la2 + f
        log_b[t], log_a2[t] = f, la2
        ea = math.exp(la2) if la2 < 0.0 else 1.0
        r = math.sqrt(1.0 - ea) if ea < 1.0 else 0.0
        rho[t] = r
    return rho, log_a2, log_b


def test_rho_is_exactly_one_below_the_aligned_threshold():
    assert 1.0 - math.exp(gaussian._SURE_ALIGNED) == 1.0


# stream (314, 15) first falls below _SURE_ALIGNED at step 245 and climbs back 7 times by n = 20,000
@pytest.mark.parametrize(
    "seed, stream, n, phases",
    [
        (314, 15, 1, "per-step-only"),
        (314, 15, 2, "per-step-only"),
        (314, 15, 100, "per-step-only"),
        (314, 15, ROW_CHUNK - 1, "aligned"),
        (314, 15, ROW_CHUNK, "aligned"),
        (314, 15, ROW_CHUNK + 1, "across-chunk-boundary"),
        (2**64 - 1, 3, ROW_CHUNK + 300, "across-chunk-boundary"),
        (314, 15, 20_000, "climbs-back"),
    ],
)
def test_couple_chunked_rows_match_per_row_loop(seed, stream, n, phases):
    tr = couple(n, RngStream(seed, stream))
    rho, log_a2, log_b = _couple_per_row(n, RngStream(seed, stream))
    assert tr.rho.tobytes() == rho.tobytes()
    assert tr.log_a2.tobytes() == log_a2.tobytes()
    assert tr.log_b.tobytes() == log_b.tobytes()
    below = log_a2 < gaussian._SURE_ALIGNED
    if phases == "per-step-only":
        assert not below.any()
    else:
        assert below.any()
    if phases == "across-chunk-boundary":
        # steps ROW_CHUNK and ROW_CHUNK + 1, the last of one chunk and the first of the next, both start aligned
        assert below[ROW_CHUNK - 1] and below[ROW_CHUNK]
    if phases == "climbs-back":
        # log a^2 starts at 0, so a step from below to above follows a fall
        assert np.any(below[:-1] & ~below[1:])


def test_couple_climb_far_above_the_aligned_threshold(monkeypatch):
    # a climb back from below -40 lands below about -37.4 on every stream tried, where rho still
    # rounds to 1; one huge w at row 300 lifts log a^2 far above it, so rho at step 301 must come
    # from the scalar rule and the steps after it from the per-step loop
    n = 1000
    rows = sample_rows(GAUSSIAN, RngStream(314, 15), 0, n, 2)
    rows[300, 1] = 1e4
    monkeypatch.setattr(gaussian, "normal_rows", lambda rng, first, count, k: rows[first : first + count])
    tr = couple(n, RngStream(314, 15))
    rho, log_a2, log_b = _couple_per_row(n, RngStream(314, 15), rows.tolist())
    assert log_a2[300] < gaussian._SURE_ALIGNED and 0.0 < rho[301] < 1.0
    assert tr.rho.tobytes() == rho.tobytes()
    assert tr.log_a2.tobytes() == log_a2.tobytes()
    assert tr.log_b.tobytes() == log_b.tobytes()


def test_couple_additive_identity_is_exact():
    tr = couple(2000, RngStream(6, 0))
    recomputed = tr.log_a2[0] + np.cumsum(tr.log_b[1:])
    assert np.array_equal(tr.log_a2[1:], np.array([tr.log_a2[k - 1] + tr.log_b[k] for k in range(1, 2001)]))
    assert np.allclose(tr.log_a2[1:], recomputed, rtol=0, atol=1e-9)


def test_couple_rho_range_and_consistency():
    tr = couple(3000, RngStream(7, 0))
    assert np.all(tr.rho >= 0.0) and np.all(tr.rho <= 1.0)
    live = tr.log_a2 > -300.0
    a2 = 1.0 - tr.rho[live] ** 2
    assert np.max(np.abs(np.exp(tr.log_a2[live]) - a2)) <= 1e-9


def test_couple_starts_at_rho_zero():
    tr = couple(10, RngStream(9, 0))
    assert tr.rho[0] == 0.0
    # log(1 - 0^2) as math.log1p(-0.0) gives it, so row 0 of trace.csv reads -0
    assert tr.log_a2[0] == 0.0 and math.copysign(1.0, tr.log_a2[0]) == -1.0


def test_couple_merged_steps_follow_the_limit_form():
    # once a^2 is below 1e-16, rho rounds to 1 and F takes its limit form
    tr = couple(2000, RngStream(9, 0))
    merged = np.flatnonzero(tr.rho[:-1] == 1.0) + 1
    assert merged.size > 1000
    rng = RngStream(9, 0)
    for t in merged[[0, -1]]:
        rng.seek_row(t - 1)
        gw = rng.normals(2)
        assert tr.log_b[t] == contraction_f(1.0, gw[0], gw[1])


def test_couple_drift_below_eta_plus_slack():
    tr = couple(5000, RngStream(10, 0))
    assert tr.mean_log_b <= ETA + 0.05


def test_couple_log_a2_slope_negative_across_seeds():
    negative = 0
    for stream in range(100):
        tr = couple(5000, RngStream(11, stream))
        if tr.log_a2[-1] < tr.log_a2[0]:
            negative += 1
    assert negative >= 99


def test_couple_preconditions():
    with pytest.raises(ValueError):
        couple(0, RngStream(0, 0))
    with pytest.raises(ValueError, match="cap"):
        couple(COUPLE_STEP_CAP + 1, RngStream(0, 0))
    with pytest.raises(ValueError):
        contraction_f(1.5, 0.0, 0.0)
