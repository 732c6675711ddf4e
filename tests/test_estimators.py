import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from lyapunov_lab import recursion
from lyapunov_lab.estimators import (
    GrowthEstimate,
    compare_rates,
    gamma_from_increments,
    gamma_from_last_coordinate,
    gamma_from_weighted_norm,
    pool_estimates,
)
from lyapunov_lab.laws import RngStream
from lyapunov_lab.recursion import ExactTrajectory, run_exact

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def test_constant_series():
    series = np.full(100, 0.5 * math.log(2.0))
    est = gamma_from_increments(series)
    assert est.gamma_hat == pytest.approx(0.5 * math.log(2.0), abs=1e-15)
    assert est.stderr == 0.0


def test_alternating_series_batch_two():
    # identical batch means kill the period-2 oscillation; the spread left
    # over is pure float roundoff
    series = np.tile([0.2, 0.4], 10)
    est = gamma_from_increments(series, batch_length=2)
    assert est.gamma_hat == pytest.approx(0.3, abs=1e-15)
    assert est.stderr <= 1e-15


def test_point_estimate_is_exactly_the_mean():
    rng = RngStream(10, 0)
    series = rng.normals(1000)
    mean = float(np.mean(series))
    for batch in (1, 7, 10, 31, 100):
        est = gamma_from_increments(series, batch_length=batch)
        assert est.gamma_hat == mean


@given(
    data=st.lists(st.floats(min_value=-10, max_value=10), min_size=40, max_size=120),
    batch=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_batch_length_never_moves_the_estimate(data, batch):
    series = np.asarray(data)
    est = gamma_from_increments(series, batch_length=batch)
    assert est.gamma_hat == float(np.mean(series))


def test_series_too_short():
    with pytest.raises(ValueError, match="series of length 50 needs >= 100 entries"):
        gamma_from_increments(np.ones(50), batch_length=10)
    with pytest.raises(ValueError, match="series of length 9 needs >= 10 entries"):
        gamma_from_increments(np.ones(9))


def test_stderr_shrinks_with_doubling():
    # iid increments: doubling n should shrink the batch-means stderr by
    # roughly sqrt(2); the band is wide to absorb estimator noise
    big = RngStream(21, 0).normals(100_000)
    small = big[:50_000]
    ratio = gamma_from_increments(small).stderr / gamma_from_increments(big).stderr
    assert 1.2 <= ratio <= 1.7


def test_slope_of_deterministic_doubling():
    # the all-plus trajectory of the full-history recursion: 1, 1, 2, 4, ...
    traj = ExactTrajectory([1] + [2 ** max(k - 1, 0) for k in range(1, 301)])
    est = gamma_from_last_coordinate(traj.log_abs_series())
    assert est.gamma_hat == pytest.approx(math.log(2.0), abs=1e-6)


def test_rate_of_classical_fibonacci(monkeypatch):
    monkeypatch.setattr(recursion, "sample_rows", lambda law, rng, first, count, k: np.ones((count, k)))
    est = gamma_from_increments(np.diff(recursion.log_norms("fib", 10_000, RngStream(0))))
    assert est.gamma_hat == pytest.approx(math.log(GOLDEN), abs=1e-4)


def test_exact_vs_increments_consistency_small():
    # same seed, two different estimators of the same trajectory family
    traj = run_exact(2000, RngStream(5150, 0))
    a = gamma_from_last_coordinate(traj.log_abs_series())
    assert a.gamma_hat > 0
    assert a.stderr > 0


def test_window_errors():
    with pytest.raises(ValueError, match="at least 100 steps"):
        gamma_from_last_coordinate(np.zeros(50))
    series = np.full(201, float("-inf"))
    series[:3] = 0.0
    with pytest.raises(ValueError, match="usable points"):
        gamma_from_last_coordinate(series)


def test_minus_inf_entries_excluded():
    rng = RngStream(77, 0)
    y = np.cumsum(np.abs(rng.normals(400))) * 0.1
    y_broken = y.copy()
    y_broken[250] = float("-inf")
    a = gamma_from_last_coordinate(y)
    b = gamma_from_last_coordinate(y_broken)
    assert abs(a.gamma_hat - b.gamma_hat) < 0.05
    assert np.isfinite(b.gamma_hat)


def test_compare_rates_trivia():
    e1 = GrowthEstimate(0.5, 0.01)
    same = compare_rates(e1, e1)
    assert same.verdict and same.z_score == 0.0
    e2 = GrowthEstimate(0.8, 0.01)
    apart = compare_rates(e1, e2)
    assert not apart.verdict
    assert abs(apart.z_score) > 20


def test_weighted_norm_rate_adds_the_offset_over_n():
    est = GrowthEstimate(0.25, 0.01)
    assert gamma_from_weighted_norm(est, -2.0, 1000) == GrowthEstimate(0.25 - 2.0 / 1000, 0.01)


def test_compare_rates_requires_finite():
    e1 = GrowthEstimate(float("nan"), 0.01)
    e2 = GrowthEstimate(0.5, 0.01)
    with pytest.raises(ValueError):
        compare_rates(e1, e2)


def test_pool_estimates():
    ests = [
        GrowthEstimate(0.30, 0.01),
        GrowthEstimate(0.32, 0.01),
        GrowthEstimate(0.31, 0.01),
    ]
    pooled = pool_estimates(ests)
    assert pooled.gamma_hat == pytest.approx(0.31, abs=1e-12)
    assert pooled.stderr == pytest.approx(np.std([0.30, 0.32, 0.31], ddof=1) / math.sqrt(3), rel=1e-12)


def test_pool_invariant_under_trajectory_permutation():
    ests = [
        GrowthEstimate(g, 0.01)
        for g in (0.28, 0.34, 0.30, 0.29)
    ]
    a = pool_estimates(ests)
    b = pool_estimates(list(reversed(ests)))
    assert a.gamma_hat == pytest.approx(b.gamma_hat, rel=1e-14)
    assert a.stderr == pytest.approx(b.stderr, rel=1e-12)
