import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from lyapunov_lab import chain, recursion
from lyapunov_lab.estimators import (
    GrowthEstimate,
    gamma_from_increments,
    gamma_from_last_coordinate,
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
    # 20 entries give batches of min(ceil(sqrt(20)), 20 // 10) = 2: identical
    # batch means kill the period-2 oscillation, and the spread left over is
    # pure float roundoff
    series = np.tile([0.2, 0.4], 10)
    est = gamma_from_increments(series)
    assert est.gamma_hat == pytest.approx(0.3, abs=1e-15)
    assert est.stderr <= 1e-15


def test_point_estimate_is_exactly_the_mean():
    series = RngStream(10, 0).normals(1000)
    for n in (10, 11, 99, 100, 101, 1000):
        assert gamma_from_increments(series[:n]).gamma_hat == float(np.mean(series[:n]))


@given(data=st.lists(st.floats(min_value=-10, max_value=10), min_size=10, max_size=400))
@settings(max_examples=60, deadline=None)
def test_batching_never_moves_the_estimate(data):
    series = np.asarray(data)
    assert gamma_from_increments(series).gamma_hat == float(np.mean(series))


@pytest.mark.parametrize("n, batch", [(10, 1), (99, 9), (100, 10), (101, 10), (1000, 32), (10_000, 100)])
def test_batch_length_is_ceil_sqrt_n_at_most_a_tenth(n, batch):
    series = RngStream(12, 0).normals(n)
    nb = n // batch
    means = series[: nb * batch].reshape(nb, batch).mean(axis=1)
    expected = float(np.std(means, ddof=1) / math.sqrt(nb))
    assert gamma_from_increments(series).stderr == expected


def test_series_too_short():
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
    monkeypatch.setattr(chain, "_kernel", lambda: None)  # the reference loop, which reads sample_rows
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
