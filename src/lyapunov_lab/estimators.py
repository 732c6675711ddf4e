"""Growth-rate estimators: batch means of log-norm increments, pooling and comparison."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "GrowthEstimate",
    "RateComparison",
    "gamma_from_increments",
    "gamma_from_last_coordinate",
    "gamma_from_weighted_norm",
    "compare_rates",
    "pool_estimates",
]


@dataclass(frozen=True)
class GrowthEstimate:
    """Estimated per-step exponent with its standard error."""

    gamma_hat: float
    stderr: float


@dataclass(frozen=True)
class RateComparison:
    z_score: float
    verdict: bool


def gamma_from_increments(
    increments: np.ndarray,
    batch_length: int | None = None,
) -> GrowthEstimate:
    """Mean of an increment series with a batch-means standard error.

    The point estimate is exactly the arithmetic mean of the whole series;
    only the standard error depends on the batch length (default
    ceil(sqrt(n)), at most n // 10), which groups dependent increments into
    approximately independent batch averages. The series needs at least
    ten batches.
    """
    x = np.asarray(increments, dtype=float)
    n = x.size
    if batch_length is None:
        batch_length = math.isqrt(n)
        if batch_length * batch_length < n:
            batch_length += 1
        batch_length = max(1, min(batch_length, n // 10))
    if batch_length < 1:
        raise ValueError("batch_length must be >= 1")
    if n < 10 * batch_length:
        raise ValueError(f"series of length {n} needs >= {10 * batch_length} entries")
    gamma = float(np.mean(x))
    nb = n // batch_length
    batch_means = x[: nb * batch_length].reshape(nb, batch_length).mean(axis=1)
    stderr = float(np.std(batch_means, ddof=1) / math.sqrt(nb))
    return GrowthEstimate(gamma, stderr)


def gamma_from_last_coordinate(log_series: np.ndarray) -> GrowthEstimate:
    """Least-squares slope of log|x_k| over the second half of the series.

    -inf entries (exact zeros of the trajectory) are excluded. The stderr
    is the plain regression one, which ignores the strong dependence of
    the residuals: pool several trajectories for an interval.
    """
    # theorem1_rates' statistic of log|X_n| itself; perfbench/tracing.py times it
    y_all = np.asarray(log_series, dtype=float)
    n = y_all.size - 1
    if n < 100:
        raise ValueError("series must cover at least 100 steps")
    start = n // 2
    k = np.arange(start, n + 1)
    y = y_all[start:]
    usable = np.isfinite(y)
    k, y = k[usable], y[usable]
    m = k.size
    if m < 50:
        raise ValueError(f"only {m} usable points in window, need >= 50")

    kc = k - k.mean()
    skk = float(kc @ kc)
    slope = float(kc @ (y - y.mean())) / skk
    intercept = float(y.mean() - slope * k.mean())
    resid = y - (intercept + slope * k)
    stderr = math.sqrt(float(resid @ resid) / (m - 2) / skk)
    return GrowthEstimate(slope, stderr)


def gamma_from_weighted_norm(est: GrowthEstimate, log_weighted_norm: float, n: int) -> GrowthEstimate:
    """Rate of the weighted norm of an n-step run: gamma_hat + log ||Z_n||_c / n, with est's stderr."""
    return GrowthEstimate(est.gamma_hat + log_weighted_norm / n, est.stderr)


def compare_rates(a: GrowthEstimate, b: GrowthEstimate) -> RateComparison:
    """Three-sigma consistency verdict on two rate estimates."""
    if not (math.isfinite(a.gamma_hat) and math.isfinite(b.gamma_hat)):
        raise ValueError("rate estimates must be finite")
    diff = a.gamma_hat - b.gamma_hat
    joint = math.hypot(a.stderr, b.stderr)
    if joint == 0.0:
        z = 0.0 if diff == 0.0 else math.inf
    else:
        z = diff / joint
    verdict = abs(diff) <= 3.0 * joint
    return RateComparison(z_score=z, verdict=verdict)


def pool_estimates(estimates: Sequence[GrowthEstimate]) -> GrowthEstimate:
    """Pool estimates from independent trajectories of a common experiment.

    The pooled value is the mean of the per-trajectory estimates and the
    standard error is the between-trajectory spread, which needs no model
    of the within-trajectory dependence.
    """
    if not estimates:
        raise ValueError("need at least one estimate")
    t = len(estimates)
    if t == 1:
        return estimates[0]
    gammas = np.array([e.gamma_hat for e in estimates])
    stderr = float(np.std(gammas, ddof=1) / math.sqrt(t))
    return GrowthEstimate(float(gammas.mean()), stderr)
