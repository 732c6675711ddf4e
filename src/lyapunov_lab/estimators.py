"""Growth-rate estimators with batch-means and regression standard errors."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

__all__ = [
    "Method",
    "GrowthEstimate",
    "RateComparison",
    "gamma_from_increments",
    "gamma_from_last_coordinate",
    "gamma_from_weighted_norm",
    "compare_rates",
    "pool_estimates",
]


class Method(str, Enum):
    NORM_INCREMENTS = "norm_increments"
    LAST_COORDINATE = "last_coordinate"
    WEIGHTED_NORM = "weighted_norm"
    FIBONACCI_PAIR = "fibonacci_pair"
    VT_SUM_SQUARES = "vt_sum_squares"


@dataclass(frozen=True)
class GrowthEstimate:
    """Estimated per-step exponent with its standard error."""

    gamma_hat: float
    stderr: float
    n_steps: int
    n_trajectories: int
    method: Method


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
    return GrowthEstimate(gamma, stderr, n, 1, Method.NORM_INCREMENTS)


def gamma_from_last_coordinate(
    log_series: np.ndarray,
    window_fraction: float = 0.5,
    method: Method = Method.LAST_COORDINATE,
) -> GrowthEstimate:
    """Least-squares slope of log|x_k| over the trailing window.

    -inf entries (exact zeros of the trajectory) are excluded. The slope
    variance is inflated by 1 + 2*sum of residual autocorrelations up to
    lag sqrt(m), floored at 1, because the residuals of a random-walk-like
    series are strongly dependent; the resulting interval is heuristic.
    """
    y_all = np.asarray(log_series, dtype=float)
    n = y_all.size - 1
    if n < 100:
        raise ValueError("series must cover at least 100 steps")
    if not 0.0 < window_fraction <= 1.0:
        raise ValueError("window_fraction must be in (0, 1]")
    start = int(math.floor(n * (1.0 - window_fraction)))
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
    s2 = float(resid @ resid) / (m - 2)

    lags = math.isqrt(m)
    denom = float(resid @ resid)
    factor = 1.0
    if denom > 0.0:
        acsum = 0.0
        for lag in range(1, lags + 1):
            acsum += float(resid[:-lag] @ resid[lag:]) / denom
        factor = max(1.0, 1.0 + 2.0 * acsum)
    stderr = math.sqrt(s2 / skk * factor)
    return GrowthEstimate(slope, stderr, n, 1, method)


def gamma_from_weighted_norm(est: GrowthEstimate, log_weighted_norm: float) -> GrowthEstimate:
    """Rate of the weighted norm of one run: gamma_hat + log ||Z_n||_c / n, with the plain estimate's stderr."""
    return GrowthEstimate(
        est.gamma_hat + log_weighted_norm / est.n_steps, est.stderr, est.n_steps, 1, Method.WEIGHTED_NORM
    )


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
    methods = {e.method for e in estimates}
    if len(methods) > 1:
        raise ValueError(f"cannot pool mixed methods {methods}")
    t = len(estimates)
    if t == 1:
        return estimates[0]
    gammas = np.array([e.gamma_hat for e in estimates])
    stderr = float(np.std(gammas, ddof=1) / math.sqrt(t))
    return GrowthEstimate(
        gamma_hat=float(gammas.mean()),
        stderr=stderr,
        n_steps=estimates[0].n_steps,
        n_trajectories=sum(e.n_trajectories for e in estimates),
        method=estimates[0].method,
    )
