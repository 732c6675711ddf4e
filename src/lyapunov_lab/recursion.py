"""Direct simulation of the three concrete recursions.

* run_exact / run_exact_float: the full-history signed-sum recursion
  x[k+1] = sum_i eps[k,i] * x[k-i] with x[0] = 1, in exact big-integer
  arithmetic and in renormalized floating point.
* run_vt: the Gaussian condition-number recursion
  t[n] = sum_{i=1..n} a[i,n] t[n-i] / a[n,n], reported through the running
  log of the partial sums of squares (t[0]^2 included).
* run_fibonacci: the two-term random Fibonacci recursion
  f[k+1] = eps[k,0] f[k] + eps[k,1] f[k-1].

Each step k draws its coefficient row at rng row k (see laws.ROW_STRIDE),
so the exact and floating-point paths of the same seed see identical
coefficients even though they consume different numbers of words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DegenerateDivisorError, MemoryBudgetError
from .laws import BERNOULLI, ROW_CHUNK, CoefficientLaw, RngStream, sample_row, sample_rows
from .util import log_abs_bigint

__all__ = [
    "ExactTrajectory",
    "FloatTrajectory",
    "run_exact",
    "run_exact_float",
    "run_vt",
    "run_fibonacci",
    "EXACT_STEP_CAP",
    "VT_STEP_CAP",
]

EXACT_STEP_CAP = 4096  # exact mode is a validation oracle, not a production path
VT_STEP_CAP = 20_000  # step k reads k words: 1e4 steps take about 1 s, 2e4 about 4 s

SignOverride = Union[int, Sequence[int], None]

_RENORM_HI = 2.0**64
_RENORM_LO = 2.0**-64


class _SignSource:
    """Feeds coefficient rows either from the rng or from a test override.

    An int override broadcasts that sign everywhere; a sequence override is
    consumed across rows in order. Overrides exist for deterministic tests
    of the recursions only.
    """

    def __init__(self, law: CoefficientLaw, rng: RngStream, override: SignOverride):
        self._law = law
        self._rng = rng
        self._override = override
        self._pos = 0
        if isinstance(override, (int, np.integer)) and override not in (1, -1):
            raise ValueError("constant sign override must be +1 or -1")

    def row(self, step: int, k: int) -> np.ndarray:
        """Row `step` of k coefficients."""
        if self._override is None:
            self._rng.seek_row(step)
            return sample_row(self._law, self._rng, k)
        return self._overridden(1, k)[0]

    def rows(self, first: int, count: int, k: int) -> np.ndarray:
        """Rows first .. first+count-1 of k coefficients each, shape (count, k)."""
        if self._override is None:
            return sample_rows(self._law, self._rng, first, count, k)
        return self._overridden(count, k)

    def _overridden(self, count: int, k: int) -> np.ndarray:
        if isinstance(self._override, (int, np.integer)):
            return np.full((count, k), float(self._override))
        size = count * k
        chunk = np.asarray(self._override[self._pos : self._pos + size], dtype=float)
        if chunk.size != size or not np.all(np.abs(chunk) == 1.0):
            raise ValueError("sign override exhausted or contains values other than +-1")
        self._pos += size
        return chunk.reshape(count, k)


@dataclass
class ExactTrajectory:
    """Exact integer trajectory x[0..n] of the full-history recursion."""

    values: list[int]
    n: int

    def log_abs(self, k: int) -> float:
        return log_abs_bigint(self.values[k])

    def log_abs_series(self) -> np.ndarray:
        return np.array([log_abs_bigint(v) for v in self.values])

    def l2_log_norm(self) -> float:
        """log of the l2 norm of the whole history, computed exactly."""
        return 0.5 * log_abs_bigint(sum(v * v for v in self.values))


@dataclass
class FloatTrajectory:
    """Renormalized float trajectory: value[k] = scaled_values[k] * exp(log_scale)."""

    log_scale: float
    scaled_values: np.ndarray
    n: int

    def log_abs(self, k: int) -> float:
        v = abs(self.scaled_values[k])
        return self.log_scale + (math.log(v) if v > 0 else float("-inf"))

    def log_abs_series(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return self.log_scale + np.log(np.abs(self.scaled_values))


def run_exact(
    n: int,
    rng: RngStream,
    sign_override: SignOverride = None,
) -> ExactTrajectory:
    """Exact big-integer run of the full-history recursion, n steps.

    Memory and time are O(n^2) bits, so n is capped at EXACT_STEP_CAP.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > EXACT_STEP_CAP:
        raise MemoryBudgetError(f"n={n} exceeds exact-arithmetic cap {EXACT_STEP_CAP}")
    src = _SignSource(BERNOULLI, rng, sign_override)
    values = [1]
    for k in range(n):
        row = src.row(k, k + 1)
        total = 0
        for s, x in zip(row, reversed(values)):
            total += x if s > 0 else -x
        values.append(total)
    return ExactTrajectory(values=values, n=n)


def run_exact_float(
    n: int,
    rng: RngStream,
    sign_override: SignOverride = None,
) -> FloatTrajectory:
    """Renormalized float evaluation of the same recursion and coefficients.

    History is rescaled whenever its magnitude leaves [2^-64, 2^64]; the
    accumulated log of the scale factors is carried in log_scale.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    src = _SignSource(BERNOULLI, rng, sign_override)
    vals = np.empty(n + 1)
    vals[0] = 1.0
    log_scale = 0.0
    for k in range(n):
        row = src.row(k, k + 1)
        vals[k + 1] = row @ vals[k::-1]
        m = abs(vals[k + 1])
        if m > _RENORM_HI:
            vals[: k + 2] /= m
            log_scale += math.log(m)
    return FloatTrajectory(log_scale=log_scale, scaled_values=vals, n=n)


def run_vt(n: int, rng: RngStream) -> np.ndarray:
    """Gaussian division recursion; returns log sum of squares at k = 0..n.

    Entry k is log(t[0]^2 + ... + t[k]^2). The state is renormalized
    whenever the largest |t| since the last renormalization exceeds 2^64.
    Time is O(n^2), so n is capped at VT_STEP_CAP.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > VT_STEP_CAP:
        raise MemoryBudgetError(f"n={n} exceeds the O(n^2) division-recursion cap {VT_STEP_CAP}")
    t = np.empty(n + 1)
    t[0] = 1.0
    log_scale = 0.0
    sumsq = 1.0
    cur_max = 1.0
    out = np.empty(n + 1)
    out[0] = 0.0
    for k in range(1, n + 1):
        rng.seek_row(k)
        row = rng.normals(k)
        div = row[k - 1]
        if abs(div) < 1e-300:
            raise DegenerateDivisorError(
                f"|a[n,n]|={abs(div):.3e} below 1e-300 at step {k}; redrawing would bias the law"
            )
        val = (row @ t[k - 1 :: -1]) / div
        t[k] = val
        sumsq += val * val
        out[k] = 2.0 * log_scale + math.log(sumsq)
        aval = abs(val)
        if aval > cur_max:
            cur_max = aval
        if cur_max > _RENORM_HI:
            # the max only grows between renormalizations, so dividing by it
            # puts the state max at exactly 1
            t[: k + 1] /= cur_max
            sumsq /= cur_max * cur_max
            log_scale += math.log(cur_max)
            cur_max = 1.0
    return out


def run_fibonacci(
    n: int,
    rng: RngStream,
    sign_override: SignOverride = None,
) -> np.ndarray:
    """Random Fibonacci recursion; returns log|f[k]| for k = 0..n.

    f[0] = f[1] = 1. The pair (f[k+1], f[k]) is evolved with floating-point
    renormalization; an exact zero is recorded as -inf and the recursion
    continues through the pair, which can never vanish entirely.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    src = _SignSource(BERNOULLI, rng, sign_override)
    out = np.empty(n + 1)
    out[0] = 0.0
    out[1] = 0.0
    a, b = 1.0, 1.0  # (f[k], f[k-1]), renormalized
    log_scale = 0.0
    for first in range(1, n, ROW_CHUNK):
        rows = src.rows(first, min(ROW_CHUNK, n - first), 2).tolist()
        for k, (e0, e1) in enumerate(rows, start=first):
            a, b = e0 * a + e1 * b, a
            aa = abs(a)
            out[k + 1] = log_scale + (math.log(aa) if aa > 0.0 else float("-inf"))
            m = max(aa, abs(b))
            if m > _RENORM_HI or m < _RENORM_LO:
                a /= m
                b /= m
                log_scale += math.log(m)
    return out
