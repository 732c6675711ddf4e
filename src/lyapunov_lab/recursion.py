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
from itertools import accumulate, compress

import numpy as np

from .errors import DegenerateDivisorError
from .laws import BERNOULLI, ROW_CHUNK, RngStream, sample_row, sample_rows
from .util import log_abs_bigint

__all__ = [
    "ExactTrajectory",
    "run_exact",
    "run_exact_float",
    "run_vt",
    "run_fibonacci",
    "log_norms",
    "EXACT_STEP_CAP",
    "VT_STEP_CAP",
    "FIB_STEP_CAP",
]

EXACT_STEP_CAP = 4096  # exact mode is a validation oracle, not a production path
VT_STEP_CAP = 20_000  # step k reads k words: 1e4 steps take about 1 s, 2e4 about 4 s
FIB_STEP_CAP = 10**8  # the series holds 8 bytes a step: 800 MB at the cap

_RENORM_HI = 2.0**64
_RENORM_LO = 2.0**-64


def _sign_row(rng: RngStream, step: int, k: int) -> np.ndarray:
    """Row `step` of k sign coefficients."""
    rng.seek_row(step)
    return sample_row(BERNOULLI, rng, k)


@dataclass
class ExactTrajectory:
    """Exact integer trajectory x[0..n] of the full-history recursion."""

    values: list[int]

    def log_abs_series(self) -> np.ndarray:
        return np.array([log_abs_bigint(v) for v in self.values])

    def log_norm_series(self) -> np.ndarray:
        """log of the l2 norm of the history x[0..k] at k = 0..n, from exact running sums of squares."""
        return np.array([0.5 * log_abs_bigint(s) for s in accumulate(v * v for v in self.values)])


def run_exact(n: int, rng: RngStream, sign_override: int | None = None) -> ExactTrajectory:
    """Exact big-integer run of the full-history recursion, n steps.

    Each step uses x[k+1] = sum_i eps[k,i] x[k-i] = 2 * (sum of the x[j]
    whose sign is +1) - S_k, where S_k = x[0] + ... + x[k] is the running
    sum of the history; the integers are those of the signed sum term by
    term. sign_override = +1 or -1 puts that sign on every coefficient, for
    deterministic checks, so that x[k+1] = +-S_k. Memory and time are
    O(n^2) bits, so n is capped at EXACT_STEP_CAP.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > EXACT_STEP_CAP:
        raise ValueError(f"n={n} exceeds exact-arithmetic cap {EXACT_STEP_CAP}")
    if sign_override not in (None, 1, -1):
        raise ValueError("constant sign override must be +1 or -1")
    values = [1]
    total = 1
    for k in range(n):
        if sign_override is None:
            # row[i] multiplies x[k-i], so the reversed row lines up with values
            plus = (_sign_row(rng, k, k + 1)[::-1] > 0).tobytes()
            x = 2 * sum(compress(values, plus)) - total
        else:
            x = sign_override * total
        values.append(x)
        total += x
    return ExactTrajectory(values=values)


def run_exact_float(n: int, rng: RngStream) -> np.ndarray:
    """Renormalized float evaluation of the same recursion and coefficients.

    Returns log|x[k]| for k = 0..n, -inf where a value is zero. The history
    is rescaled whenever its magnitude exceeds 2^64, and the log of the
    scale factors is added back at the end.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    vals = np.empty(n + 1)
    vals[0] = 1.0
    log_scale = 0.0
    for k in range(n):
        row = _sign_row(rng, k, k + 1)
        vals[k + 1] = row @ vals[k::-1]
        m = abs(vals[k + 1])
        if m > _RENORM_HI:
            vals[: k + 2] /= m
            log_scale += math.log(m)
    with np.errstate(divide="ignore"):
        return log_scale + np.log(np.abs(vals))


def run_vt(n: int, rng: RngStream) -> np.ndarray:
    """Gaussian division recursion; returns log sum of squares at k = 0..n.

    Entry k is log(t[0]^2 + ... + t[k]^2). The state is renormalized
    whenever the largest |t| since the last renormalization exceeds 2^64.
    Time is O(n^2), so n is capped at VT_STEP_CAP.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > VT_STEP_CAP:
        raise ValueError(f"n={n} exceeds the O(n^2) division-recursion cap {VT_STEP_CAP}")
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


def run_fibonacci(n: int, rng: RngStream) -> np.ndarray:
    """Random Fibonacci recursion; returns log|f[k]| for k = 0..n.

    f[0] = f[1] = 1. The pair (f[k+1], f[k]) is evolved with floating-point
    renormalization; an exact zero is recorded as -inf and the recursion
    continues through the pair, which can never vanish entirely. n is
    capped at FIB_STEP_CAP.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if n > FIB_STEP_CAP:
        raise ValueError(f"n={n} exceeds the series-length cap {FIB_STEP_CAP}")
    out = np.empty(n + 1)
    out[0] = 0.0
    out[1] = 0.0
    a, b = 1.0, 1.0  # (f[k], f[k-1]), renormalized
    log_scale = 0.0
    for first in range(1, n, ROW_CHUNK):
        rows = sample_rows(BERNOULLI, rng, first, min(ROW_CHUNK, n - first), 2).tolist()
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


def log_norms(model: str, n: int, rng: RngStream) -> np.ndarray:
    """log of the norm of a recursion's state, step by step; its increments average to the growth rate.

    exact: log ||(x[0], ..., x[k])|| at k = 0..n. vt: run_vt's log sum of
    squares at k = 0..n (twice the log norm of the history). fib:
    log ||(f[k], f[k-1])|| at k = 1..n, so n - 1 increments; the pair never
    vanishes, so unlike log|f[k]| the series has no -inf entries.
    """
    if model == "exact":
        return run_exact(n, rng).log_norm_series()
    if model == "vt":
        return run_vt(n, rng)
    if model != "fib":
        raise ValueError(f"no recursion named {model!r}")
    s = run_fibonacci(n, rng)
    return 0.5 * np.logaddexp(2.0 * s[1:], 2.0 * s[:-1])
