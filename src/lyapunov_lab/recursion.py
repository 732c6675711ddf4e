"""Direct simulation of the three concrete recursions.

* run_exact / run_exact_float: the full-history signed-sum recursion
  x[k+1] = sum_i eps[k,i] * x[k-i] with x[0] = 1, in exact big-integer
  arithmetic and in renormalized floating point. run_exact runs through
  exact_run of the compiled kernel (see chain._kernel), which adds the
  integers in 64-bit limbs and draws its signs itself, or the reference
  loop _exact_reference in Python integers.
* run_vt: the Gaussian condition-number recursion
  t[n] = sum_{i=1..n} a[i,n] t[n-i] / a[n,n], reported through the running
  log of the partial sums of squares (t[0]^2 included), through vt_run of
  the compiled kernel, which draws its normals itself (see
  chain._kernel_for), or the reference loop _vt_reference.
* run_fibonacci: the two-term random Fibonacci recursion
  f[k+1] = eps[k,0] f[k] + eps[k,1] f[k-1], through fib_run of the
  compiled kernel (see chain._kernel) or the reference loop
  _fibonacci_reference.

Each compiled loop gives the numbers of its reference loop bit for bit.

Each step k draws its coefficient row at rng row k (see laws.ROW_STRIDE),
so the exact and floating-point paths of the same seed see identical
coefficients even though they consume different numbers of words.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from itertools import accumulate, compress

import numpy as np

from . import chain
from .laws import BERNOULLI, GAUSSIAN, ROW_CHUNK, RngStream, sample_row, sample_rows
from .util import log_abs_bigint

__all__ = [
    "DegenerateDivisorError",
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

EXACT_STEP_CAP = 4096  # the kernel holds (n + 1)((n + 1) // 64 + 2) 8-byte limbs: 2.2 MB at the cap
VT_STEP_CAP = 20_000  # step k reads k words: 1e4 steps take about 0.5 s in the kernel, 2e4 about 2.4 s
FIB_STEP_CAP = 10**8  # the series holds 8 bytes a step: 800 MB at the cap

_RENORM_HI = 2.0**64
_RENORM_LO = 2.0**-64


class DegenerateDivisorError(RuntimeError):
    """A divisor coefficient fell below the representable threshold (CLI exit 1).

    Redrawing would bias the coefficient law, so the run is aborted instead.
    """


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


def run_exact(n: int, rng: RngStream) -> ExactTrajectory:
    """Exact big-integer run of the full-history recursion, n steps.

    Each step uses x[k+1] = sum_i eps[k,i] x[k-i] = 2 * (sum of the x[j]
    whose sign is +1) - S_k, where S_k = x[0] + ... + x[k] is the running
    sum of the history; the integers are those of the signed sum term by
    term. The compiled kernel runs the loop (exact_run) where it loads,
    _exact_reference otherwise; both give the same integers. n is capped
    at EXACT_STEP_CAP.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > EXACT_STEP_CAP:
        raise ValueError(f"n={n} exceeds exact-arithmetic cap {EXACT_STEP_CAP}")
    kernel = chain._kernel()
    values = _exact_reference(n, rng) if kernel is None else _exact_compiled(kernel, n, rng)
    return ExactTrajectory(values=values)


def _exact_compiled(kernel: ctypes.CDLL, n: int, rng: RngStream) -> list[int]:
    """x[0 .. n] of run_exact through the kernel's exact_run, rebuilt as Python integers."""
    # |x[k]| <= 2^(k-1), so w 64-bit limbs hold every value with its sign bit
    w = (n + 1) // 64 + 2
    x = np.empty((w, n + 1), dtype=np.uint64)
    total = np.empty(w, dtype=np.uint64)
    mask = np.empty(n + 1, dtype=np.uint64)
    live = kernel.exact_run(rng.seed, rng.stream_id, n, w, x.ctypes.data, total.ctypes.data, mask.ctypes.data)
    # the limbs are limb-major; value j is the little-endian run of column j's live limbs
    size = 8 * live
    data = np.ascontiguousarray(x[:live].T, dtype="<u8").tobytes()
    return [int.from_bytes(data[i : i + size], "little", signed=True) for i in range(0, len(data), size)]


def _exact_reference(n: int, rng: RngStream) -> list[int]:
    """x[0 .. n] of run_exact in Python big integers; exact_run must give the same integers."""
    values = [1]
    total = 1
    for k in range(n):
        # row[i] multiplies x[k-i], so the reversed row lines up with values
        plus = (_sign_row(rng, k, k + 1)[::-1] > 0).tobytes()
        x = 2 * sum(compress(values, plus)) - total
        values.append(x)
        total += x
    return values


def run_exact_float(n: int, rng: RngStream) -> np.ndarray:
    """Renormalized float evaluation of the same recursion and coefficients.

    Returns log|x[k]| for k = 0..n, -inf where a value is zero. The history
    is rescaled whenever its magnitude exceeds 2^64, and the log of the
    scale factors is added back at the end.
    """
    # benchmark v2 deletes this: perfbench/tracing.py times it under recursion
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
    Time is O(n^2), so n is capped at VT_STEP_CAP. The compiled kernel
    runs the loop (vt_run) where its Gaussian draws load (see
    chain._kernel_for), _vt_reference otherwise; both give the same
    numbers bit for bit and return the steps they did, and a run that
    stops short raises DegenerateDivisorError here.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > VT_STEP_CAP:
        raise ValueError(f"n={n} exceeds the O(n^2) division-recursion cap {VT_STEP_CAP}")
    t = np.empty(n + 1)
    t[0] = 1.0
    out = np.empty(n + 1)
    out[0] = 0.0
    kernel = chain._kernel_for(GAUSSIAN)
    if kernel is None:
        done = _vt_reference(n, rng, t, out)
    else:
        done = kernel.vt_run(rng.seed, rng.stream_id, n, t.ctypes.data, out.ctypes.data)
    if done < n:
        # the word whose top 53 bits are 2^52 gives the uniform 0.5 and so a
        # divisor of exactly 0, once per 2^53 draws
        raise DegenerateDivisorError(f"|a[n,n]| below 1e-300 at step {done + 1}; redrawing would bias the law")
    return out


def _vt_reference(n: int, rng: RngStream, t: np.ndarray, out: np.ndarray) -> int:
    """Steps 1 .. n of run_vt into t[1 .. n] and out[1 .. n] in numpy; vt_run must match it bit for bit.

    Returns the steps done: n, or k - 1 where the divisor of step k falls
    below 1e-300. The dot product is chain._seq_sum's term-by-term sum,
    which the kernel adds in the same order.
    """
    log_scale = 0.0
    sumsq = 1.0
    cur_max = 1.0
    for k in range(1, n + 1):
        rng.seek_row(k)
        row = rng.normals(k)
        div = row[k - 1]
        if abs(div) < 1e-300:
            return k - 1
        val = chain._seq_sum(row * t[k - 1 :: -1]) / div
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
    return n


def run_fibonacci(n: int, rng: RngStream) -> np.ndarray:
    """Random Fibonacci recursion; returns log|f[k]| for k = 0..n.

    f[0] = f[1] = 1. The pair (f[k+1], f[k]) is evolved with floating-point
    renormalization; an exact zero is recorded as -inf and the recursion
    continues through the pair, which can never vanish entirely. n is
    capped at FIB_STEP_CAP. The compiled kernel runs the loop when it can
    be built, _fibonacci_reference otherwise.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if n > FIB_STEP_CAP:
        raise ValueError(f"n={n} exceeds the series-length cap {FIB_STEP_CAP}")
    out = np.empty(n + 1)
    out[0] = 0.0
    out[1] = 0.0
    kernel = chain._kernel()
    if kernel is None:
        _fibonacci_reference(n, rng, out)
    else:
        kernel.fib_run(rng.seed, rng.stream_id, n, out.ctypes.data)
    return out


def _fibonacci_reference(n: int, rng: RngStream, out: np.ndarray) -> None:
    """Steps 1 .. n-1 of run_fibonacci into out[2 .. n] in Python; fib_run must match it bit for bit."""
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
