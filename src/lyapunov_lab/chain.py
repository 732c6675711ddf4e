"""Renormalized state dynamics of the full-history recursion.

The state after n steps is the unit vector z whose entries are the history
(newest first) divided by its l2 norm. One step draws a fresh coefficient
row, computes g = <row, z>, prepends g, and renormalizes; the log norm of
the trajectory accumulates the per-step increment 0.5*log(1+g^2). Because
the entries of z decay geometrically, a tiny trailing block can be dropped
each step, giving bounded memory with an auditable error budget.

run_chain runs one trajectory through a compiled kernel (_chain_kernel.c),
or through the reference loop of _step where no C compiler is found; both
give the same numbers bit for bit. An ensemble is a loop over run_chain,
one stream per trajectory. This module also builds and loads the kernel
for the other loops that run in it (exact, fib, vt, couple's rows and the
CSV writer's numbers; see _kernel), and checks its normals against
scipy's ndtri when it loads.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .bounds import alpha_bound
from .laws import GAUSSIAN, CoefficientLaw, RngStream, _check_rows, draws, sample_row, sample_rows

__all__ = [
    "ChainRun",
    "TruncationBudgetError",
    "weighted_norm",
    "run_chain",
    "chain_engine",
    "normal_rows",
    "DEFAULT_TRUNC_TOL",
    "MIN_TRUNC_TOL",
    "MAX_TRUNC_TOL",
    "CHAIN_STEP_CAP",
]

DEFAULT_TRUNC_TOL = 1e-14
MIN_TRUNC_TOL = 1e-150  # its square is a normal double; below about 2e-162 tol * tol is 0 and nothing drops
MAX_TRUNC_TOL = 1e-8  # looser tolerances drop visible mass: at 0.5 the support fell to 2
CHAIN_STEP_CAP = 10**8  # the increments hold 8 bytes a step: 800 MB at the cap
# the cap also keeps every row below 2^34, past which a row's Philox counter leaves its low 64-bit limb


class TruncationBudgetError(RuntimeError):
    """Cumulative tail mass dropped by truncation exceeded its budget (CLI exit 1)."""


@dataclass
class ChainRun:
    """Everything a chain run produces for the estimators and tail checks.

    coords is the final unit state, newest first; log_norm is the sum of
    the increments, added left to right from 0.0.
    """

    increments: np.ndarray
    checkpoint_steps: np.ndarray
    weighted_offsets: np.ndarray
    tail_means: np.ndarray
    coords: np.ndarray
    log_norm: float
    dropped_mass: float


def _seq_sum(x: np.ndarray):
    """Sum one term after another in index order, as the compiled kernel does.

    np.add.reduce and the BLAS dot products switch to pairwise or blocked
    orders that depend on the array's length; an accumulate does not.
    """
    return np.add.accumulate(x, axis=0)[-1]


def _truncate(coords: np.ndarray, tol: float) -> tuple[np.ndarray, float]:
    """Drop the longest trailing block of l2 mass < tol; keep >= 1 entry."""
    if tol <= 0.0 or coords.size < 2:
        return coords, 0.0
    # walk backwards while the trailing block stays under tol; the block is
    # almost always 0 or 1 entries, so this beats a full cumulative sum
    t2 = tol * tol
    tail_sq = 0.0
    j = 0
    for idx in range(coords.size - 1, 0, -1):
        x = float(coords[idx])
        grown = tail_sq + x * x  # x * x, not x ** 2, which libm's pow may round otherwise
        if grown >= t2:
            break
        tail_sq = grown
        j += 1
    if j == 0:
        return coords, 0.0
    dropped = math.sqrt(tail_sq)
    coords = coords[: coords.size - j]
    rem_sq = 1.0 - tail_sq
    if rem_sq < 1.0:  # only renormalize when the drop is visible in float64
        coords = coords / math.sqrt(_seq_sum(coords * coords))
    return coords, dropped


def _step(
    coords: np.ndarray, law: CoefficientLaw, rng: RngStream, step: int, trunc_tol: float
) -> tuple[np.ndarray, float, float]:
    """One chain step on the coefficient row at rng row `step`.

    Returns (new coords, increment, dropped mass).
    """
    rng.seek_row(step)
    row = sample_row(law, rng, coords.size)
    g = float(_seq_sum(row * coords))
    inc = 0.5 * math.log1p(g * g)
    new = np.empty(coords.size + 1)
    new[0] = g
    new[1:] = coords
    new /= math.sqrt(_seq_sum(new * new))
    new, dropped = _truncate(new, trunc_tol)
    return new, inc, dropped


def weighted_norm(z: np.ndarray, c: float) -> float:
    """Exponentially weighted norm sqrt(sum_i e^(c i) z_i^2) of the coordinates z."""
    return math.sqrt(_seq_sum(np.exp(c * np.arange(z.size)) * (z * z)))


def _check_run(law: CoefficientLaw, n: int, c: float, trunc_tol: float) -> float:
    """Validate a run's parameters; returns its dropped-mass budget."""
    if not 0.0 <= c < math.inf:
        raise ValueError(f"weight exponent c must be finite and >= 0, got {c}")
    if n < 100:
        raise ValueError("n must be >= 100")
    if n > CHAIN_STEP_CAP:
        raise ValueError(f"n={n} exceeds the chain's step cap {CHAIN_STEP_CAP}")
    if not MIN_TRUNC_TOL <= trunc_tol <= MAX_TRUNC_TOL:
        raise ValueError(f"trunc_tol={trunc_tol} outside [{MIN_TRUNC_TOL:g}, {MAX_TRUNC_TOL:g}]")
    if c > 0.0:
        sigma2, d4 = law.sigma2, law.fourth_moment
        neg_log_alpha = -math.log(alpha_bound(sigma2, d4).alpha)
        if c >= neg_log_alpha:
            raise ValueError(
                f"c={c} outside (0, {neg_log_alpha:.6f}), the valid range for these moments"
            )
    # _truncate drops less than trunc_tol per step, so a run drops less than this
    return trunc_tol * n


def run_chain(
    law: CoefficientLaw,
    n: int,
    rng: RngStream,
    c: float = 0.0,
    trunc_tol: float = DEFAULT_TRUNC_TOL,
) -> ChainRun:
    """Run n chain steps from e0, collecting estimator and tail statistics.

    Returns the per-step increments, the weighted-norm log offsets at 100
    checkpoints, and the per-index mean |z_i| over the last half of the run.
    For c > 0 the weight must satisfy c < -log(alpha) for the law's moments,
    the regime where the weighted and plain rates provably agree.
    trunc_tol must lie in [MIN_TRUNC_TOL, MAX_TRUNC_TOL], and n in [100, CHAIN_STEP_CAP].

    The compiled kernel runs the trajectory when it can be built (see
    chain_engine), the reference loop _run_reference otherwise; both give
    the same numbers bit for bit. The rows are read by counter, and where
    rng is left afterwards depends on the engine. The engines only step:
    the checkpoint stride, the tail window and the ChainRun are decided here.
    """
    budget = _check_run(law, n, c, trunc_tol)
    stride = max(1, n // 100)
    half = n // 2  # the tail sums cover steps half+1 .. n
    kernel = _kernel_for(law)
    if kernel is None:
        parts = _run_reference(law, n, rng, c, trunc_tol, stride, half)
    else:
        parts = _run_compiled(kernel.chain_run, law is GAUSSIAN, n, rng, c, trunc_tol, stride, half)
    increments, norms, tail_sums, coords, log_norm, dropped = parts
    if dropped > budget:
        raise TruncationBudgetError(f"dropped l2 mass {dropped:.3e} exceeds budget {budget:.3e}")
    return ChainRun(
        increments=increments,
        checkpoint_steps=stride * np.arange(1, n // stride + 1, dtype=np.int64),
        # math.log, not np.log, which may round differently
        weighted_offsets=np.array([math.log(x) for x in norms.tolist()]),
        tail_means=tail_sums / (n - half),
        coords=coords,
        log_norm=log_norm,
        dropped_mass=dropped,
    )


# what an engine returns: increments, the weighted norm at every stride-th
# step, the per-index sums of |z_i| over steps half+1 .. n (as long as the
# longest state among them), the final coords, log_norm and the dropped mass
_Parts = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float, float]


def _run_reference(
    law: CoefficientLaw, n: int, rng: RngStream, c: float, trunc_tol: float, stride: int, half: int
) -> _Parts:
    """The trajectory in Python, one _step after another; the compiled kernel must match it bit for bit."""
    coords = np.array([1.0])
    log_norm = 0.0
    dropped_total = 0.0
    increments = np.empty(n)
    norms = np.empty(n // stride)
    tail = np.zeros(0)
    for t in range(n):
        coords, inc, dropped = _step(coords, law, rng, t, trunc_tol)
        log_norm += inc
        dropped_total += dropped
        increments[t] = inc
        step = t + 1
        if step % stride == 0:
            norms[step // stride - 1] = weighted_norm(coords, c)
        if step > half:
            if coords.size > tail.size:
                tail = np.concatenate([tail, np.zeros(coords.size - tail.size)])
            tail[: coords.size] += np.abs(coords)
    return increments, norms, tail, coords, log_norm, dropped_total


# ---------------------------------------------------------------------------
# compiled kernel

_KERNEL_SOURCE = Path(__file__).with_name("_chain_kernel.c")
# -ffp-contract=off: a fused multiply-add rounds once where the reference rounds twice
_KERNEL_FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")
_KERNEL_ROWS = 512  # initial state buffer; the live support settles near 110-130 at the default tolerance


def chain_engine(law: CoefficientLaw = GAUSSIAN) -> str:
    """The engine of the law's chains: "compiled" for the C kernel, "python" for the reference loop.

    The Gaussian law runs the kernel only where its normals pass the load
    check (see _kernel), so the default reads "compiled" only where every
    loop of the kernel runs: the chain under both laws, exact, fib, vt and couple.
    """
    return "python" if _kernel_for(law) is None else "compiled"


def _kernel_for(law: CoefficientLaw) -> Optional[ctypes.CDLL]:
    """The kernel that draws the law's rows, or None where the reference loops must draw them.

    None for every law where the kernel cannot be built, and for the
    Gaussian law also where the kernel's normals failed their load check.
    """
    kernel = _kernel()
    if kernel is None or (law is GAUSSIAN and not kernel.normals_exact):
        return None
    return kernel


@functools.cache
def _kernel() -> Optional[ctypes.CDLL]:
    """The library of _chain_kernel.c, its functions typed, or None where it cannot be built.

    run_chain, recursion.run_exact, recursion.run_fibonacci,
    recursion.run_vt and gaussian.couple run their reference loops, and
    cli._write_csv formats every cell in Python, where it is None. Built
    on first use with gcc into the cache directory, under a name keyed by
    the source, the flags and the compiler binary (its resolved path, size
    and modification time), so that an edit or a new compiler builds
    afresh, and loading a cached build starts no process. The build
    writes a temporary file and renames it into place, so processes that
    build at once do not see each other's partial files. On load,
    normals_exact records whether the kernel's normals equal laws.draws
    on _check_words.
    """
    gcc = shutil.which("gcc")
    if gcc is None:
        return None
    try:
        source = _KERNEL_SOURCE.read_bytes()
        compiler = os.path.realpath(gcc)
        stat = os.stat(compiler)
        stamp = f"{compiler} {stat.st_size} {stat.st_mtime_ns}".encode()
        key = hashlib.sha256(b"\0".join([source, " ".join(_KERNEL_FLAGS).encode(), stamp]))
        path = os.path.join(_cache_dir(), f"chain_kernel-{key.hexdigest()[:16]}.so")
        if not os.path.exists(path):
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(path))
            os.close(fd)
            try:
                cmd = [gcc, *_KERNEL_FLAGS, "-o", tmp, str(_KERNEL_SOURCE), "-lm"]
                subprocess.run(cmd, capture_output=True, check=True)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        lib = _load(path)
    except (OSError, subprocess.SubprocessError):
        return None
    lib.normals_exact = _normals_exact(lib)
    return lib


def _load(path: str) -> ctypes.CDLL:
    """The kernel library at path, its functions typed."""
    u64, i64, ptr = ctypes.c_uint64, ctypes.c_int64, ctypes.c_void_p
    lib = ctypes.CDLL(path)
    lib.chain_run.restype = i64
    lib.chain_run.argtypes = [u64, u64, ctypes.c_int, i64, i64, ctypes.c_double, ptr, i64, ptr, ptr, i64] + [ptr] * 4
    lib.fib_run.restype = None
    lib.fib_run.argtypes = [u64, u64, i64, ptr]
    lib.vt_run.restype = i64
    lib.vt_run.argtypes = [u64, u64, i64, ptr, ptr]
    lib.exact_run.restype = i64
    lib.exact_run.argtypes = [u64, u64, i64, i64, ptr, ptr, ptr]
    lib.normal_rows.restype = None
    lib.normal_rows.argtypes = [u64, u64, u64, i64, i64, ptr]
    lib.normals.restype = None
    lib.normals.argtypes = [ptr, ptr, i64]
    lib.csv_rows.restype = i64
    lib.csv_rows.argtypes = [ptr, i64, i64, ctypes.c_char_p, ptr]
    return lib


def _check_words() -> np.ndarray:
    """The words of the load check of normals: 784 words from every branch of ndtri.

    A word's uniform is its top 53 bits m as m 2^-53 + 2^-54. The words
    are the 256 smallest and the 256 largest m, whose tails run from
    x = 8.65 down to x = 7.9, across the switch at x = 8 (y = e^-32) from
    one tail fit to the other; the m around 2^52, the uniform 0.5; 3 m on
    each side of e^-2 and of 1 - e^-2, where the central fit gives way to
    the tails; and 256 Philox words.
    """
    ms = [*range(256), *range(2**53 - 256, 2**53), 2**52 - 1, 2**52]
    for edge in (math.exp(-2.0), 1.0 - math.exp(-2.0)):
        m = int(edge * 2**53)
        ms += range(m - 3, m + 4)
    edges = np.array(ms, dtype=np.uint64) << np.uint64(11)
    return np.concatenate([edges, RngStream(0, 0).words(256)])


def _normals_exact(lib: ctypes.CDLL) -> bool:
    """Whether the kernel's normals equal laws.draws(GAUSSIAN, w), bit for bit, on _check_words.

    A libm or a compiler that rounds otherwise than scipy's build shows
    here, and the Gaussian draws then fall back to the reference loops.
    """
    w = _check_words()
    out = np.empty(w.size)
    lib.normals(w.ctypes.data, out.ctypes.data, w.size)
    return out.tobytes() == draws(GAUSSIAN, w).tobytes()


def normal_rows(rng: RngStream, first: int, count: int, k: int) -> np.ndarray:
    """laws.sample_rows(GAUSSIAN, rng, first, count, k), bit for bit, from the kernel where it loads.

    The kernel computes the same Philox blocks as numpy's generator and
    the same normals as laws.draws; where it does not load, sample_rows
    draws the rows one seek_row + words call at a time. The stream's
    counter does not move.
    """
    kernel = _kernel_for(GAUSSIAN)
    if kernel is None:
        return sample_rows(GAUSSIAN, rng, first, count, k)
    _check_rows(first, count, k)
    out = np.empty((count, k))
    kernel.normal_rows(rng.seed, rng.stream_id, first, count, k, out.ctypes.data)
    return out


def _cache_dir() -> str:
    """$XDG_CACHE_HOME/lyapunov_lab (default ~/.cache), or the temp directory where it cannot be made."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    path = os.path.join(base, "lyapunov_lab")
    try:
        os.makedirs(path, exist_ok=True)
    except OSError:
        path = os.path.join(tempfile.gettempdir(), "lyapunov_lab")
        os.makedirs(path, exist_ok=True)
    return path


def _run_compiled(
    fn: Callable[..., int],
    gaussian: bool,
    n: int,
    rng: RngStream,
    c: float,
    trunc_tol: float,
    stride: int,
    half: int,
) -> _Parts:
    """The trajectory through chain_run, drawing normals where gaussian is true and signs elsewhere.

    The buffer doubles whenever the live support fills half of it.
    """
    increments = np.empty(n)
    norms = np.empty(n // stride)
    cap = _KERNEL_ROWS
    z = np.zeros(cap)
    z[-1] = 1.0
    tail = np.zeros(cap)
    ist = np.array([0, cap - 1, 1, 0], dtype=np.int64)  # step, front, support, tail length
    dst = np.zeros(2)  # log norm, dropped mass
    while True:
        # the weights of weighted_norm, from np.exp: libm's exp may round them differently
        weights = np.exp(c * np.arange(cap))
        done = fn(
            rng.seed, rng.stream_id, gaussian,
            n, half, trunc_tol, weights.ctypes.data, stride,
            z.ctypes.data, tail.ctypes.data, cap, increments.ctypes.data, norms.ctypes.data,
            ist.ctypes.data, dst.ctypes.data,
        )  # fmt: skip
        if done == n:
            break
        front, k = int(ist[1]), int(ist[2])
        cap *= 2
        z = np.concatenate([np.zeros(cap - k), z[front : front + k]])
        tail = np.concatenate([tail, np.zeros(cap - tail.size)])
        ist[1] = cap - k

    _, front, k, tail_len = ist.tolist()
    log_norm, dropped = dst.tolist()
    return increments, norms, tail[:tail_len], z[front : front + k].copy(), log_norm, dropped
