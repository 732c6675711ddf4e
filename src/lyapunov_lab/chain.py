"""Renormalized state dynamics of the full-history recursion.

The state after n steps is the unit vector z whose entries are the history
(newest first) divided by its l2 norm. One step draws a fresh coefficient
row, computes g = <row, z>, prepends g, and renormalizes; the log norm of
the trajectory accumulates the per-step increment 0.5*log(1+g^2). Because
the entries of z decay geometrically, a tiny trailing block can be dropped
each step, giving bounded memory with an auditable error budget.

run_chain runs one trajectory through a compiled kernel (_chain_kernel.c),
or through the reference loop of _step where no C compiler is found; both
give the same numbers bit for bit. run_chains and iter_chains run several,
one after another.
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
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .bounds import alpha_bound
from .errors import TruncationBudgetError
from .laws import CoefficientLaw, LawKind, RngStream, sample_row
from .util import neumaier_add

__all__ = [
    "NormalizedState",
    "WeightParameter",
    "ChainRun",
    "initial_state",
    "apply_step",
    "weighted_norm",
    "run_chain",
    "run_chains",
    "iter_chains",
    "chain_engine",
    "DEFAULT_TRUNC_TOL",
    "MAX_TRUNC_TOL",
]

DEFAULT_TRUNC_TOL = 1e-14
MAX_TRUNC_TOL = 1e-8  # looser tolerances drop visible mass: at 0.5 the support fell to 2
MAX_STEPS = 1 << 34  # rows at and past 2^34 leave the low 64-bit limb of the Philox counter


@dataclass
class NormalizedState:
    """Unit-norm truncated state plus accumulated log norm.

    log_norm_comp is the compensation term of the Neumaier summation used
    for log_norm; carry it along so chained single steps lose nothing
    against a long in-place run.
    """

    coords: np.ndarray
    log_norm: float
    dropped_mass: float
    step: int
    log_norm_comp: float = 0.0

    @property
    def norm_error(self) -> float:
        return abs(float(np.linalg.norm(self.coords)) - 1.0)


@dataclass(frozen=True)
class WeightParameter:
    """Exponent c >= 0 of the exponentially weighted sequence norm."""

    c: float

    def __post_init__(self) -> None:
        if self.c < 0:
            raise ValueError("weight exponent c must be >= 0")


@dataclass
class ChainRun:
    """Everything a chain run produces for the estimators and tail checks."""

    increments: np.ndarray
    checkpoint_steps: np.ndarray
    weighted_offsets: np.ndarray
    tail_means: np.ndarray
    final_state: NormalizedState
    law: CoefficientLaw
    c: float
    trunc_tol: float


def initial_state() -> NormalizedState:
    """The delta state e0 = (1, 0, ...) every trajectory starts from."""
    return NormalizedState(coords=np.array([1.0]), log_norm=0.0, dropped_mass=0.0, step=0)


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
    coords: np.ndarray,
    law: CoefficientLaw,
    rng: Optional[RngStream],
    step: int,
    trunc_tol: float,
    row_override: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, float, float]:
    """One chain step; returns (new coords, increment, dropped mass)."""
    if row_override is not None:
        row = np.asarray(row_override, dtype=float)
        if row.size != coords.size:
            raise ValueError(f"row override has {row.size} entries, state needs {coords.size}")
    else:
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


def apply_step(
    state: NormalizedState,
    law: CoefficientLaw,
    rng: Optional[RngStream],
    trunc_tol: float = DEFAULT_TRUNC_TOL,
    row_override: Optional[np.ndarray] = None,
) -> tuple[NormalizedState, float]:
    """Advance the state one step; returns (new state, log-norm increment).

    The coefficient row is read at rng row `state.step`, so replaying any
    step of a trajectory is a pure counter seek. row_override injects a
    deterministic row for tests.
    """
    coords, inc, dropped = _step(state.coords, law, rng, state.step, trunc_tol, row_override)
    log_norm, comp = neumaier_add(state.log_norm, state.log_norm_comp, inc)
    new_state = NormalizedState(
        coords=coords,
        log_norm=log_norm,
        dropped_mass=state.dropped_mass + dropped,
        step=state.step + 1,
        log_norm_comp=comp,
    )
    return new_state, inc


def weighted_norm(state: NormalizedState, w: WeightParameter) -> float:
    """Exponentially weighted norm sqrt(sum_i e^(c i) z_i^2) of the state."""
    z = state.coords
    if w.c == 0.0:
        return math.sqrt(_seq_sum(z * z))
    return math.sqrt(_seq_sum(np.exp(w.c * np.arange(z.size)) * (z * z)))


def _check_run(law: CoefficientLaw, n: int, w: WeightParameter, trunc_tol: float) -> float:
    """Validate a run's parameters; returns its dropped-mass budget."""
    if n < 100:
        raise ValueError("n must be >= 100")
    if n >= MAX_STEPS:
        raise ValueError(f"n must be below 2^34, got {n}")
    if not 0.0 < trunc_tol <= MAX_TRUNC_TOL:
        raise ValueError(f"trunc_tol={trunc_tol} outside (0, {MAX_TRUNC_TOL:g}]")
    if w.c > 0.0:
        sigma2, d4 = law.sigma2, law.fourth_moment
        neg_log_alpha = -math.log(alpha_bound(sigma2, d4).alpha)
        if w.c >= neg_log_alpha:
            raise ValueError(
                f"c={w.c} outside (0, {neg_log_alpha:.6f}), the valid range for these moments"
            )
    return 100.0 * trunc_tol * n


def _check_budget(dropped: float, budget: float) -> None:
    if dropped > budget:
        raise TruncationBudgetError(f"dropped l2 mass {dropped:.3e} exceeds budget {budget:.3e}")


def run_chain(
    law: CoefficientLaw,
    n: int,
    rng: RngStream,
    w: WeightParameter = WeightParameter(0.0),
    trunc_tol: float = DEFAULT_TRUNC_TOL,
) -> ChainRun:
    """Run n chain steps from e0, collecting estimator and tail statistics.

    Returns the per-step increments, the weighted-norm log offsets at 100
    checkpoints, and the per-index mean |z_i| over the last half of the run.
    For c > 0 the weight must satisfy c < -log(alpha) for the law's moments,
    the regime where the weighted and plain rates provably agree.
    trunc_tol must lie in (0, MAX_TRUNC_TOL], and n in [100, 2^34).

    The compiled kernel runs the trajectory when it can be built (see
    chain_engine), the reference loop _run_reference otherwise; both give
    the same numbers bit for bit. The rows are read by counter, and where
    rng is left afterwards depends on the engine.
    """
    budget = _check_run(law, n, w, trunc_tol)
    kernel = _kernel()
    if kernel is None:
        run = _run_reference(law, n, rng, w, trunc_tol)
    else:
        run = _run_compiled(kernel, law, n, rng, w, trunc_tol)
    _check_budget(run.final_state.dropped_mass, budget)
    return run


def run_chains(
    law: CoefficientLaw,
    n: int,
    rngs: Sequence[RngStream],
    w: WeightParameter = WeightParameter(0.0),
    trunc_tol: float = DEFAULT_TRUNC_TOL,
) -> list[ChainRun]:
    """run_chain on each stream of rngs; element j equals run_chain(law, n, rngs[j]) bit for bit."""
    return list(iter_chains(law, n, rngs, w, trunc_tol))


def iter_chains(
    law: CoefficientLaw,
    n: int,
    rngs: Sequence[RngStream],
    w: WeightParameter = WeightParameter(0.0),
    trunc_tol: float = DEFAULT_TRUNC_TOL,
) -> Iterator[ChainRun]:
    """The runs of run_chains one by one, so a caller that keeps a summary of each holds one run at a time."""
    return (run_chain(law, n, rng, w, trunc_tol) for rng in rngs)


def _run_reference(
    law: CoefficientLaw, n: int, rng: RngStream, w: WeightParameter, trunc_tol: float
) -> ChainRun:
    """run_chain in Python, one _step after another; the compiled kernel must match it bit for bit."""
    coords = np.array([1.0])
    log_norm = 0.0
    comp = 0.0
    dropped_total = 0.0
    increments = np.empty(n)

    stride = max(1, n // 100)
    ckpt_steps: list[int] = []
    offsets: list[float] = []
    half = n // 2
    tail_acc = np.zeros(0)
    tail_count = 0

    for t in range(n):
        coords, inc, dropped = _step(coords, law, rng, t, trunc_tol)
        log_norm, comp = neumaier_add(log_norm, comp, inc)
        dropped_total += dropped
        increments[t] = inc
        step = t + 1
        if step % stride == 0:
            state_view = NormalizedState(coords, log_norm, dropped_total, step, comp)
            ckpt_steps.append(step)
            offsets.append(math.log(weighted_norm(state_view, w)))
        if step > half:
            if coords.size > tail_acc.size:
                tail_acc = np.concatenate([tail_acc, np.zeros(coords.size - tail_acc.size)])
            tail_acc[: coords.size] += np.abs(coords)
            tail_count += 1

    final = NormalizedState(coords, log_norm, dropped_total, n, comp)
    return ChainRun(
        increments=increments,
        checkpoint_steps=np.array(ckpt_steps, dtype=np.int64),
        weighted_offsets=np.array(offsets),
        tail_means=tail_acc / max(tail_count, 1),
        final_state=final,
        law=law,
        c=w.c,
        trunc_tol=trunc_tol,
    )


# ---------------------------------------------------------------------------
# compiled kernel

_KERNEL_SOURCE = Path(__file__).with_name("_chain_kernel.c")
# -ffp-contract=off: a fused multiply-add rounds once where the reference rounds twice
_KERNEL_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_KERNEL_ROWS = 512  # initial state buffer; the live support settles near 110-130 at the default tolerance


def chain_engine() -> str:
    """The engine of run_chain: "compiled" for the C kernel, "python" for the reference loop."""
    return "python" if _kernel() is None else "compiled"


@functools.cache
def _kernel() -> Optional[tuple[Callable[..., int], int]]:
    """(chain_run of _chain_kernel.c, address of scipy's ndtri), or None where it cannot be built.

    Built on first use with gcc into the cache directory, under a name
    keyed by the source, the flags and the compiler version, so that an
    edit or a new compiler builds afresh. The build writes a temporary file
    and renames it into place, so processes that build at once do not see
    each other's partial files.
    """
    gcc = shutil.which("gcc")
    if gcc is None:
        return None
    try:
        source = _KERNEL_SOURCE.read_bytes()
        version = subprocess.run([gcc, "--version"], capture_output=True, check=True).stdout
        key = hashlib.sha256(b"\0".join([source, " ".join(_KERNEL_FLAGS).encode(), version]))
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
        fn = ctypes.CDLL(path).chain_run
    except (OSError, subprocess.SubprocessError):
        return None
    ndtri = _ndtri_address()
    if ndtri is None:
        return None
    fn.restype = ctypes.c_int64
    fn.argtypes = (
        [ctypes.c_uint64, ctypes.c_uint64, ctypes.c_void_p, ctypes.c_int64, ctypes.c_double]
        + [ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64]
        + [ctypes.c_void_p] * 4
    )
    return fn, ndtri


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


_NDTRI_SIGNATURE = b"double (double, int __pyx_skip_dispatch)"


def _ndtri_address() -> Optional[int]:
    """Address of the C function behind scipy.special.ndtri, as laws.draws uses it.

    The int of its signature is Cython's skip-dispatch flag, which the
    kernel passes as 0. None when scipy exports another signature.
    """
    from scipy.special import cython_special

    capsule = cython_special.__pyx_capi__["ndtri"]
    api = ctypes.pythonapi
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(("PyCapsule_GetPointer", api))
    signature = name(capsule)
    return pointer(capsule, signature) if signature == _NDTRI_SIGNATURE else None


def _run_compiled(
    kernel: tuple[Callable[..., int], int],
    law: CoefficientLaw,
    n: int,
    rng: RngStream,
    w: WeightParameter,
    trunc_tol: float,
) -> ChainRun:
    """run_chain through the kernel; the buffer doubles whenever the live support fills half of it."""
    fn, ndtri = kernel
    stride = max(1, n // 100)
    increments = np.empty(n)
    norms = np.empty(n // stride)
    cap = _KERNEL_ROWS
    z = np.zeros(cap)
    z[-1] = 1.0
    tail = np.zeros(cap)
    ist = np.array([0, cap - 1, 1, 0], dtype=np.int64)  # step, front, support, tail length
    dst = np.zeros(3)  # log norm, its compensation, dropped mass
    while True:
        # the weights of weighted_norm, from np.exp: libm's exp may round them differently
        weights = np.exp(w.c * np.arange(cap)) if w.c > 0.0 else None
        done = fn(
            rng.seed, rng.stream_id, ndtri if law.kind is LawKind.STANDARD_GAUSSIAN else None,
            n, trunc_tol, None if weights is None else weights.ctypes.data, stride,
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
    log_norm, comp, dropped = dst.tolist()
    return ChainRun(
        increments=increments,
        checkpoint_steps=np.arange(1, n // stride + 1, dtype=np.int64) * stride,
        # math.log, as the reference takes it: np.log may round differently
        weighted_offsets=np.array([math.log(x) for x in norms.tolist()]),
        tail_means=tail[:tail_len] / (n - n // 2),
        final_state=NormalizedState(z[front : front + k].copy(), log_norm, dropped, n, comp),
        law=law,
        c=w.c,
        trunc_tol=trunc_tol,
    )
