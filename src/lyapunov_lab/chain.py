"""Renormalized state dynamics of the full-history recursion.

The state after n steps is the unit vector z whose entries are the history
(newest first) divided by its l2 norm. One step draws a fresh coefficient
row, computes g = <row, z>, prepends g, and renormalizes; the log norm of
the trajectory accumulates the per-step increment 0.5*log(1+g^2). Because
the entries of z decay geometrically, a tiny trailing block can be dropped
each step, giving bounded memory with an auditable error budget.

run_chain steps one trajectory; run_chains steps several in lockstep as one
array. Every sum over the coordinates is taken term by term in index order
(_seq_sum), so a trajectory's numbers do not depend on the batch it runs in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .bounds import alpha_bound
from .errors import TruncationBudgetError
from .laws import CoefficientLaw, RngStream, draws, sample_row
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
    "DEFAULT_TRUNC_TOL",
    "MAX_TRUNC_TOL",
]

DEFAULT_TRUNC_TOL = 1e-14
MAX_TRUNC_TOL = 1e-8  # looser tolerances drop visible mass: at 0.5 the support fell to 2


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
    """Sum along axis 0, one term after another in index order.

    np.add.reduce and the BLAS dot products switch to pairwise or blocked
    orders that depend on the array's length and shape; an accumulate does
    not, so a column of a (k, T) array sums to the same bits as the same
    k values alone, for every T.
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
    trunc_tol must lie in (0, MAX_TRUNC_TOL].
    """
    budget = _check_run(law, n, w, trunc_tol)

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

    _check_budget(dropped_total, budget)

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
    """The runs of run_chains one by one, computed a batch of streams at a time.

    A batch holds at most _LOCKSTEP_MAX streams and at most
    _LOCKSTEP_WORDS increments (streams x n). One of _LOCKSTEP_MIN or more
    streams advances in lockstep as one array (_lockstep), which costs less
    per trajectory than a run_chain each; a smaller one runs through
    run_chain. A caller that keeps less than a whole ChainRun holds at most
    one batch of runs at once.
    """
    rngs = list(rngs)
    size = _batch_size(n)
    for first in range(0, len(rngs), size):
        batch = rngs[first : first + size]
        if len(batch) < _LOCKSTEP_MIN:
            yield from (run_chain(law, n, rng, w, trunc_tol) for rng in batch)
        else:
            yield from _lockstep(law, n, batch, w, trunc_tol)


def _batch_size(n: int) -> int:
    """Streams per batch of iter_chains at n steps."""
    return max(1, min(_LOCKSTEP_MAX, _LOCKSTEP_WORDS // max(n, 1)))


# Lockstep against run_chain one after another (both laws, n = 1e3 and 1e4,
# 2-core x86-64, numpy 2.4): 1.23-1.37x the time at T = 2, 0.96-1.08x at
# T = 3, 0.88-0.94x at T = 4.
_LOCKSTEP_MIN = 4
# Bounds the working arrays, whose rows follow the support and not n (a few
# MB per 1000 trajectories); per trajectory, 1000 in lockstep cost half of
# what 16 do.
_LOCKSTEP_MAX = 1024
# Bounds the increments a batch holds, T x n float64 words (32 MB). Past
# n = 2^20 a batch has fewer than _LOCKSTEP_MIN streams and the runs go one
# at a time through run_chain, holding one run's increments as it does.
_LOCKSTEP_WORDS = 1 << 22


def _add_increments(
    gs: np.ndarray, out: list[np.ndarray], start: int, sums: list[tuple[float, float]]
) -> None:
    """Increments from the g values of consecutive steps, one column per trajectory.

    Writes trajectory j's increments to out[j] from index start on and adds
    them in step order to its Neumaier sum sums[j] = (log norm,
    compensation), as run_chain does. Each increment is formed as _step
    forms it, with math.log1p: np.log1p may round differently.
    """
    for j in range(gs.shape[1]):
        incs = [0.5 * math.log1p(g * g) for g in gs[:, j].tolist()]
        out[j][start : start + len(incs)] = incs
        log_norm, comp = sums[j]
        for inc in incs:
            log_norm, comp = neumaier_add(log_norm, comp, inc)
        sums[j] = (log_norm, comp)


def _truncate_columns(z: np.ndarray, support: np.ndarray, tol: float, dropped: np.ndarray) -> bool:
    """_truncate on each column of z in place; True if any column lost coordinates.

    Column j holds support[j] coordinates and zeros below them. The walk
    of _truncate drops nothing unless the last coordinate's square is
    below tol^2, so only those columns go to _truncate. Lowers support and
    adds each column's dropped mass to dropped.
    """
    last = z[support - 1, np.arange(z.shape[1])]
    walks = np.flatnonzero(last * last < tol * tol).tolist()
    for j in walks:
        col = z[: support[j], j]
        kept, d = _truncate(col, tol)
        col[: kept.size] = kept
        col[kept.size :] = 0.0
        support[j] = kept.size
        dropped[j] += d
    return bool(walks)


_INCREMENT_CHUNK = 1 << 16  # g values held before they become increments
_LOCKSTEP_ROWS = 512  # initial buffer rows; the live block settles near 130-180


def _lockstep(
    law: CoefficientLaw,
    n: int,
    rngs: list[RngStream],
    w: WeightParameter,
    trunc_tol: float,
) -> list[ChainRun]:
    """The steps of run_chain for T trajectories at once.

    The coordinates sit newest first in one (capacity, T) buffer with a
    shared front row: trajectory j holds z in rows front .. front +
    support[j] - 1 of column j and zeros below, so a prepend writes one row
    and moves nothing. Each step draws every trajectory's row at its own
    length, then one array operation each forms the products, the sums
    <row, z>, the norms, the renormalization, the tail sums and the
    checkpoint norms. Entries past a trajectory's support are zero and add
    exact zeros to its sums, which _seq_sum takes in index order, so every
    column comes out as run_chain computes it alone. The _truncate walk
    runs on the columns whose last coordinate could be dropped.
    """
    budget = _check_run(law, n, w, trunc_tol)
    count = len(rngs)
    cap = min(n + 1, _LOCKSTEP_ROWS)
    zbuf = np.zeros((cap, count))
    words = np.zeros((count, cap), dtype=np.uint64)
    tail_acc = np.zeros((cap, count))
    weights = np.exp(w.c * np.arange(cap))[:, None]
    front = cap - 1
    zbuf[front] = 1.0
    support = np.ones(count, dtype=np.intp)
    kmax = 1
    tail_len = np.zeros(count, dtype=np.intp)
    dropped = np.zeros(count)
    # one array per trajectory: a run the caller keeps holds its own n words, not the batch's
    increments = [np.empty(n) for _ in range(count)]
    sums = [(0.0, 0.0)] * count
    chunk = min(n, max(1, _INCREMENT_CHUNK // count))
    gs = np.empty((chunk, count))  # g of the steps not yet in increments

    stride = max(1, n // 100)
    ckpt_steps: list[int] = []
    norms: list[np.ndarray] = []
    half = n // 2

    for t in range(n):
        for j, k in enumerate(support.tolist()):
            rngs[j].seek_row(t)
            words[j, :k] = rngs[j].words(k)
        z = zbuf[front : front + kmax]
        g = gs[t % chunk]
        g[:] = _seq_sum(draws(law, words[:, :kmax]).T * z)

        if front == 0:  # move the live block to the bottom, doubling the buffer if it is half full
            if 2 * kmax > cap:
                cap *= 2
                zbuf = np.concatenate([np.zeros((cap - kmax, count)), zbuf[:kmax]])
                words = np.concatenate([words, np.zeros_like(words)], axis=1)
                tail_acc = np.concatenate([tail_acc, np.zeros_like(tail_acc)])
                weights = np.exp(w.c * np.arange(cap))[:, None]
            else:
                zbuf[cap - kmax :] = zbuf[:kmax]
            front = cap - kmax
        front -= 1
        zbuf[front] = g
        support += 1
        kmax += 1
        z = zbuf[front : front + kmax]
        z /= np.sqrt(_seq_sum(z * z))

        if _truncate_columns(z, support, trunc_tol, dropped):
            kmax = int(support.max())
            z = zbuf[front : front + kmax]

        step = t + 1
        pending = t % chunk + 1
        if pending == chunk or step == n:
            _add_increments(gs[:pending], increments, step - pending, sums)
        if step % stride == 0:
            ckpt_steps.append(step)
            zz = z * z
            norms.append(np.sqrt(_seq_sum(zz if w.c == 0.0 else weights[:kmax] * zz)))
        if step > half:
            tail_acc[:kmax] += np.abs(z)
            np.maximum(tail_len, support, out=tail_len)

    for d in dropped.tolist():
        _check_budget(d, budget)

    tail_count = n - half
    # math.log, as run_chain takes it: np.log may round differently
    offsets = np.array([[math.log(x) for x in col] for col in np.array(norms).T.tolist()])
    runs = []
    for j, (log_norm, comp) in enumerate(sums):
        coords = zbuf[front : front + support[j], j].copy()
        runs.append(
            ChainRun(
                increments=increments[j],
                checkpoint_steps=np.array(ckpt_steps, dtype=np.int64),
                weighted_offsets=offsets[j],
                tail_means=tail_acc[: tail_len[j], j] / tail_count,
                final_state=NormalizedState(coords, log_norm, float(dropped[j]), n, comp),
                law=law,
                c=w.c,
                trunc_tol=trunc_tol,
            )
        )
    return runs
