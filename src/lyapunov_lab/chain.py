"""Renormalized state dynamics of the full-history recursion.

The state after n steps is the unit vector z whose entries are the history
(newest first) divided by its l2 norm. One step draws a fresh coefficient
row, computes g = <row, z>, prepends g, and renormalizes; the log norm of
the trajectory accumulates the per-step increment 0.5*log(1+g^2). Because
the entries of z decay geometrically, a tiny trailing block can be dropped
each step, giving bounded memory with an auditable error budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds import alpha_bound
from .errors import TruncationBudgetError
from .laws import CoefficientLaw, RngStream, sample_row
from .util import neumaier_add

__all__ = [
    "NormalizedState",
    "WeightParameter",
    "ChainRun",
    "initial_state",
    "apply_step",
    "weighted_norm",
    "run_chain",
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
        grown = tail_sq + float(coords[idx]) ** 2
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
        coords = coords / np.linalg.norm(coords)
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
    g = float(row @ coords)
    inc = 0.5 * math.log1p(g * g)
    new = np.empty(coords.size + 1)
    new[0] = g
    new[1:] = coords
    new /= math.sqrt(float(new @ new))
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
        return float(np.linalg.norm(z))
    weights = np.exp(w.c * np.arange(z.size))
    return math.sqrt(float(weights @ (z * z)))


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
    budget = 100.0 * trunc_tol * n

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

    if dropped_total > budget:
        raise TruncationBudgetError(
            f"dropped l2 mass {dropped_total:.3e} exceeds budget {budget:.3e}"
        )

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
