"""Gaussian-law machinery: contraction functional, quadrature, coupling.

Two copies of the normalized chain driven by the same Gaussian noise align
exponentially fast. With rho the inner product of the two unit states and
a^2 = 1 - rho^2 the squared misalignment, one step multiplies a^2 by b,
where log b = F(rho, g, w) for the standard Gaussian pair (g, w). This
module evaluates F, its expectation over (g, w) by tensor Gauss-Hermite
quadrature, and the scalar coupling recursion itself. Once log a^2 is
below -40, 1 - a^2 rounds to 1, so rho is exactly 1 and F takes its limit
form, which does not read rho; couple steps such stretches as one array
pass, which gives the per-step loop's numbers bit for bit, since F is the
same function on arrays and the sums run in the same order. The Gaussian
constants E_LOG1P_G2 = E log(1+g^2), the growth rate LAMBDA_V and the
worst-case contraction ETA = max_rho E F are closed forms; the quadrature
routines are the independent values that the verification checks compare
them with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from scipy.special import erfi, exp1

from .chain import normal_rows
from .laws import ROW_CHUNK, RngStream

__all__ = [
    "E_LOG1P_G2",
    "ETA",
    "LAMBDA_V",
    "CouplingTrace",
    "EtaResult",
    "LogMoments",
    "contraction_f",
    "expected_f",
    "eta",
    "couple",
    "gaussian_log_moments",
    "COUPLE_STEP_CAP",
]

COUPLE_STEP_CAP = 10**7  # the trace holds 24 bytes a step: 240 MB at the cap

_LIMIT_A2 = 1e-12  # below this squared misalignment, use the rho = 1 limit form
_SURE_ALIGNED = -40.0  # exp(-40) < 2^-54: below this log a^2, 1 - a^2 rounds to 1 and rho is exactly 1
_SCALAR_ROWS = 64  # rows converted to floats at a time for couple's per-step loop


def _e_log1p_g2() -> float:
    """E log(1+g^2) for a standard normal g, in closed form.

    d/da E log(a+g^2) = E 1/(a+g^2) = sqrt(pi/(2a)) e^(a/2) erfc(sqrt(a/2)).
    Integrated from a = 0, where E log g^2 = -gamma - log 2, this gives
    -gamma - log 2 + pi erfi(1/sqrt 2) - 2 sum_(n>=0) 1/((2n+2) (2n+1)!!).
    The fifteenth term of the sum is 5.4e-18.
    """
    total, odd_factorial = 0.0, 1.0
    for n in range(15):
        odd_factorial *= 2 * n + 1
        total += 1.0 / ((2 * n + 2) * odd_factorial)
    return -np.euler_gamma - math.log(2.0) + math.pi * float(erfi(1.0 / math.sqrt(2.0))) - 2.0 * total


E_LOG1P_G2 = _e_log1p_g2()
"""E log(1+g^2) = 0.5334531798441349 for a standard normal g."""

LAMBDA_V = 0.5 * E_LOG1P_G2
"""Growth rate of the Gaussian full-history recursion. Conditioned on the
current unit state, the new coordinate is a standard normal, so the squared
norm multiplies by 1 + g^2 each step and the rate is E log(1+g^2) / 2."""

ETA = math.exp(0.5) * float(exp1(0.5)) - 2.0 * E_LOG1P_G2
"""Worst-case expected contraction max_rho E F = -0.1439957272045392. The
first log argument of F is distributed as 1 + g^2 + w^2, whose log has mean
exp(1/2) E1(1/2), and rho g + a w is standard normal, so E F takes this
value at every rho."""


def contraction_f(rho: float, g, w):
    """log of the one-step misalignment ratio, F(rho, g, w).

    g and w are floats, which give a float, or arrays, which give an array;
    both run the same np.log1p loop, so a float call equals the array call
    on the same values bit for bit. The misaligned component is written
    as ((1-rho)g - aw)/a, which keeps the first log argument nonnegative
    pointwise; flipping the sign of w changes nothing in distribution,
    since w is symmetric. At rho = 1 the formula is the analytic limit
    log(1+g^2+w^2) - 2 log(1+g^2), entered whenever a^2 < 1e-12.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    a2 = 1.0 - rho * rho
    if a2 < _LIMIT_A2:
        out = np.log1p(g * g + w * w) - 2.0 * np.log1p(g * g)
    else:
        a = math.sqrt(a2)
        gt = rho * g + a * w
        b = ((1.0 - rho) * g - a * w) / a
        out = np.log1p(b * b + 2.0 * g * gt / (1.0 + rho)) - np.log1p(g * g) - np.log1p(gt * gt)
    return out if isinstance(out, np.ndarray) else float(out)


@lru_cache(maxsize=8)
def _gh_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Probabilists' Gauss-Hermite nodes and weights normalized to sum 1."""
    x, w = hermegauss(order)
    return x, w / math.sqrt(2.0 * math.pi)


@lru_cache(maxsize=8)
def _gh_tensor(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x, w = _gh_nodes(order)
    g_nodes, w_nodes = np.meshgrid(x, x, indexing="ij")
    return g_nodes, w_nodes, np.outer(w, w)


def expected_f(rho: float, quad_order: int = 80) -> float:
    """E F(rho, g, w) over independent standard normals, by tensor quadrature."""
    if quad_order < 20:
        raise ValueError("quad_order must be >= 20")
    g, w, ww = _gh_tensor(quad_order)
    return float(np.sum(ww * contraction_f(rho, g, w)))


@dataclass(frozen=True)
class EtaResult:
    rho_grid: np.ndarray
    mean_f: np.ndarray
    eta_hat: float


def eta(quad_order: int = 80, grid_size: int = 201) -> EtaResult:
    """Worst-case expected contraction by quadrature: max over a rho grid of E F.

    Takes the maximum of E F over a uniform rho grid and keeps the grid
    table for inspection. The library's value of eta is the closed form
    ETA; this scan is the independent value verification.check_eta_value
    compares it with, and that check fails when the spread of the grid
    exceeds 1e-7, since E F is flat in rho.
    """
    if grid_size < 101:
        raise ValueError("grid_size must be >= 101")
    rhos = np.linspace(0.0, 1.0, grid_size)
    vals = np.array([expected_f(r, quad_order) for r in rhos])
    return EtaResult(rho_grid=rhos, mean_f=vals, eta_hat=float(vals.max()))


@dataclass
class CouplingTrace:
    """Series (rho_n, log a_n^2, log b_n) of the two-chain coupling."""

    rho: np.ndarray
    log_a2: np.ndarray
    log_b: np.ndarray

    @property
    def mean_log_b(self) -> float:
        return float(np.mean(self.log_b[1:]))


def _overlap(la2: float) -> float:
    """rho = sqrt(1 - exp(log a^2)), 0 where exp(log a^2) reaches 1."""
    ea = math.exp(la2) if la2 < 0.0 else 1.0
    return math.sqrt(1.0 - ea) if ea < 1.0 else 0.0


def couple(n: int, rng: RngStream) -> CouplingTrace:
    """Evolve the scalar coupling recursion for n steps from overlap rho = 0.

    Only the scalar misalignment is tracked: log a^2 is evolved additively
    by F(rho, g, w) and rho recovered as sqrt(1 - exp(log a^2)), clamped to
    [0, 1]. Step t draws its (g, w) pair at rng row t-1, so a trace is a
    pure function of (seed, stream). The rows come ROW_CHUNK at a time
    from chain.normal_rows: the compiled kernel where it loads, and
    numpy's Philox through laws.sample_rows elsewhere, with the same bits.
    n is capped at COUPLE_STEP_CAP.

    Below log a^2 = _SURE_ALIGNED, exp(log a^2) < 2^-54, so 1 - exp(log a^2)
    rounds to 1: rho is exactly 1, a^2 = 1 - rho^2 is 0 and F takes its
    limit form, which does not read rho. While log a^2 stays below the
    threshold, the rest of a chunk of rows is stepped as one array pass:
    F from contraction_f(1.0, g, w) on the arrays, equal bit for bit to
    its float calls, and log a^2 from np.add.accumulate, the same
    sequential sums as the scalar la2 + f chain. The first step back at or
    above the threshold takes its rho from the scalar rule, and the steps
    after it run one at a time until log a^2 falls below again.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > COUPLE_STEP_CAP:
        raise ValueError(f"n={n} exceeds the coupling trace's step cap {COUPLE_STEP_CAP}")
    rho = np.empty(n + 1)
    log_a2 = np.empty(n + 1)
    log_b = np.zeros(n + 1)
    r = 0.0
    la2 = -0.0  # log(1 - r^2) as math.log1p(-0.0) gives it: row 0 of trace.csv reads -0
    rho[0] = r
    log_a2[0] = la2
    for first in range(0, n, ROW_CHUNK):
        gw = normal_rows(rng, first, min(ROW_CHUNK, n - first), 2)
        end = first + len(gw)  # steps first+1 .. end draw rows first .. end-1
        f_aligned = None
        t = first + 1
        while t <= end:
            if la2 < _SURE_ALIGNED:
                if f_aligned is None:
                    f_aligned = contraction_f(1.0, gw[:, 0], gw[:, 1])
                log_b[t : end + 1] = f_aligned[t - first - 1 :]
                # past `last` these entries are provisional: the per-step loop rewrites them
                sums = log_a2[t - 1 : end + 1]  # a view: log_a2[t-1] is la2
                sums[1:] = log_b[t : end + 1]
                np.add.accumulate(sums, out=sums)
                back = np.flatnonzero(sums[1:] >= _SURE_ALIGNED)
                last = t + int(back[0]) if back.size else end
                rho[t:last] = 1.0
                la2 = float(log_a2[last])
                r = _overlap(la2)
                rho[last] = r
                t = last + 1
            else:
                # tolist() costs about 40 ns a value: convert a window of rows, not the chunk
                for g, w in gw[t - first - 1 : t - first - 1 + _SCALAR_ROWS].tolist():
                    f = contraction_f(r, g, w)
                    la2 = la2 + f
                    log_b[t] = f
                    log_a2[t] = la2
                    r = _overlap(la2)
                    rho[t] = r
                    t += 1
                    if la2 < _SURE_ALIGNED:
                        break
    return CouplingTrace(rho=rho, log_a2=log_a2, log_b=log_b)


@dataclass(frozen=True)
class LogMoments:
    """Gaussian log-moment constants E log(1+g^2) and E log(1+g^2+w^2)."""

    e_log1p_g2: float
    e_log1p_g2_w2: float


def gaussian_log_moments() -> LogMoments:
    """Both constants by Gauss-Hermite quadrature of order 80, 80^2 nodes for the pair."""
    x, w = _gh_nodes(80)
    e1 = float(w @ np.log1p(x * x))
    g_nodes, w_nodes, ww = _gh_tensor(80)
    e2 = float(np.sum(ww * np.log1p(g_nodes * g_nodes + w_nodes * w_nodes)))
    return LogMoments(e_log1p_g2=e1, e_log1p_g2_w2=e2)
