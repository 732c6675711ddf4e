"""Closed-form constants and inequality oracles.

* alpha_bound: the contraction constant alpha < 1 bounding E(1/||AY||) over
  unit vectors Y, from the maximum of a(sigma2-a)^2 / (f*D*(1+a)) over
  a in (0, sigma2), which has a closed form. The factor f = ZETA_SQ_FACTOR
  = 7 is the conservative fourth-moment bound used to derive the constant.
* verify_alpha_mc: Monte Carlo check that E(1/||AY||) <= alpha for a given
  unit vector, where ||AY|| = sqrt(1 + (<eps, Y>)^2).
* lo_max_atom: exact largest atom of a signed sum of nonzero integer
  coefficients, by dynamic programming over attainable sums. Probabilities
  are dyadic rationals and are kept exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from .laws import CoefficientLaw, RngStream, sample_row

__all__ = [
    "AlphaResult",
    "McCheck",
    "LoResult",
    "alpha_bound",
    "verify_alpha_mc",
    "lo_max_atom",
]


ZETA_SQ_FACTOR = 7.0
"""The factor f in alpha_bound's divisor f*D*(1+a), from the conservative fourth-moment bound."""


@dataclass(frozen=True)
class AlphaResult:
    alpha: float
    argmax_a: float


def alpha_bound(sigma2: float, fourth_moment: float) -> AlphaResult:
    """Contraction constant alpha = 1 - max_a a(sigma2-a)^2/(f*D*(1+a)), f = ZETA_SQ_FACTOR.

    The derivative of a(s-a)^2/(1+a) factors as (s-a)(s-3a-2a^2)/(1+a)^2,
    so on (0, s) the maximizer is the positive root of 2a^2 + 3a = s,
    a* = (-3 + sqrt(9+8s))/4, evaluated as 2s/(3 + sqrt(9+8s)) to avoid
    cancellation when s is small. Since D >= s^2 and f >= 1, the maximum
    is below 1 and alpha > 0, unless a*(s-a*)^2 overflows: then alpha is
    NaN, and it is rejected, as alpha bounds a mean of positive values.
    """
    # each test is negated so that NaN fails it
    if not 0.0 < sigma2 < math.inf:
        raise ValueError("sigma2 must be positive and finite")
    if not fourth_moment >= sigma2 * sigma2:
        raise ValueError("fourth moment below sigma2^2 violates Jensen")
    a_star = 2.0 * sigma2 / (3.0 + math.sqrt(9.0 + 8.0 * sigma2))
    f_star = a_star * (sigma2 - a_star) ** 2 / (ZETA_SQ_FACTOR * fourth_moment * (1.0 + a_star))
    alpha = 1.0 - f_star
    if not alpha > 0.0:
        raise ValueError(
            f"sigma2={sigma2!r} and fourth_moment={fourth_moment!r} give alpha={alpha!r}: "
            "the closed form overflows, and alpha must be > 0"
        )
    return AlphaResult(alpha=alpha, argmax_a=a_star)


@dataclass(frozen=True)
class McCheck:
    empirical_mean: float
    stderr: float
    alpha: float
    samples: int
    passed: bool


def verify_alpha_mc(
    law: CoefficientLaw,
    y: np.ndarray,
    samples: int,
    rng: RngStream,
) -> McCheck:
    """Monte Carlo check of E[(1 + <eps, y>^2)^(-1/2)] <= alpha for unit y.

    Draws `samples` fresh coefficient rows, samples * y.size consecutive
    words, in one pass; passes when the empirical mean is below alpha + 3
    standard errors, with alpha the bound for the law's own moments.
    """
    y = np.asarray(y, dtype=float)
    if abs(float(np.linalg.norm(y)) - 1.0) > 1e-12:
        raise ValueError("y must be a unit vector to within 1e-12")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    alpha = alpha_bound(law.sigma2, law.fourth_moment).alpha

    eps = sample_row(law, rng, samples * y.size).reshape(samples, y.size)
    g = eps @ y
    vals = 1.0 / np.sqrt(1.0 + g * g)
    total = float(vals.sum())
    total_sq = float(vals @ vals)
    mean = total / samples
    var = max(0.0, (total_sq - samples * mean * mean) / (samples - 1))
    stderr = math.sqrt(var / samples)
    return McCheck(
        empirical_mean=mean,
        stderr=stderr,
        alpha=alpha,
        samples=samples,
        passed=mean <= alpha + 3.0 * stderr,
    )


@dataclass(frozen=True)
class LoResult:
    """Exact anti-concentration data for a signed sum of integers."""

    k: int
    coefficients: tuple[int, ...]
    max_atom: Fraction
    max_count: int

    def atom_string(self) -> str:
        """Unreduced rendering count/2^k."""
        return f"{self.max_count}/2^{self.k}"


_LO_TABLE_BUDGET = 1 << 22  # entries in the DP table over attainable sums


def lo_max_atom(coefficients: Sequence[int]) -> LoResult:
    """Largest atom of sum_i eps_i * b_i over uniform signs, exactly.

    Dynamic programming over the attainable sums counts sign patterns with
    64-bit integers (total mass 2^k <= 2^40 cannot overflow); the atom is
    returned as an exact dyadic rational.
    """
    coeffs = [int(b) for b in coefficients]
    k = len(coeffs)
    if k == 0:
        raise ValueError("need at least one coefficient")
    if any(b == 0 for b in coeffs):
        raise ValueError("all coefficients must be nonzero")
    if k > 40:
        raise ValueError(f"k={k} exceeds the exact-count limit of 40")
    span = sum(abs(b) for b in coeffs)
    size = 2 * span + 1
    if size > _LO_TABLE_BUDGET:
        raise ValueError(f"sum of |coefficients| {span} exceeds the table budget")

    counts = np.zeros(size, dtype=np.int64)
    counts[span] = 1  # offset representation: sum s lives at index s + span
    for b in coeffs:
        nxt = np.zeros(size, dtype=np.int64)
        shift = abs(b)
        nxt[shift:] += counts[: size - shift]
        nxt[: size - shift] += counts[shift:]
        counts = nxt
    max_count = int(counts.max())
    return LoResult(
        k=k,
        coefficients=tuple(coeffs),
        max_atom=Fraction(max_count, 2**k),
        max_count=max_count,
    )
