"""Growth rates of random full-history linear recursions.

Simulation (exact integer, renormalized float, normalized chain), growth
exponent estimation with confidence intervals, and numerical verification
of the contraction constants, tail bounds, and limit laws that govern
these recursions.
"""

__version__ = "0.1.0"

from .bounds import AlphaResult, LoResult, alpha_bound, lo_max_atom, verify_alpha_mc
from .chain import ChainRun, run_chain, weighted_norm
from .estimators import (
    GrowthEstimate,
    RateComparison,
    compare_rates,
    gamma_from_increments,
    gamma_from_last_coordinate,
    pool_estimates,
)
from .gaussian import CouplingTrace, EtaResult, contraction_f, couple, eta, expected_f, gaussian_log_moments
from .laws import BERNOULLI, GAUSSIAN, CoefficientLaw, RngStream, law_from_name, sample_row
from .recursion import ExactTrajectory, run_exact, run_exact_float, run_fibonacci, run_vt

__all__ = [
    "__version__",
    "AlphaResult",
    "LoResult",
    "alpha_bound",
    "lo_max_atom",
    "verify_alpha_mc",
    "ChainRun",
    "run_chain",
    "weighted_norm",
    "GrowthEstimate",
    "RateComparison",
    "compare_rates",
    "gamma_from_increments",
    "gamma_from_last_coordinate",
    "pool_estimates",
    "CouplingTrace",
    "EtaResult",
    "contraction_f",
    "couple",
    "eta",
    "expected_f",
    "gaussian_log_moments",
    "BERNOULLI",
    "GAUSSIAN",
    "CoefficientLaw",
    "RngStream",
    "law_from_name",
    "sample_row",
    "ExactTrajectory",
    "run_exact",
    "run_exact_float",
    "run_fibonacci",
    "run_vt",
]
