"""Growth rates of random full-history linear recursions.

Simulation (exact integer, renormalized float, normalized chain), growth
exponent estimation with confidence intervals, and numerical verification
of the contraction constants, tail bounds, and limit laws that govern
these recursions.

Import each name from its module (`from lyapunov_lab.chain import
run_chain`); importing the package alone loads none of them.
"""

__version__ = "0.1.0"
