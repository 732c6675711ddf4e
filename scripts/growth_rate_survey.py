#!/usr/bin/env python3
"""Survey the growth exponents of every model at moderate sizes.

Prints one line per (model, law) with the estimate, standard error, and the
reference value where one exists (log 4 for the division recursion, the
closed-form rate gaussian.LAMBDA_V = E log(1+g^2)/2 for the Gaussian
chain, the log of Viswanath's constant for the two-term recursion).

Usage: python scripts/growth_rate_survey.py [--seed 1] [--n 100000]
"""

import argparse
import math

from lyapunov_lab.chain import run_chain
from lyapunov_lab.estimators import Method, gamma_from_increments, gamma_from_last_coordinate
from lyapunov_lab.gaussian import LAMBDA_V
from lyapunov_lab.laws import BERNOULLI, GAUSSIAN, RngStream
from lyapunov_lab.recursion import run_exact, run_fibonacci, run_vt
from lyapunov_lab.verification import GAMMA_FIB_ORACLE


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--n", type=int, default=100_000)
    args = ap.parse_args()
    n, seed = args.n, args.seed

    rows = []

    run = run_chain(BERNOULLI, n, RngStream(seed, 0))
    est = gamma_from_increments(run.increments)
    rows.append(("chain", "bernoulli", est.gamma_hat, est.stderr, None))

    run = run_chain(GAUSSIAN, n, RngStream(seed, 1))
    est = gamma_from_increments(run.increments)
    rows.append(("chain", "gaussian", est.gamma_hat, est.stderr, LAMBDA_V))

    traj = run_exact(2000, RngStream(seed, 2))
    est = gamma_from_last_coordinate(traj.log_abs_series())
    rows.append(("exact", "bernoulli", est.gamma_hat, est.stderr, None))

    series = run_fibonacci(n, RngStream(seed, 3))
    est = gamma_from_last_coordinate(series, method=Method.FIBONACCI_PAIR)
    rows.append(("fib", "bernoulli", est.gamma_hat, est.stderr, GAMMA_FIB_ORACLE))

    vt = run_vt(10_000, RngStream(seed, 4))
    est = gamma_from_last_coordinate(vt, method=Method.VT_SUM_SQUARES)
    rows.append(("vt", "gaussian", est.gamma_hat, est.stderr, math.log(4.0)))

    print(f"{'model':<6} {'law':<10} {'gamma_hat':>10} {'stderr':>9} {'reference':>10}")
    for model, law, g, se, ref in rows:
        ref_s = f"{ref:.6f}" if ref is not None else "-"
        print(f"{model:<6} {law:<10} {g:>10.6f} {se:>9.6f} {ref_s:>10}")


if __name__ == "__main__":
    main()
