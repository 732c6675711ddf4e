#!/usr/bin/env python3
"""Cross-check the random Fibonacci growth rate with exact integer arithmetic.

Runs the two-term sign recursion in big integers (no floating point, no
renormalization) over independent trajectories and reports the mean endpoint
rate with a t-style confidence interval. The reference constant
lyapunov_lab.verification.GAMMA_FIB_ORACLE is the log of Viswanath's
constant (Math. Comp. 69, 2000), not this script's output; the script checks
that the library's coefficient rows reproduce it without rounding error.
Rows are drawn in chunks with RngStream.rows, the same rows that
run_fibonacci uses.

Usage: python scripts/calibrate_fib_rate.py [--n 300000] [--runs 10] [--seed 1000]
"""

import argparse
import math

import numpy as np

from lyapunov_lab.laws import BERNOULLI, ROW_CHUNK, RngStream, sample_rows
from lyapunov_lab.util import log_abs_bigint
from lyapunov_lab.verification import GAMMA_FIB_ORACLE


def exact_rate(n: int, seed: int, stream: int) -> float:
    rng = RngStream(seed, stream)
    a, b = 1, 1  # (f[k+1], f[k]) as exact integers
    for first in range(0, n, ROW_CHUNK):
        for s0, s1 in sample_rows(BERNOULLI, rng, first, min(ROW_CHUNK, n - first), 2).tolist():
            a, b = (a if s0 > 0 else -a) + (b if s1 > 0 else -b), a
    return log_abs_bigint(a) / n


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=300_000)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1000)
    args = ap.parse_args()

    rates = [exact_rate(args.n, args.seed, j) for j in range(args.runs)]
    mean = float(np.mean(rates))
    se = float(np.std(rates, ddof=1) / math.sqrt(args.runs))
    print(f"runs: {args.runs} x n={args.n}")
    for j, r in enumerate(rates):
        print(f"  stream {j}: {r:.6f}")
    print(f"gamma_fib = {mean:.6f} +- {se:.6f}  (3 se = {3*se:.6f})")
    print(f"log of Viswanath's constant = {GAMMA_FIB_ORACLE:.7f}, z = {(mean - GAMMA_FIB_ORACLE) / se:.2f}")


if __name__ == "__main__":
    main()
