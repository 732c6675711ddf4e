#!/usr/bin/env python3
"""Coverage of the intervals that `lyapunov-lab gamma` reports, one model at a time.

Runs `gamma` once per seed (one trajectory each) for fib at n = 2e4, vt at
n = 3000, exact at n = 2000 and the Gaussian chain at n = 1e4, and prints
per model the share of runs with |gamma_hat - reference| <= 1.96 stderr
(0.95 when the stderr is right) and sd(gamma_hat) / mean(stderr) (1 when
it is right). The references are the log of Viswanath's constant, log 4,
the closed form LAMBDA_V and, for exact, the n = 1e6 Bernoulli chain
estimate 0.28275 +- 0.00024. 200 runs of every model take about two
minutes on one core.

Usage: python scripts/coverage.py [--runs 200] [--seed 1]
"""

import argparse
import contextlib
import io
import json
import math

import numpy as np

from lyapunov_lab.cli import dispatch
from lyapunov_lab.gaussian import LAMBDA_V
from lyapunov_lab.verification import GAMMA_FIB_ORACLE

# model, law, n, reference rate
MODELS = (
    ("fib", "bernoulli", 20_000, GAMMA_FIB_ORACLE),
    ("vt", "gaussian", 3000, math.log(4.0)),
    ("exact", "bernoulli", 2000, 0.28275),
    ("chain", "gaussian", 10_000, LAMBDA_V),
)


def gamma(model: str, law: str, n: int, seed: int) -> tuple[float, float]:
    """(gamma_hat, stderr) as `lyapunov-lab gamma` prints them."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = dispatch(["gamma", "--model", model, "--law", law, "--n", str(n), "--seed", str(seed)])
    if code != 0:
        raise SystemExit(f"gamma --model {model} --seed {seed} exited {code}")
    payload = json.loads(out.getvalue())
    return payload["gamma_hat"], payload["stderr"]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--runs", type=int, default=200, help="runs (seeds) per model")
    ap.add_argument("--seed", type=int, default=1, help="first seed; run i uses seed + i")
    args = ap.parse_args()

    print(f"{'model':<6} {'n':>6} {'runs':>5} {'coverage':>9} {'sd/se':>6} {'mean':>9} {'reference':>10}")
    for model, law, n, ref in MODELS:
        g, se = np.array([gamma(model, law, n, args.seed + i) for i in range(args.runs)]).T
        coverage = float(np.mean(np.abs(g - ref) <= 1.96 * se))
        ratio = float(np.std(g, ddof=1) / np.mean(se)) if args.runs > 1 else math.nan
        print(f"{model:<6} {n:>6} {args.runs:>5} {coverage:>9.3f} {ratio:>6.2f} {g.mean():>9.5f} {ref:>10.5f}")


if __name__ == "__main__":
    main()
