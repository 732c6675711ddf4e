"""Isolated timings of single public functions, one layer at a time.

Each probe calls the library directly (no CLI) at a fixed size and
reports the median of several repeats. Inputs depend only on the seed.
Every repeat is timed by `clock(fn)`, which returns the seconds fn took;
run.py passes CpuPicker.time_call, so that the probes run pinned to the
quieter CPU and at the same reference host speed as the rounds.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

ROW_KS = tuple(2**i for i in range(1, 13))  # 2 .. 4096
REPEATS = 7
ENSEMBLE_CHAINS, ENSEMBLE_N = 16, 1000  # the tails command of chain-ensemble


def _median_time(clock, fn, repeats: int = REPEATS) -> float:
    return statistics.median(clock(fn) for _ in range(repeats))


def row_sweep(seed: int, clock) -> dict[str, float]:
    """Microseconds per seek_row + sample_row, by law and row length k."""
    from lyapunov_lab.laws import BERNOULLI, GAUSSIAN, RngStream, sample_row

    out = {}
    for label, law in (("signs", BERNOULLI), ("normals", GAUSSIAN)):
        for k in ROW_KS:
            rows = 100 + 256_000 // (k + 64)  # about 10-20 ms per repeat at every k
            rng = RngStream(seed, 1)

            def sweep():
                for r in range(rows):
                    rng.seek_row(r)
                    sample_row(law, rng, k)

            out[f"laws.row_us.{label}.k{k}"] = _median_time(clock, sweep) / rows * 1e6
    return out


def layer_calls(seed: int, clock) -> dict[str, float]:
    """Per-call costs of the chain, recursion, gaussian, bounds and estimator layers."""
    from lyapunov_lab import bounds, chain, estimators, gaussian, recursion, verification
    from lyapunov_lab.laws import BERNOULLI, GAUSSIAN, RngStream

    out = {}
    # chain step at settled support: the difference of two runs cancels
    # the start-up from e0 and the per-run set-up
    n1, n2 = 2000, 6000
    for label, law in (("bernoulli", BERNOULLI), ("gaussian", GAUSSIAN)):
        short = _median_time(clock, lambda: chain.run_chain(law, n1, RngStream(seed, 2)), 5)
        long = _median_time(clock, lambda: chain.run_chain(law, n2, RngStream(seed, 2)), 5)
        out[f"chain.step_us.{label}"] = (long - short) / (n2 - n1) * 1e6
    # many short chains growing from e0, one thread
    t1 = _median_time(clock, lambda: verification.tail_statistics(BERNOULLI, ENSEMBLE_N, ENSEMBLE_CHAINS, seed), 5)
    out["chain.step_us.ensemble"] = t1 / (ENSEMBLE_CHAINS * ENSEMBLE_N) * 1e6
    out["verification.tail_statistics.threads1_s"] = t1

    n = 10_000
    fib = _median_time(clock, lambda: recursion.run_fibonacci(n, RngStream(seed, 3)), 5)
    out["recursion.fib.step_us"] = fib / n * 1e6
    out["recursion.exact.s"] = _median_time(clock, lambda: recursion.run_exact(1500, RngStream(seed, 4)), 5)
    out["recursion.vt.s"] = _median_time(clock, lambda: recursion.run_vt(3000, RngStream(seed, 5)), 5)

    n = 5000
    out["gaussian.couple.step_us"] = _median_time(clock, lambda: gaussian.couple(n, RngStream(seed, 6)), 5) / n * 1e6
    out["gaussian.eta.s"] = _median_time(clock, lambda: gaussian.eta(80, 201), 5)

    out["bounds.alpha_bound.s"] = _median_time(clock, lambda: bounds.alpha_bound(1.0, 1.0), 21)
    coeffs = [int(c) for c in np.random.default_rng(seed).integers(1, 21, 12)]
    out["bounds.lo_max_atom.s"] = _median_time(clock, lambda: bounds.lo_max_atom(coeffs), 21)

    series = np.cumsum(RngStream(seed, 7).normals(100_001)) + 0.1 * np.arange(100_001)
    incs = np.diff(series)
    out["estimators.gamma_from_increments.s"] = _median_time(
        clock, lambda: estimators.gamma_from_increments(incs), 11
    )
    out["estimators.gamma_from_last_coordinate.s"] = _median_time(
        clock, lambda: estimators.gamma_from_last_coordinate(series), 11
    )
    return out


def threads_ratio(seed: int) -> tuple[dict[str, float], bool]:
    """tail_statistics at --threads 2 over --threads 1, and whether results agree bit for bit.

    Wall times, interleaved and not pinned: the caller must give the process
    every CPU, so that the two worker threads can run on two cores.
    """
    from lyapunov_lab import verification
    from lyapunov_lab.laws import BERNOULLI

    results = {}
    times: dict[int, list[float]] = {1: [], 2: []}
    for _ in range(5):
        for threads in (1, 2):
            t0 = time.perf_counter()
            results[threads] = verification.tail_statistics(
                BERNOULLI, ENSEMBLE_N, ENSEMBLE_CHAINS, seed, threads=threads
            )
            times[threads].append(time.perf_counter() - t0)
    a, b = results[1], results[2]
    identical = a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)
    ratio = statistics.median(times[2]) / statistics.median(times[1])
    return {"verification.tail_statistics.threads2_over_threads1": ratio}, identical
