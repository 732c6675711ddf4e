"""Named verification checks over the whole toolkit.

Each check compares a simulated or quadrature value against a constant,
closed form, bound, or independent re-computation, and reports one
CheckResult. The CLI `verify` subcommand and the acceptance test suite
both run these; seeds are frozen so every run is replayable bit for bit.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np
from scipy.special import exp1

from . import bounds, chain, estimators, gaussian, recursion
from .laws import BERNOULLI, GAUSSIAN, CoefficientLaw, RngStream, sample_row
from .util import log_abs_bigint, ordered_map

__all__ = [
    "CheckResult",
    "DEFAULT_SEED",
    "GAMMA_FIB_ORACLE",
    "SUITES",
    "run_suite",
    "format_line",
    "tail_statistics",
    "TAIL_CELL_CAP",
]

DEFAULT_SEED = 1_000_003

GAMMA_FIB_ORACLE = math.log(1.13198824)
"""Growth rate of the random Fibonacci recursion f[k+1] = +-f[k] +- f[k-1]:
the log of Viswanath's constant 1.13198824..., 0.1239756 (Viswanath,
Math. Comp. 69, 2000). scripts/calibrate_fib_rate.py cross-checks it with
exact big integers (ten runs of 3e5 steps gave 0.12387 +- 0.00021)."""

TAIL_CELL_CAP = 10**8  # tail_statistics keeps chains x (max_index + 1) floats: 800 MB at the cap

ETA_PRINTED = -0.1395
"""Reported value of the worst-case contraction constant, kept for
reference only. It is not a pass criterion: check_eta_value compares
against the closed form of E F and prints the gap to this value. Its
source is not in the repository, and no rho gives it for the F that
`gaussian` documents, whose expectation is -0.1439957... for every rho."""


@dataclass
class CheckResult:
    name: str
    expected: str
    observed: str
    tolerance: str
    passed: bool
    details: str = ""
    elapsed_s: float | None = None  # wall time of the check, set by run_suite


def format_line(cr: CheckResult) -> str:
    status = "PASS" if cr.passed else "FAIL"
    line = f"[{status}] {cr.name}: expected {cr.expected}, observed {cr.observed}, tol {cr.tolerance}"
    if cr.details:
        line += f"  ({cr.details})"
    if cr.elapsed_s is not None:
        line += f"  [{cr.elapsed_s:.2f} s]"
    return line


# ---------------------------------------------------------------------------
# constants and closed forms


ETA_MAX_SPREAD = 1e-7
"""Largest spread of E F over the rho grid that check_eta_value accepts.
gaussian.eta takes the grid maximum without refining it, which is safe
only while E F is flat in rho (the spread is 7.8e-9 at 80 nodes, 201 rhos)."""


def check_eta_value() -> CheckResult:
    """The closed form gaussian.ETA against the 201-point quadrature scan of E F over rho."""
    res = gaussian.eta(80, 201)
    closed = gaussian.ETA
    spread = float(res.mean_f.max() - res.mean_f.min())
    return CheckResult(
        name="eta_value",
        expected=f"{closed:.10f}",
        observed=f"{res.eta_hat:.10f}",
        tolerance=f"1e-6, rho-grid spread <= {ETA_MAX_SPREAD:g}",
        passed=abs(res.eta_hat - closed) < 1e-6 and spread <= ETA_MAX_SPREAD,
        details=(
            f"rho-grid spread {spread:.1e}; "
            f"reported {ETA_PRINTED} differs by {abs(res.eta_hat - ETA_PRINTED):.4f}"
        ),
    )


def check_eta_negative() -> CheckResult:
    return CheckResult(
        name="eta_negative",
        expected="< 0",
        observed=f"{gaussian.ETA:.5f}",
        tolerance="strict sign",
        passed=gaussian.ETA < 0.0,
    )


def check_chi2_log_moment() -> CheckResult:
    closed = math.exp(0.5) * float(exp1(0.5))
    quad = gaussian.gaussian_log_moments().e_log1p_g2_w2
    return CheckResult(
        name="chi2_log_moment",
        expected=f"{closed:.8f}",
        observed=f"{quad:.8f}",
        tolerance="1e-6",
        passed=abs(quad - closed) < 1e-6,
        details="E log(1+g^2+w^2) vs exp(1/2) E1(1/2)",
    )


def _alpha_by_grid(sigma2: float, fourth_moment: float, zeta_sq_factor: float = 7.0) -> tuple[float, float]:
    """(alpha, argmax) of 1 - max_a a(sigma2-a)^2/(f*D*(1+a)) by brute force.

    An oracle for bounds.alpha_bound that shares nothing with its closed
    form: a 10,001-point grid over [0, sigma2], then a second one across
    the two cells around the best point. The second pass is needed for
    1e-9 everywhere: the first alone misses by 4.8e-9 at sigma2 = 10.
    """
    lo, hi = 0.0, sigma2
    for _ in range(2):
        a = np.linspace(lo, hi, 10_001)
        vals = a * (sigma2 - a) ** 2 / (zeta_sq_factor * fourth_moment * (1.0 + a))
        i = int(np.argmax(vals))
        lo, hi = float(a[max(i - 1, 0)]), float(a[min(i + 1, a.size - 1)])
    return 1.0 - float(vals[i]), float(a[i])


def check_alpha_closed_form() -> CheckResult:
    grid_alpha, grid_a = _alpha_by_grid(1.0, 1.0)
    res = bounds.alpha_bound(1.0, 1.0)
    return CheckResult(
        name="alpha_closed_form",
        expected=f"{grid_alpha:.9f}",
        observed=f"{res.alpha:.9f}",
        tolerance="1e-9",
        passed=abs(res.alpha - grid_alpha) < 1e-9,
        details=f"argmax_a={res.argmax_a:.6f} vs grid {grid_a:.6f}",
    )


def check_vt_log4(seed: int = DEFAULT_SEED) -> CheckResult:
    n, runs = 10_000, 8

    def one(stream: int) -> float:
        out = recursion.run_vt(n, RngStream(seed, stream))
        return float(out[-1]) / n

    rates = ordered_map(one, range(runs))
    mean = float(np.mean(rates))
    target = math.log(4.0)
    return CheckResult(
        name="vt_log4",
        expected=f"{target:.5f}",
        observed=f"{mean:.5f}",
        tolerance="+-0.07",
        passed=abs(mean - target) <= 0.07,
        details=f"mean over {runs} runs of n={n}",
    )


def check_fib_rate(seed: int = DEFAULT_SEED) -> CheckResult:
    """The estimate `gamma --model fib` ships, within 3 batch-means se of the oracle."""
    n = 1_000_000
    est = estimators.gamma_from_increments(np.diff(recursion.log_norms("fib", n, RngStream(seed, 10))))
    z = (est.gamma_hat - GAMMA_FIB_ORACLE) / est.stderr
    return CheckResult(
        name="fib_rate_oracle",
        expected=f"{GAMMA_FIB_ORACLE:.7f}",
        observed=f"{est.gamma_hat:.7f}",
        tolerance="3 se",
        passed=abs(est.gamma_hat - GAMMA_FIB_ORACLE) <= 3.0 * est.stderr,
        details=f"se={est.stderr:.2e}, z={z:.2f}, single run, n={n}",
    )


# ---------------------------------------------------------------------------
# inequalities


def check_alpha_two_coord_enum(seed: int = DEFAULT_SEED) -> CheckResult:
    """E(1+<eps, y>^2)^(-1/2) at y = (1,1)/sqrt(2), exactly and by bounds.verify_alpha_mc.

    The four sign patterns give g in {-sqrt2, 0, 0, sqrt2}, so the exact
    mean is (1 + 1/sqrt3)/2 = 0.7886751. The Monte Carlo estimate of the
    library, on stream 19, must pass its own alpha test and lie within
    3 standard errors of the enumerated value.
    """
    y = np.array([1.0, 1.0]) / math.sqrt(2.0)
    total = 0.0
    for s0 in (-1.0, 1.0):
        for s1 in (-1.0, 1.0):
            g = s0 * y[0] + s1 * y[1]
            total += 1.0 / math.sqrt(1.0 + g * g)
    value = total / 4.0
    mc = bounds.verify_alpha_mc(BERNOULLI, y, 100_000, RngStream(seed, 19))
    z = (mc.empirical_mean - value) / mc.stderr
    return CheckResult(
        name="alpha_two_coord_enum",
        expected="0.78868",
        observed=f"{value:.7f}",
        tolerance="1e-5, MC 3 se",
        passed=abs(value - 0.78868) < 1e-5 and mc.passed and abs(z) <= 3.0,
        details=f"MC {mc.empirical_mean:.5f}+-{mc.stderr:.5f} (z={z:.2f}), {mc.samples} samples",
    )


def _random_unit_vector(rng: RngStream) -> np.ndarray:
    """A random direction in 1 to 32 dimensions, the dimension uniform too."""
    size = 1 + int(rng.uniforms(1)[0] * 32)
    v = rng.normals(size)
    return v / np.linalg.norm(v)


def check_alpha_dominates_mc(seed: int = DEFAULT_SEED) -> CheckResult:
    samples, vectors = 100_000, 20
    gen = RngStream(seed, 20)
    cases: list[tuple[CoefficientLaw, np.ndarray, int]] = []
    stream = 21
    for law in (BERNOULLI, GAUSSIAN):
        for _ in range(vectors):
            cases.append((law, _random_unit_vector(gen), stream))
            stream += 1

    def one(case: tuple[CoefficientLaw, np.ndarray, int]) -> bounds.McCheck:
        law, y, sid = case
        return bounds.verify_alpha_mc(law, y, samples, RngStream(seed, sid))

    checks = ordered_map(one, cases)
    margins = [(c.empirical_mean - c.alpha) / c.stderr for c in checks]
    worst = max(margins)
    return CheckResult(
        name="alpha_dominates_mc",
        expected="mean <= alpha + 3 se for all",
        observed=f"worst (mean-alpha)/se = {worst:.2f}",
        tolerance="3 se",
        passed=all(c.passed for c in checks),
        details=f"{len(checks)} vectors, both laws, {samples} samples each",
    )


def tail_statistics(
    law: CoefficientLaw,
    n: int,
    chains: int,
    seed: int,
    max_index: int = 50,
    threads: int = 1,  # ignored; benchmark v2 deletes it: perfbench/probes.py passes threads=2
) -> dict:
    """Coordinate tail means across independent chains vs the alpha^i bound.

    Chain j runs on stream 1000 + j of seed. Returns per-index across-chain
    means, standard errors, the alpha powers, and the worst violation
    z-score max_i (mean_i - alpha^i) / se_i over the indices with se_i > 0
    (some chain reached them). The standard errors need at least two
    chains, and no run of n steps reaches past index n. The table of
    chains x (max_index + 1) tail means is capped at TAIL_CELL_CAP cells.
    """
    if chains < 2:
        raise ValueError(f"chains must be >= 2 for a standard error, got {chains}")
    if max_index < 0:
        raise ValueError(f"max_index must be >= 0, got {max_index}")
    if max_index > n:
        raise ValueError(f"max_index must be <= n, got max_index={max_index} > n={n}")
    if chains * (max_index + 1) > TAIL_CELL_CAP:
        raise ValueError(
            f"chains x (max_index + 1) = {chains} x {max_index + 1} exceeds the tail table's cap, {TAIL_CELL_CAP} cells"
        )
    alpha = bounds.alpha_bound(law.sigma2, law.fourth_moment).alpha
    rows = np.zeros((chains, max_index + 1))
    for j, row in enumerate(rows):
        tm = chain.run_chain(law, n, RngStream(seed, 1000 + j)).tail_means[: max_index + 1]
        row[: tm.size] = tm
    means = rows.mean(axis=0)
    ses = rows.std(axis=0, ddof=1) / math.sqrt(chains)
    powers = alpha ** np.arange(max_index + 1)
    spread = ses > 0
    z = (means[spread] - powers[spread]) / ses[spread]
    return {
        "indices": np.arange(max_index + 1),
        "means": means,
        "stderrs": ses,
        "alpha_powers": powers,
        "alpha": alpha,
        "max_z": float(np.max(z, initial=-np.inf)),
        "passed": bool(np.all(means <= powers + 3.0 * ses)),
    }


def check_corollary8_tails(seed: int = DEFAULT_SEED) -> CheckResult:
    n, chains, max_index = 1000, 1000, 50
    stats = tail_statistics(BERNOULLI, n, chains, seed, max_index)
    return CheckResult(
        name="corollary8_tails",
        expected="mean |z_i| <= alpha^i + 3 se_i, i <= 50",
        observed=f"max violation z = {stats['max_z']:.2f}",
        tolerance="3 se",
        passed=stats["passed"],
        details=f"{chains} chains of n={n}, alpha={stats['alpha']:.5f}",
    )


def _lo_bruteforce(coeffs: list[int]) -> Fraction:
    """Independent 2^k enumeration of the largest signed-sum atom."""
    k = len(coeffs)
    counts: dict[int, int] = {}
    for mask in range(1 << k):
        s = 0
        for i, b in enumerate(coeffs):
            s += b if (mask >> i) & 1 else -b
        counts[s] = counts.get(s, 0) + 1
    return Fraction(max(counts.values()), 1 << k)


def check_lo_bruteforce(seed: int = DEFAULT_SEED) -> CheckResult:
    sets, max_k = 25, 12
    gen = RngStream(seed, 70)
    all_equal = True
    for _ in range(sets):
        k = 1 + int(gen.uniforms(1)[0] * max_k)
        mags = 1 + (gen.uniforms(k) * 20.0).astype(int)
        signs = np.where(gen.uniforms(k) < 0.5, -1, 1)
        coeffs = [int(m * s) for m, s in zip(mags, signs)]
        if bounds.lo_max_atom(coeffs).max_atom != _lo_bruteforce(coeffs):
            all_equal = False
            break
    return CheckResult(
        name="lo_bruteforce",
        expected="DP atom == enumeration atom",
        observed="all equal" if all_equal else "mismatch",
        tolerance="exact",
        passed=all_equal,
        details=f"{sets} random sets, k <= {max_k}",
    )


def check_lo_erdos() -> CheckResult:
    ok = True
    for k in range(1, 21):
        expected = Fraction(comb(k, k // 2), 2**k)
        if bounds.lo_max_atom([1] * k).max_atom != expected:
            ok = False
            break
    return CheckResult(
        name="lo_erdos_all_ones",
        expected="C(k, floor(k/2)) / 2^k",
        observed="exact match, k <= 20" if ok else f"mismatch at k={k}",
        tolerance="exact",
        passed=ok,
    )


def check_lo_sarkozy_echo() -> CheckResult:
    scaled = []
    for k in range(8, 17):
        atom = bounds.lo_max_atom(list(range(1, k + 1))).max_atom
        scaled.append(float(atom) * k**1.5)
    ok = all(scaled[i + 1] <= 1.10 * scaled[i] for i in range(len(scaled) - 1))
    return CheckResult(
        name="lo_sarkozy_echo",
        expected="atom * k^1.5 non-increasing within 10%",
        observed=f"ratios max {max(scaled[i+1]/scaled[i] for i in range(len(scaled)-1)):.3f}",
        tolerance="1.10",
        passed=ok,
        details="distinct coefficients 1..k, k in 8..16",
    )


# ---------------------------------------------------------------------------
# consistency of rates


def _chain_gamma(
    law: CoefficientLaw,
    n: int,
    seed: int,
    stream: int,
    c: float = 0.0,
) -> tuple[estimators.GrowthEstimate, chain.ChainRun]:
    run = chain.run_chain(law, n, RngStream(seed, stream), c=c)
    est = estimators.gamma_from_increments(run.increments)
    return est, run


def check_theorem1_rates(seed: int = DEFAULT_SEED) -> CheckResult:
    chain_n, exact_n, exact_trajectories = 1_000_000, 2000, 16
    est_chain, _ = _chain_gamma(BERNOULLI, chain_n, seed, 100)

    def one(j: int) -> estimators.GrowthEstimate:
        traj = recursion.run_exact(exact_n, RngStream(seed, 200 + j))
        return estimators.gamma_from_last_coordinate(traj.log_abs_series())

    est_exact = estimators.pool_estimates(ordered_map(one, range(exact_trajectories)))
    cmp = estimators.compare_rates(est_exact, est_chain)
    neg_log_alpha = -math.log(bounds.alpha_bound(1.0, 1.0).alpha)
    passed = cmp.verdict and est_chain.gamma_hat > 0.0 and est_chain.gamma_hat >= neg_log_alpha
    return CheckResult(
        name="theorem1_rates",
        expected="|gamma_exact - gamma_chain| <= 3 se, gamma > 0.01633",
        observed=(
            f"exact {est_exact.gamma_hat:.5f}+-{est_exact.stderr:.5f}, "
            f"chain {est_chain.gamma_hat:.5f}+-{est_chain.stderr:.5f}, z={cmp.z_score:.2f}"
        ),
        tolerance="3 joint se",
        passed=passed,
    )


def check_theorem9_weighted(seed: int = DEFAULT_SEED) -> CheckResult:
    n, cs = 1_000_000, (0.005, 0.01)

    def one(jc: tuple[int, float]) -> tuple[float, bool]:
        j, c = jc
        est, run = _chain_gamma(BERNOULLI, n, seed, 300 + j, c=c)
        offset = float(run.weighted_offsets[-1])
        weighted = estimators.gamma_from_weighted_norm(est, offset, n)
        return abs(offset) / n, estimators.compare_rates(est, weighted).verdict

    results = ordered_map(one, enumerate(cs))
    max_slope = max(s for s, _ in results)
    verdicts = all(v for _, v in results)
    return CheckResult(
        name="theorem9_weighted",
        expected="|log ||Z||_c| / n < 1e-3",
        observed=f"max slope {max_slope:.2e}",
        tolerance="1e-3",
        passed=max_slope < 1e-3 and verdicts,
        details=f"c in {list(cs)}, n={n}",
    )


def check_gaussian_rate(seed: int = DEFAULT_SEED) -> CheckResult:
    n, trajectories = 1_000_000, 4
    lam = gaussian.LAMBDA_V
    incs = np.concatenate(
        [chain.run_chain(GAUSSIAN, n, RngStream(seed, 400 + j)).increments for j in range(trajectories)]
    )
    est = estimators.gamma_from_increments(incs)
    z = (est.gamma_hat - lam) / est.stderr
    return CheckResult(
        name="gaussian_rate_lambda_v",
        expected=f"lambda_v = {lam:.6f}",
        observed=f"{est.gamma_hat:.6f}+-{est.stderr:.6f} (z={z:.2f})",
        tolerance="3 joint se",
        passed=abs(est.gamma_hat - lam) <= 3.0 * est.stderr,
        details=f"{trajectories} trajectories of n={n}",
    )


def check_coupling_contraction(seed: int = DEFAULT_SEED) -> CheckResult:
    n, runs = 5000, 100

    def one(j: int) -> tuple[float, float]:
        trace = gaussian.couple(n, RngStream(seed, 500 + j), rho0=0.0)
        return trace.mean_log_b, float(trace.log_a2[-1])

    results = ordered_map(one, range(runs))
    drift_ok = sum(1 for m, _ in results if m <= gaussian.ETA + 0.05)
    merged = sum(1 for _, la in results if la < -100.0)
    passed = drift_ok >= 95 and merged >= 95
    return CheckResult(
        name="coupling_contraction",
        expected=">=95/100 runs: mean log b <= eta+0.05 and log a2 < -100",
        observed=f"drift ok {drift_ok}/{runs}, merged {merged}/{runs}",
        tolerance="95 of 100",
        passed=passed,
        details=f"n={n}, rho0=0, eta={gaussian.ETA:.5f}",
    )


def _parity_ok(values: list[int]) -> bool:
    running = values[0]
    for k in range(1, len(values)):
        if (values[k] - running) % 2 != 0:
            return False
        running += values[k]
    return True


def _signed_sums(n: int, rng: RngStream) -> list[int]:
    """x[0..n] of the full-history recursion, each x[k+1] = sum_i eps[k,i] x[k-i] added term by term."""
    values = [1]
    for k in range(n):
        rng.seek_row(k)
        row = sample_row(BERNOULLI, rng, k + 1)
        values.append(sum(x if eps > 0 else -x for eps, x in zip(row, reversed(values))))
    return values


def check_exact_determinism(seed: int = DEFAULT_SEED) -> CheckResult:
    problems: list[str] = []

    for stream in range(800, 804):
        if recursion.run_exact(300, RngStream(seed, stream)).values != _signed_sums(300, RngStream(seed, stream)):
            problems.append(f"run_exact differs from the term-by-term sum on stream {stream}")

    def parity_one(j: int) -> bool:
        return _parity_ok(recursion.run_exact(500, RngStream(seed, 600 + j)).values)

    if not all(ordered_map(parity_one, range(100))):
        problems.append("parity invariant failed")

    for idx, n in enumerate((500, 1000, 2000)):
        rng_e = RngStream(seed, 700 + idx)
        rng_f = RngStream(seed, 700 + idx)
        exact = recursion.run_exact(n, rng_e)
        flt = recursion.run_exact_float(n, rng_f)
        diff = abs(log_abs_bigint(exact.values[n]) - float(flt[n]))
        if not diff <= 1e-8 * n:
            problems.append(f"exact vs float mismatch {diff:.2e} at n={n}")

    return CheckResult(
        name="exact_determinism",
        expected="term-by-term signed sum, parity, exact-vs-float within 1e-8*n",
        observed="all hold" if not problems else "; ".join(problems),
        tolerance="exact / 1e-8*n",
        passed=not problems,
        details="4 runs of n=300 against the signed sum; 100 parity runs of n=500; n in {500,1000,2000} for the float path",
    )


# ---------------------------------------------------------------------------
# suites


# A suite is a list of checks not yet run, so that run_suite can time each.
Check = Callable[[], CheckResult]


def suite_paper_constants(seed: int) -> list[Check]:
    return [
        lambda: check_eta_value(),
        lambda: check_eta_negative(),
        lambda: check_chi2_log_moment(),
        lambda: check_alpha_closed_form(),
        lambda: check_vt_log4(seed),
        lambda: check_fib_rate(seed),
    ]


def suite_inequalities(seed: int) -> list[Check]:
    return [
        lambda: check_alpha_two_coord_enum(seed),
        lambda: check_alpha_dominates_mc(seed),
        lambda: check_corollary8_tails(seed),
        lambda: check_lo_bruteforce(seed),
        lambda: check_lo_erdos(),
        lambda: check_lo_sarkozy_echo(),
    ]


def suite_consistency(seed: int) -> list[Check]:
    return [
        lambda: check_theorem1_rates(seed),
        lambda: check_theorem9_weighted(seed),
        lambda: check_gaussian_rate(seed),
        lambda: check_coupling_contraction(seed),
        lambda: check_exact_determinism(seed),
    ]


SUITES = {
    "paper-constants": suite_paper_constants,
    "inequalities": suite_inequalities,
    "consistency": suite_consistency,
}


def run_suite(name: str, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    suites = SUITES.values() if name == "all" else [SUITES[name]]
    results = []
    for suite in suites:
        for check in suite(seed):
            t0 = time.perf_counter()
            result = check()
            result.elapsed_s = time.perf_counter() - t0
            results.append(result)
    return results
