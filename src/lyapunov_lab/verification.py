"""Named verification checks over the whole toolkit.

Each check compares a simulated or quadrature value against a constant,
closed form, bound, or independent re-computation, and reports one
CheckResult. The CLI `verify` subcommand and the acceptance test suite
both run these; seeds are frozen so every run is replayable bit for bit.
"""

from __future__ import annotations

import functools
import math
import time
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np
from scipy.special import exp1

from . import bounds, chain, estimators, gaussian, recursion
from .laws import BERNOULLI, GAUSSIAN, CoefficientLaw, RngStream
from .util import log_abs_bigint, ordered_map

__all__ = [
    "CheckResult",
    "DEFAULT_SEED",
    "GAMMA_FIB_ORACLE",
    "SUITES",
    "run_suite",
    "format_line",
    "tail_statistics",
]

DEFAULT_SEED = 1_000_003

GAMMA_FIB_ORACLE = math.log(1.13198824)
"""Growth rate of the random Fibonacci recursion f[k+1] = +-f[k] +- f[k-1]:
the log of Viswanath's constant 1.13198824..., 0.1239756 (Viswanath,
Math. Comp. 69, 2000). scripts/calibrate_fib_rate.py cross-checks it with
exact big integers (ten runs of 3e5 steps gave 0.12387 +- 0.00021)."""

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


def _eta_closed_form() -> float:
    """E F(rho, g, w), which is the same for every rho.

    The first log argument of F is 1 + g^2 + w^2, chi-square(2) plus one,
    and the rotated coordinate rho g + a w is standard normal, so
    E F = exp(1/2) E1(1/2) - 2 E log(1+g^2). The last moment is integrated
    adaptively against the normal density, independently of the
    Gauss-Hermite tables of `gaussian`.
    """
    # deferred: the CLI imports this module, and only this check integrates
    from scipy import integrate

    def log1p_density(x: float) -> float:
        return math.log1p(x * x) * math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

    e_log1p_g2 = integrate.quad(log1p_density, -math.inf, math.inf, epsabs=1e-14, epsrel=1e-13)[0]
    return math.exp(0.5) * float(exp1(0.5)) - 2.0 * e_log1p_g2


ETA_MAX_SPREAD = 1e-7
"""Largest spread of E F over the rho grid that check_eta_value accepts.
gaussian.eta takes the grid maximum without refining it, which is safe
only while E F is flat in rho (the spread is 7.8e-9 at 80 nodes, 201 rhos)."""


def check_eta_value(
    quad_order: int = 80, grid_size: int = 201, res: gaussian.EtaResult | None = None
) -> CheckResult:
    """res, when given, is gaussian.eta(quad_order, grid_size) computed by the caller."""
    if res is None:
        res = gaussian.eta(quad_order, grid_size)
    closed = _eta_closed_form()
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


def check_eta_negative(
    quad_order: int = 80, grid_size: int = 201, res: gaussian.EtaResult | None = None
) -> CheckResult:
    if res is None:
        res = gaussian.eta(quad_order, grid_size)
    return CheckResult(
        name="eta_negative",
        expected="< 0",
        observed=f"{res.eta_hat:.5f}",
        tolerance="strict sign",
        passed=res.eta_hat < 0.0,
    )


def check_chi2_log_moment(quad_order: int = 80) -> CheckResult:
    closed = math.exp(0.5) * float(exp1(0.5))
    quad = gaussian.gaussian_log_moments(quad_order).e_log1p_g2_w2
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


def check_vt_log4(seed: int = DEFAULT_SEED, n: int = 10_000, runs: int = 8, threads: int = 1) -> CheckResult:
    def one(stream: int) -> float:
        out = recursion.run_vt(n, RngStream(seed, stream))
        return float(out[-1]) / n

    rates = ordered_map(one, range(runs), threads)
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


def check_fib_rate(seed: int = DEFAULT_SEED, n: int = 1_000_000) -> CheckResult:
    out = recursion.run_fibonacci(n, RngStream(seed, 10))
    rate = float(out[-1]) / n
    return CheckResult(
        name="fib_rate_oracle",
        expected=f"{GAMMA_FIB_ORACLE:.7f}",
        observed=f"{rate:.5f}",
        tolerance="+-0.005",
        passed=abs(rate - GAMMA_FIB_ORACLE) <= 0.005,
        details=f"single run, n={n}",
    )


# ---------------------------------------------------------------------------
# inequalities


def check_alpha_two_coord_enum() -> CheckResult:
    # y = (1,1)/sqrt(2), signs enumerate to g in {-sqrt2, 0, 0, sqrt2}
    y = np.array([1.0, 1.0]) / math.sqrt(2.0)
    total = 0.0
    for s0 in (-1.0, 1.0):
        for s1 in (-1.0, 1.0):
            g = s0 * y[0] + s1 * y[1]
            total += 1.0 / math.sqrt(1.0 + g * g)
    value = total / 4.0
    return CheckResult(
        name="alpha_two_coord_enum",
        expected="0.78868",
        observed=f"{value:.7f}",
        tolerance="1e-5",
        passed=abs(value - 0.78868) < 1e-5,
    )


def _random_unit_vector(rng: RngStream, max_support: int = 32) -> np.ndarray:
    size = 1 + int(rng.uniforms(1)[0] * max_support)
    size = min(size, max_support)
    v = rng.normals(size)
    return v / np.linalg.norm(v)


def check_alpha_dominates_mc(
    seed: int = DEFAULT_SEED,
    samples: int = 100_000,
    vectors: int = 20,
    threads: int = 1,
) -> CheckResult:
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

    checks = ordered_map(one, cases, threads)
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
    trunc_tol: float = chain.DEFAULT_TRUNC_TOL,
    threads: int = 1,
    stream_base: int = 1000,
) -> dict:
    """Coordinate tail means across independent chains vs the alpha^i bound.

    Returns per-index across-chain means, standard errors, the alpha powers,
    and the worst violation z-score max_i (mean_i - alpha^i) / se_i. The
    standard errors need at least two chains. The chains run one after
    another (chain.iter_chains) in this thread, so `threads` has no effect;
    it stays for the callers that pass it.
    """
    if chains < 2:
        raise ValueError(f"chains must be >= 2 for a standard error, got {chains}")
    alpha = bounds.alpha_bound(law.sigma2, law.fourth_moment).alpha
    rngs = [RngStream(seed, stream_base + j) for j in range(chains)]
    rows = np.zeros((chains, max_index + 1))
    for row, run in zip(rows, chain.iter_chains(law, n, rngs, trunc_tol=trunc_tol)):
        tm = run.tail_means[: max_index + 1]
        row[: tm.size] = tm
    means = rows.mean(axis=0)
    ses = rows.std(axis=0, ddof=1) / math.sqrt(chains)
    powers = alpha ** np.arange(max_index + 1)
    z = (means - powers) / np.where(ses > 0, ses, np.inf)
    return {
        "indices": np.arange(max_index + 1),
        "means": means,
        "stderrs": ses,
        "alpha_powers": powers,
        "alpha": alpha,
        "max_z": float(z.max()),
        "passed": bool(np.all(means <= powers + 3.0 * ses)),
    }


def check_corollary8_tails(
    seed: int = DEFAULT_SEED,
    n: int = 1000,
    chains: int = 1000,
    max_index: int = 50,
) -> CheckResult:
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


def check_lo_bruteforce(seed: int = DEFAULT_SEED, sets: int = 25, max_k: int = 12) -> CheckResult:
    gen = RngStream(seed, 70)
    all_equal = True
    for _ in range(sets):
        k = 1 + int(gen.uniforms(1)[0] * max_k)
        k = min(k, max_k)
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
    run = chain.run_chain(law, n, RngStream(seed, stream), w=chain.WeightParameter(c))
    est = estimators.gamma_from_increments(run.increments)
    return est, run


def check_theorem1_rates(
    seed: int = DEFAULT_SEED,
    chain_n: int = 1_000_000,
    exact_n: int = 2000,
    exact_trajectories: int = 16,
    threads: int = 1,
) -> CheckResult:
    est_chain, _ = _chain_gamma(BERNOULLI, chain_n, seed, 100)

    def one(j: int) -> estimators.GrowthEstimate:
        traj = recursion.run_exact(exact_n, RngStream(seed, 200 + j))
        return estimators.gamma_from_last_coordinate(traj.log_abs_series())

    est_exact = estimators.pool_estimates(ordered_map(one, range(exact_trajectories), threads))
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


def check_theorem9_weighted(
    seed: int = DEFAULT_SEED,
    n: int = 1_000_000,
    cs: tuple[float, ...] = (0.005, 0.01),
    threads: int = 1,
) -> CheckResult:
    def one(jc: tuple[int, float]) -> tuple[float, bool]:
        j, c = jc
        est, run = _chain_gamma(BERNOULLI, n, seed, 300 + j, c=c)
        slope = abs(float(run.weighted_offsets[-1])) / n
        weighted = estimators.GrowthEstimate(
            gamma_hat=est.gamma_hat + float(run.weighted_offsets[-1]) / n,
            stderr=est.stderr,
            n_steps=n,
            n_trajectories=1,
            method=estimators.Method.WEIGHTED_NORM,
        )
        return slope, estimators.compare_rates(est, weighted).verdict

    results = ordered_map(one, list(enumerate(cs)), threads)
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


def check_gaussian_rate(
    seed: int = DEFAULT_SEED,
    n: int = 1_000_000,
    trajectories: int = 4,
    quad_order: int = 80,
) -> CheckResult:
    lam = gaussian.gaussian_log_moments(quad_order).lambda_v
    runs = chain.run_chains(GAUSSIAN, n, [RngStream(seed, 400 + j) for j in range(trajectories)])
    incs = np.concatenate([run.increments for run in runs])
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


def check_coupling_contraction(
    seed: int = DEFAULT_SEED,
    n: int = 5000,
    runs: int = 100,
    quad_order: int = 80,
    grid_size: int = 201,
    threads: int = 1,
    eta_hat: float | None = None,
) -> CheckResult:
    if eta_hat is None:
        eta_hat = gaussian.eta(quad_order, grid_size).eta_hat

    def one(j: int) -> tuple[float, float]:
        trace = gaussian.couple(n, RngStream(seed, 500 + j), rho0=0.0)
        return trace.mean_log_b, float(trace.log_a2[-1])

    results = ordered_map(one, range(runs), threads)
    drift_ok = sum(1 for m, _ in results if m <= eta_hat + 0.05)
    merged = sum(1 for _, la in results if la < -100.0)
    passed = drift_ok >= 95 and merged >= 95
    return CheckResult(
        name="coupling_contraction",
        expected=">=95/100 runs: mean log b <= eta+0.05 and log a2 < -100",
        observed=f"drift ok {drift_ok}/{runs}, merged {merged}/{runs}",
        tolerance="95 of 100",
        passed=passed,
        details=f"n={n}, rho0=0, eta_hat={eta_hat:.5f}",
    )


def _parity_ok(values: list[int]) -> bool:
    running = values[0]
    for k in range(1, len(values)):
        if (values[k] - running) % 2 != 0:
            return False
        running += values[k]
    return True


def check_exact_determinism(seed: int = DEFAULT_SEED, threads: int = 1) -> CheckResult:
    problems: list[str] = []

    traj = recursion.run_exact(12, RngStream(seed, 0), sign_override=1)
    expected = [1] + [2 ** max(k - 1, 0) for k in range(1, 13)]
    if traj.values != expected:
        problems.append("all-plus doubling failed")

    def parity_one(j: int) -> bool:
        return _parity_ok(recursion.run_exact(500, RngStream(seed, 600 + j)).values)

    if not all(ordered_map(parity_one, range(100), threads)):
        problems.append("parity invariant failed")

    for idx, n in enumerate((500, 1000, 2000)):
        rng_e = RngStream(seed, 700 + idx)
        rng_f = RngStream(seed, 700 + idx)
        exact = recursion.run_exact(n, rng_e)
        flt = recursion.run_exact_float(n, rng_f)
        diff = abs(log_abs_bigint(exact.values[n]) - flt.log_abs(n))
        if not diff <= 1e-8 * n:
            problems.append(f"exact vs float mismatch {diff:.2e} at n={n}")

    return CheckResult(
        name="exact_determinism",
        expected="doubling, parity, exact-vs-float within 1e-8*n",
        observed="all hold" if not problems else "; ".join(problems),
        tolerance="exact / 1e-8*n",
        passed=not problems,
        details="100 parity runs of n=500; n in {500,1000,2000} for the float path",
    )


# ---------------------------------------------------------------------------
# suites


# A suite is a list of checks not yet run, so that run_suite can time each.
# A suite that needs the 201-point quadrature scan gaussian.eta(80, 201)
# takes `eta`, a getter that computes it on first call and then returns
# the same result, so `--suite all` computes it once (within the first
# check that needs it) and a suite that does not need it computes it never.
EtaGetter = Callable[[], gaussian.EtaResult]
Check = Callable[[], CheckResult]


def suite_paper_constants(seed: int, threads: int, eta: EtaGetter) -> list[Check]:
    return [
        lambda: check_eta_value(res=eta()),
        lambda: check_eta_negative(res=eta()),
        lambda: check_chi2_log_moment(),
        lambda: check_alpha_closed_form(),
        lambda: check_vt_log4(seed, threads=threads),
        lambda: check_fib_rate(seed),
    ]


def suite_inequalities(seed: int, threads: int, eta: EtaGetter) -> list[Check]:
    return [
        lambda: check_alpha_two_coord_enum(),
        lambda: check_alpha_dominates_mc(seed, threads=threads),
        lambda: check_corollary8_tails(seed),
        lambda: check_lo_bruteforce(seed),
        lambda: check_lo_erdos(),
        lambda: check_lo_sarkozy_echo(),
    ]


def suite_consistency(seed: int, threads: int, eta: EtaGetter) -> list[Check]:
    return [
        lambda: check_theorem1_rates(seed, threads=threads),
        lambda: check_theorem9_weighted(seed, threads=threads),
        lambda: check_gaussian_rate(seed),
        lambda: check_coupling_contraction(seed, threads=threads, eta_hat=eta().eta_hat),
        lambda: check_exact_determinism(seed, threads=threads),
    ]


SUITES = {
    "paper-constants": suite_paper_constants,
    "inequalities": suite_inequalities,
    "consistency": suite_consistency,
}


def run_suite(name: str, seed: int = DEFAULT_SEED, threads: int = 1) -> list[CheckResult]:
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    eta = functools.cache(lambda: gaussian.eta(80, 201))
    suites = SUITES.values() if name == "all" else [SUITES[name]]
    results = []
    for suite in suites:
        for check in suite(seed, threads, eta):
            t0 = time.perf_counter()
            result = check()
            result.elapsed_s = time.perf_counter() - t0
            results.append(result)
    return results
