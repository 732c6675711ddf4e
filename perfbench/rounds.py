"""Workload rounds and the correctness gate behind failed_frac.

A round is a fixed list of lyapunov-lab CLI commands. Every round of a
workload has the same shape; only the seeds (and the lo coefficients)
change, and they are a pure function of (workload, workload seed, round
index). Commands run in-process through lyapunov_lab.cli.dispatch, one after
the other, each writing its files to its own output directory with
--no-timestamps so that a replay is byte-identical.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("chain-long", "chain-ensemble", "short-rows", "full-history")
WARMUP = -1  # round index of the untimed warm-up round

# Reference values, each from a closed form or the literature, computed
# here without the library.
FIB_RATE = math.log(1.13198824)  # Viswanath, Math. Comp. 69 (2000): 0.1239756
VT_RATE = math.log(4.0)  # Viswanath and Trefethen, SIAM J. Matrix Anal. Appl. 19 (1998)
_A_STAR = (-3.0 + math.sqrt(17.0)) / 4.0  # argmax of a(1-a)^2/(7(1+a)): 2a^2 + 3a - 1 = 0
ALPHA_11 = 1.0 - _A_STAR * (1.0 - _A_STAR) ** 2 / (7.0 * (1.0 + _A_STAR))

# Tolerances in standard errors. The batch-means stderr of the chain
# estimators covers its own spread (over 40 seeds at n = 1e4 the Gaussian
# chain's error had sd 0.00253 against a mean stderr of 0.00259), so six
# stderrs leave a false-failure rate far below one per driver session.
Z_TOL = 6.0

# The last-coordinate regression stderr of `gamma --model fib` and
# `gamma --model vt` does NOT cover the estimator's spread: over 40 seeds
# (fib, n = 2e4) the error had sd 0.0034 against a mean reported stderr of
# 0.00045, and over 25 seeds (vt, n = 3000) sd 0.054 against 0.0081, with
# |z| up to 25. A gate on that stderr would fail most rounds, so these two
# are gated on a fixed tolerance of about six measured sds instead, and the
# own-stderr z-scores are reported as a diagnostic (see stderr_coverage).
FIB_TOL = 0.02
VT_TOL = 0.35

EXACT_PARITY_LOG_MAX = 30.0  # below this, exp(log|x|) still rounds to the exact integer


@dataclass(frozen=True)
class Command:
    kind: str  # selects the check in check_command
    argv: tuple[str, ...]  # without --out / --no-timestamps
    seed: int
    coeffs: tuple[int, ...] = ()


@dataclass
class Outcome:
    rc: int
    stdout: str
    stderr: str
    out_dir: str


@dataclass
class RoundRun:
    index: int
    seconds: float
    outcomes: list[Outcome] = field(default_factory=list)
    command_s: list[float] = field(default_factory=list)
    adjusted_s: float = 0.0  # seconds at the reference host speed, see run.CpuPicker


def load_cli(root: Path):
    """Import lyapunov_lab.cli from root/src, refusing any other copy."""
    src = (root / "src").resolve()
    if not (src / "lyapunov_lab" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no lyapunov_lab sources under {src}")
    sys.path.insert(0, str(src))
    from lyapunov_lab import cli

    if Path(cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"perfbench: imported lyapunov_lab from {cli.__file__}, not {src}")
    return cli


def make_round(workload: str, seed: int, index: int) -> list[Command]:
    """The commands of round `index` of `workload` under workload seed `seed`."""
    rnd = random.Random(f"{workload}:{seed}:{index}")

    def cmd(kind: str, *argv: str, coeffs: tuple[int, ...] = ()) -> Command:
        s = rnd.getrandbits(63)
        return Command(kind, tuple(argv) + ("--seed", str(s)), s, coeffs)

    if workload == "chain-long":
        # one trajectory per command, n = 1e4, nearly all steps at the
        # settled support of ~105-140 coordinates
        return [
            cmd(f"chain-{law}", "gamma", "--model", "chain", "--law", law, "--n", "10000", "--c", c)
            for law in ("bernoulli", "gaussian")
            for c in ("0", "0.005")
        ]
    if workload == "chain-ensemble":
        # many short chains that grow their support from e0
        return [
            cmd("tails", "tails", "--law", "bernoulli", "--n", "1000", "--chains", "16"),
            cmd(
                "chain-bernoulli", "gamma", "--model", "chain", "--law", "bernoulli",
                "--n", "1000", "--trajectories", "8",
            ),
        ]
    if workload == "short-rows":
        # 2-word rows: per-row seek and call overhead dominate
        return [
            cmd("fib", "gamma", "--model", "fib", "--n", "20000"),
            cmd("couple", "couple", "--n", "5000"),
        ]
    if workload == "full-history":
        # O(n^2) rows of thousands of words, big integers, quadrature, bounds
        coeffs = tuple(rnd.randint(1, 20) * rnd.choice((-1, 1)) for _ in range(12))
        return [
            cmd("exact", "simulate", "--model", "exact", "--n", "1500"),
            cmd("vt", "gamma", "--model", "vt", "--law", "gaussian", "--n", "3000"),
            cmd("eta", "eta"),
            cmd("alpha", "alpha", "--sigma2", "1", "--fourth-moment", "1"),
            # --coeffs=... because argparse would read a leading "-5,..." as an option
            cmd("lo", "lo", "--coeffs=" + ",".join(map(str, coeffs)), coeffs=coeffs),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def run_round(cli, commands: list[Command], out_root: Path, index: int, between=None) -> RoundRun:
    """Run one round; each command writes under out_root/<i>.

    between() runs before each command and after the last. The round's
    time is the sum of its commands' times, so between() is not counted.
    """
    result = RoundRun(index, 0.0)
    for i, command in enumerate(commands):
        if between is not None:
            between()
        out_dir = str(out_root / str(i))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = cli.dispatch([*command.argv, "--out", out_dir, "--no-timestamps"])
            except Exception:  # a crash fails the round, not the benchmark
                traceback.print_exc()
                rc = -1
            result.command_s.append(time.perf_counter() - t0)
        result.outcomes.append(Outcome(rc, out.getvalue(), err.getvalue(), out_dir))
    if between is not None:
        between()
    result.seconds = sum(result.command_s)
    return result


# ---------------------------------------------------------------------------
# the gate


class Reference:
    """Reference constants computed once, without the library."""

    def __init__(self) -> None:
        from scipy import integrate, special

        def density_log1p(x: float) -> float:
            return math.log1p(x * x) * math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

        e_log1p_g2 = integrate.quad(density_log1p, -math.inf, math.inf, epsabs=1e-14, epsrel=1e-13)[0]
        self.lambda_v = 0.5 * e_log1p_g2
        self.eta = math.exp(0.5) * float(special.exp1(0.5)) - 2.0 * e_log1p_g2
        self.neg_log_alpha = -math.log(ALPHA_11)


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token}")


def _finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    return True


def _lo_bruteforce(coeffs: tuple[int, ...]) -> Fraction:
    counts: dict[int, int] = {}
    for mask in range(1 << len(coeffs)):
        s = sum(b if (mask >> i) & 1 else -b for i, b in enumerate(coeffs))
        counts[s] = counts.get(s, 0) + 1
    return Fraction(max(counts.values()), 1 << len(coeffs))


def _exact_series_parity(path: str) -> str | None:
    """Parity invariant as seen in series.csv: x[1] = +-1 and x[k] even for k >= 2."""
    with open(path) as fh:
        next(fh)
        for line in fh:
            k_str, v_str = line.rstrip("\n").split(",")
            k, v = int(k_str), float(v_str)
            if k == 1 and v != 0.0:
                return "x[1] is not +-1"
            if k >= 2 and v != -math.inf:
                if v < math.log(2.0) - 1e-15:
                    return f"|x[{k}]| = {math.exp(v):.3g} is odd"
                if v < EXACT_PARITY_LOG_MAX and round(math.exp(v)) % 2:
                    return f"|x[{k}]| = {round(math.exp(v))} is odd"
    return None


def check_command(command: Command, outcome: Outcome, ref: Reference) -> tuple[str | None, dict]:
    """(failure reason or None, diagnostics) for one command's outcome."""
    if outcome.rc != 0:
        return f"exit code {outcome.rc}: {outcome.stderr.strip()[-200:]}", {}
    try:
        d = json.loads(outcome.stdout, parse_constant=_reject_constant)
    except ValueError as exc:
        return f"stdout is not finite JSON: {exc}", {}
    if not _finite(d):
        return "non-finite number in stdout", {}

    kind = command.kind
    diag: dict = {}
    if kind in ("chain-gaussian", "chain-bernoulli", "fib", "vt"):
        g, se = d["gamma_hat"], d["stderr"]
        if kind == "chain-gaussian" and abs(g - ref.lambda_v) > Z_TOL * se:
            return f"gamma {g:.6f} misses lambda_v {ref.lambda_v:.6f} by more than {Z_TOL} se ({se:.2e})", diag
        if kind == "chain-bernoulli" and not g - Z_TOL * se > ref.neg_log_alpha:
            return f"gamma {g:.6f} - {Z_TOL} se is not above -log alpha {ref.neg_log_alpha:.6f}", diag
        if kind in ("fib", "vt"):
            target, tol = (FIB_RATE, FIB_TOL) if kind == "fib" else (VT_RATE, VT_TOL)
            diag["z_own_stderr"] = (g - target) / se if se > 0 else math.inf
            if abs(g - target) > tol:
                return f"{kind} rate {g:.6f} misses {target:.7f} by more than {tol}", diag
    elif kind == "couple":
        if not d["final_log_a2"] < -100.0:
            return f"final log a^2 {d['final_log_a2']:.2f} is not below -100", diag
    elif kind == "tails":
        if abs(d["alpha"] - ALPHA_11) > 1e-9 or d["passed"] is not True:
            return f"tails: alpha {d['alpha']} or the alpha^i bound failed (max_z {d['max_z']})", diag
    elif kind == "exact":
        reason = _exact_series_parity(os.path.join(outcome.out_dir, "series.csv"))
        if reason:
            return f"parity invariant: {reason}", diag
    elif kind == "eta":
        if abs(d["eta_hat"] - ref.eta) > 1e-6:
            return f"eta {d['eta_hat']:.9f} differs from the closed form {ref.eta:.9f} by more than 1e-6", diag
    elif kind == "alpha":
        if abs(d["alpha"] - ALPHA_11) > 1e-9 or abs(d["argmax_a"] - _A_STAR) > 1e-9:
            return f"alpha {d['alpha']!r} / argmax {d['argmax_a']!r} miss the closed form by more than 1e-9", diag
    elif kind == "lo":
        count, k = d["max_atom"].split("/2^")
        atom = _lo_bruteforce(command.coeffs)
        if Fraction(int(count), 2 ** int(k)) != atom or d["max_atom_float"] != float(atom):
            return f"lo atom {d['max_atom']} differs from enumeration {atom}", diag
    return None, diag


def check_exact_integers(command: Command, outcome: Outcome) -> str | None:
    """Full parity check on the integers behind one `simulate --model exact` run."""
    from lyapunov_lab import recursion
    from lyapunov_lab.laws import RngStream
    from lyapunov_lab.util import log_abs_bigint

    n = int(command.argv[command.argv.index("--n") + 1])
    values = recursion.run_exact(n, RngStream(command.seed, 0)).values
    running = values[0]
    for k in range(1, len(values)):
        if (values[k] - running) % 2:
            return f"parity invariant fails at k={k}"
        running += values[k]
    if json.loads(outcome.stdout)["log_abs_final"] != log_abs_bigint(values[-1]):
        return "log_abs_final differs from the integer trajectory"
    return None


def same_files(a: str, b: str) -> bool:
    """True when directories a and b hold the same file names with identical bytes."""
    if not (os.path.isdir(a) and os.path.isdir(b)):
        return os.path.isdir(a) == os.path.isdir(b)
    names = sorted(os.listdir(a))
    if names != sorted(os.listdir(b)):
        return False
    return all(Path(a, n).read_bytes() == Path(b, n).read_bytes() for n in names)
