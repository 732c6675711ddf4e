"""Batch command-line front end.

Every subcommand prints a JSON (or per-check) summary to stdout and, when
--out names an output directory, writes exactly one manifest.json plus the
data CSVs for the run. Parameters come from argv only. All CSV numbers
carry 17 significant digits so re-parsing round-trips exactly, in the
bytes of Python's f"{v:.17g}" whether the compiled kernel (csv_rows) or
Python writes them; rerunning a command with the same parameters and
seed reproduces every emitted number bit for bit (--no-timestamps makes
the whole directory byte-identical).

Exit codes: 0 success, 1 failed verification or aborted run, 2 usage or
parameter error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from typing import Optional, Sequence

import numpy as np

from . import __version__, bounds, chain, estimators, gaussian, recursion, verification
from .laws import ROW_CHUNK, CoefficientLaw, RngStream
from .util import ordered_map

__all__ = ["dispatch", "main"]

# the most bytes csv_rows writes for a cell and its separator: 24 for "-d.dddddddddddddddde-XX,"
_CSV_CELL = 32


def _cell_rule(rows):
    """Rows of cells for csv.writer: a float (np.float64 is one) as f"{v:.17g}", any other cell as str(v)."""
    return ([f"{v:.17g}" if isinstance(v, float) else v for v in row] for row in rows)


def _write_csv(path: str, header: Sequence[str], columns: Sequence[Sequence]) -> None:
    """A table given by its columns, every cell by _cell_rule, through csv.writer.

    Rows stop at the end of the shortest column, as zip stops. A table of
    numpy arrays is written ROW_CHUNK rows at a time. Where every column
    is int64 or float64 and the compiled kernel loads, its csv_rows
    writes each chunk in the same bytes, and Python writes only a chunk
    that holds a float it refuses (nonzero with |v| < 1e-16, or
    |v| >= 2^120). csv.writer quotes a cell such as verify's
    "1e-5, MC 3 se"; no number needs quoting.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        if not all(isinstance(c, np.ndarray) for c in columns):
            writer.writerows(_cell_rule(zip(*columns)))
            return
        n = min(map(len, columns))
        kernel = chain._kernel() if all(c.dtype in (np.int64, np.float64) for c in columns) else None
        if kernel is not None:
            cells = np.stack([c[:n].view(np.uint64) for c in columns], axis=1)  # row-major 8-byte words
            kinds = "".join("f" if c.dtype == np.float64 else "i" for c in columns).encode()
            text = np.empty(ROW_CHUNK * len(columns) * _CSV_CELL, dtype=np.uint8)
        for start in range(0, n, ROW_CHUNK):
            count = min(ROW_CHUNK, n - start)
            if kernel is not None:
                size = kernel.csv_rows(cells[start:].ctypes.data, count, len(columns), kinds, text.ctypes.data)
                if size >= 0:
                    fh.write(text[:size].tobytes().decode("ascii"))
                    continue
            writer.writerows(_cell_rule(zip(*(c[start : start + count].tolist() for c in columns))))


def _now(enabled: bool) -> Optional[str]:
    return datetime.now(timezone.utc).isoformat() if enabled else None


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (results dict, {filename: (header, columns)})


# the defaults of the flags that only the chain reads
_CHAIN_FLAGS = {"c": 0.0, "trunc_tol": chain.DEFAULT_TRUNC_TOL}

# per model: its --law default, and for a recursion the error for the other law (the chain draws either)
_LAWS = {
    "exact": ("bernoulli", "exact integer mode is defined for the bernoulli law only"),
    "vt": ("gaussian", "the division recursion draws gaussian coefficients; use --law gaussian"),
    "fib": ("bernoulli", "the two-term recursion draws sign coefficients; use --law bernoulli"),
    "chain": ("bernoulli", None),
}


def _check_model(args) -> None:
    """Default --law to the model's law; refuse another law for a recursion, and a chain flag off its default."""
    law, message = _LAWS[args.model]
    if args.law is None:
        args.law = law
    if args.model == "chain":
        return
    if args.law != law:
        raise ValueError(message)
    for name, default in _CHAIN_FLAGS.items():
        if getattr(args, name, default) != default:
            raise ValueError(f"--model {args.model} does not read --{name.replace('_', '-')}")


def _finite_or_none(x) -> Optional[float]:
    """x as a float, or None (JSON null) for the -inf of an exact zero final value."""
    return float(x) if math.isfinite(x) else None


def _cmd_simulate(args) -> tuple[dict, dict]:
    _check_model(args)
    rng = RngStream(args.seed, args.stream_id)
    if args.model == "exact":
        traj = recursion.run_exact(args.n, rng)
        series = traj.log_abs_series()
        results = {"model": "exact", "n": args.n, "log_abs_final": _finite_or_none(series[-1])}
        files = {"series.csv": (("step", "log_abs_value"), (np.arange(series.size), series))}
    elif args.model == "vt":
        out = recursion.run_vt(args.n, rng)
        results = {"model": "vt", "n": args.n, "rate": float(out[-1]) / args.n}
        files = {"series.csv": (("step", "log_abs_value"), (np.arange(out.size), out))}
    elif args.model == "fib":
        out = recursion.run_fibonacci(args.n, rng)
        results = {"model": "fib", "n": args.n, "rate": _finite_or_none(float(out[-1]) / args.n)}
        files = {"series.csv": (("step", "log_abs_value"), (np.arange(out.size), out))}
    else:
        run = chain.run_chain(CoefficientLaw(args.law), args.n, rng, c=args.c, trunc_tol=args.trunc_tol)
        results = {
            "model": "chain",
            "n": args.n,
            "law": args.law,
            "c": args.c,
            "log_norm": run.log_norm,
            "support": int(run.coords.size),
            "dropped_mass": run.dropped_mass,
            "chain_engine": chain.chain_engine(CoefficientLaw(args.law)),
        }
        files = {
            "increments.csv": (("step", "increment"), (np.arange(1, args.n + 1), run.increments)),
            "weighted_offsets.csv": (
                ("checkpoint", "weighted_offset"),
                (run.checkpoint_steps, run.weighted_offsets),
            ),
            "tail_means.csv": (("index", "tail_mean"), (np.arange(run.tail_means.size), run.tail_means)),
        }
    return results, files


def _gamma_one(args, stream: int) -> estimators.GrowthEstimate:
    """The estimate of one trajectory, drawn from stream `stream` of args.seed."""
    rng = RngStream(args.seed, stream)
    if args.model == "chain":
        run = chain.run_chain(CoefficientLaw(args.law), args.n, rng, c=args.c)
        est = estimators.gamma_from_increments(run.increments)
        if args.c > 0.0:
            # the final state's norm: the last checkpoint is step n only where the stride divides n
            log_weighted = math.log(chain.weighted_norm(run.coords, args.c))
            return estimators.GrowthEstimate(est.gamma_hat + log_weighted / args.n, est.stderr)
        return est
    log_norms = recursion.log_norms(args.model, args.n, rng)
    return estimators.gamma_from_increments(np.diff(log_norms))


def _cmd_gamma(args) -> tuple[dict, dict]:
    _check_model(args)
    if args.trajectories < 1:
        raise ValueError(f"--trajectories must be >= 1, got {args.trajectories}")
    if args.n < 100:
        raise ValueError(f"--n must be >= 100 for gamma, got {args.n}")
    ests = ordered_map(lambda j: _gamma_one(args, j), range(args.trajectories))
    est = estimators.pool_estimates(ests)
    results = {
        "gamma_hat": est.gamma_hat,
        "stderr": est.stderr,
        "n": args.n,
        "method": "weighted_norm" if args.c > 0.0 else "norm_increments",
        "n_trajectories": args.trajectories,
        "law": args.law,
        "seed": args.seed,
    }
    if args.model == "chain":
        results["chain_engine"] = chain.chain_engine(CoefficientLaw(args.law))
    return results, {}


def _cmd_alpha(args) -> tuple[dict, dict]:
    res = bounds.alpha_bound(args.sigma2, args.fourth_moment)
    return asdict(res), {}


def _cmd_eta(args) -> tuple[dict, dict]:
    return {"eta_hat": gaussian.ETA}, {}


def _cmd_couple(args) -> tuple[dict, dict]:
    trace = gaussian.couple(args.n, RngStream(args.seed, args.stream_id))
    results = {
        "mean_log_b": trace.mean_log_b,
        "final_log_a2": float(trace.log_a2[-1]),
        "final_rho": float(trace.rho[-1]),
        "n": args.n,
    }
    files = {
        "trace.csv": (
            ("step", "rho", "log_a2", "log_b"),
            (np.arange(args.n + 1), trace.rho, trace.log_a2, trace.log_b),
        )
    }
    return results, files


def _cmd_lo(args) -> tuple[dict, dict]:
    try:
        coeffs = [int(tok) for tok in args.coeffs.split(",")]
    except ValueError:
        raise ValueError(f"--coeffs must be comma-separated integers, none empty, got {args.coeffs!r}") from None
    res = bounds.lo_max_atom(coeffs)
    results = {
        "k": res.k,
        "coefficients": list(res.coefficients),
        "max_atom": res.atom_string(),
        "max_atom_float": float(res.max_atom),
    }
    return results, {}


def _cmd_tails(args) -> tuple[dict, dict]:
    stats = verification.tail_statistics(CoefficientLaw(args.law), args.n, args.chains, args.seed)
    results = {
        "alpha": stats["alpha"],
        "max_z": stats["max_z"],
        "passed": stats["passed"],
        "chains": args.chains,
        "n": args.n,
        "chain_engine": chain.chain_engine(CoefficientLaw(args.law)),
    }
    files = {
        "tails.csv": (
            ("index", "tail_mean", "alpha_power", "stderr"),
            (stats["indices"], stats["means"], stats["alpha_powers"], stats["stderrs"]),
        )
    }
    return results, files


def _cmd_verify(args) -> tuple[dict, dict]:
    checks = verification.run_suite(args.suite)
    for cr in checks:
        print(verification.format_line(cr))
    failed = sum(1 for c in checks if not c.passed)
    print(f"verify --suite {args.suite}: {len(checks) - failed}/{len(checks)} checks passed")
    results = {
        "suite": args.suite,
        "checks_total": len(checks),
        "checks_failed": failed,
        "chain_engine": chain.chain_engine(),
    }
    files = {
        "checks.csv": (
            ("name", "expected", "observed", "tolerance", "passed", "elapsed_s"),
            list(zip(*[
                # wall times vary from run to run: --no-timestamps leaves them out
                (c.name, c.expected, c.observed, c.tolerance, c.passed,
                 "" if args.no_timestamps or c.elapsed_s is None else c.elapsed_s)
                for c in checks
            ])),
        )
    }  # fmt: skip
    return results, files


# ---------------------------------------------------------------------------
# parser


def _finite_float(text: str) -> float:
    """argparse type of every float flag: a finite number, or a usage error naming the flag."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _uint64(text: str) -> int:
    """argparse type of --seed and --stream-id: an integer in [0, 2^64), or a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"must be in [0, 2^64), got {value}")
    return value


def _out_dir(text: str) -> str:
    """argparse type of --out: a directory name; the empty string would name none and write nothing."""
    if not text:
        raise argparse.ArgumentTypeError("must name a directory, got ''")
    return text


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", type=_out_dir, default=None, help="output directory for the manifest and data CSVs")
    p.add_argument("--no-timestamps", action="store_true", help="omit timestamps for byte-identical reruns")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_uint64, default=0, help="64-bit unsigned seed")
    _add_output(p)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="lyapunov-lab",
        description="Simulate random full-history linear recursions and verify their growth-rate laws",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one trajectory of a model and dump its series")
    p.add_argument("--model", choices=["exact", "vt", "fib", "chain"], required=True)
    p.add_argument("--law", choices=["bernoulli", "gaussian"], help="default: the law the model draws from")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--stream-id", type=_uint64, default=0)
    p.add_argument("--c", type=_finite_float, default=_CHAIN_FLAGS["c"], help="weight exponent (chain model)")
    p.add_argument("--trunc-tol", type=_finite_float, default=_CHAIN_FLAGS["trunc_tol"])
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("gamma", help="estimate a growth exponent with a confidence interval")
    p.add_argument("--model", choices=["chain", "exact", "fib", "vt"], required=True)
    p.add_argument("--law", choices=["bernoulli", "gaussian"], help="default: the law the model draws from")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trajectories", type=int, default=1)
    p.add_argument("--c", type=_finite_float, default=_CHAIN_FLAGS["c"])
    _add_common(p)
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("alpha", help="contraction constant for given moments")
    p.add_argument("--sigma2", type=_finite_float, required=True)
    p.add_argument("--fourth-moment", type=_finite_float, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_alpha)

    p = sub.add_parser("eta", help="worst-case expected contraction, in closed form")
    _add_common(p)
    p.set_defaults(func=_cmd_eta)

    p = sub.add_parser("couple", help="two-chain coupling trace")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--stream-id", type=_uint64, default=0)
    _add_common(p)
    p.set_defaults(func=_cmd_couple)

    p = sub.add_parser("lo", help="exact largest atom of a signed integer sum")
    p.add_argument("--coeffs", type=str, required=True, help="comma-separated nonzero integers")
    _add_common(p)
    p.set_defaults(func=_cmd_lo)

    p = sub.add_parser("tails", help="coordinate tail means across chains vs the alpha^i bound")
    p.add_argument("--law", choices=["bernoulli", "gaussian"], default="bernoulli")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--chains", type=int, default=100)
    _add_common(p)
    p.set_defaults(func=_cmd_tails)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", choices=[*verification.SUITES, "all"], default="all")
    _add_output(p)  # no --seed: every check draws from verification.SEED
    p.set_defaults(func=_cmd_verify)

    return parser


def _join_coeffs(argv: list[str]) -> list[str]:
    """argv with `--coeffs -5,3` written as `--coeffs=-5,3`.

    argparse takes a separate value that starts with a minus sign and is
    not a plain number for an option, and then finds --coeffs without one.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--coeffs" and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"--coeffs={arg}"
        else:
            out.append(arg)
    return out


def dispatch(argv: Sequence[str]) -> int:
    try:
        args = build_parser().parse_args(_join_coeffs(list(argv)))
        started = _now(not args.no_timestamps)
        results, files = args.func(args)
    except SystemExit as exc:  # argparse: --help, or a usage error it has printed
        return int(exc.code or 0)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (recursion.DegenerateDivisorError, chain.TruncationBudgetError) as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3

    if args.command != "verify":
        try:
            summary = json.dumps(results, sort_keys=True, indent=2, allow_nan=False)
        except ValueError as exc:
            print(f"run aborted: non-finite result ({exc})", file=sys.stderr)
            return 1
        print(summary)

    if args.out:
        try:
            os.makedirs(args.out, exist_ok=True)
            for name, (header, columns) in files.items():
                _write_csv(os.path.join(args.out, name), header, columns)
            params = {
                k: v for k, v in vars(args).items() if k not in ("func", "out", "no_timestamps", "command")
            }
            manifest = {
                "command": args.command,
                "parameters": params,
                "seed": getattr(args, "seed", None),  # verify takes none
                "artifact_version": __version__,
                "started_at": started,
                "finished_at": _now(not args.no_timestamps),
                "results": results,
            }
            with open(os.path.join(args.out, "manifest.json"), "w") as fh:
                json.dump(manifest, fh, sort_keys=True, indent=2)
                fh.write("\n")
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return 3

    if args.command == "verify" and results["checks_failed"] > 0:
        return 1
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
