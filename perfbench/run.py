#!/usr/bin/env python3
"""Benchmark of the lyapunov-lab command line, end to end and per layer.

The benchmark drives the public CLI in-process through
lyapunov_lab.cli.dispatch(argv): one process, one thread, a closed loop
with a single client, so a round starts only when the previous one has
finished. A round is a fixed list of commands (see rounds.make_round);
its seeds come from --seed. Four workloads:

  chain-long      gamma --model chain, {bernoulli, gaussian} x --c {0, 0.005},
                  n = 1e4: one long trajectory per command at settled support
  chain-ensemble  tails --chains 16 and gamma --trajectories 8 at n = 1000:
                  many short chains growing their support from e0
  short-rows      gamma --model fib (n = 2e4) and couple --n 5000: 2-word rows
  full-history    simulate --model exact --n 1500, gamma --model vt --n 3000,
                  eta, alpha, lo: O(n^2) rows, big integers, quadrature, bounds

--trace 0 times rounds untraced for --seconds and prints the end-to-end
metrics; set-up is timed in fresh interpreters beforehand. --trace 1 times
rounds untraced for half of --seconds, then runs the first rounds twice
with every layer traced (tracing.Tracer), then the isolated per-function
probes (probes.py), and prints the per-layer metrics. After the timed part,
every round's outputs go through the gate in rounds.check_command and round
0 is replayed, which must reproduce stdout and every file byte for byte.

Round and set-up times are reported at a reference host speed: each is
scaled by how fast a fixed loop ran on the same CPU just before and just
after it (CpuPicker); the unadjusted times are printed beside them.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. A fuller record (machine, run, per-layer
tables, spans) goes to perfbench/out/.

Usage:
  python3 perfbench/run.py --workload chain-long --seed 1 --seconds 16 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 16   # every workload
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np

import probes
import rounds
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
MIN_ROUNDS = 12  # so that op_s_tail always has ten rounds beyond it
TRACE_TOL_S = 1e-6  # allowed float error in the per-round trace accounting
CPUS = sorted(os.sched_getaffinity(0))
LOOP_REF_S = 0.65e-3  # _reference_loop on an unloaded CPU of the 2-core Xeon host the baseline ran on

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "rounds/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{name: "count" for name in tracing.COUNTS if name != "cli.bytes_written"},
    "cli.bytes_written": "bytes",
    "laws.self_s": "s",
    **{f"laws.row_us.signs.k{k}": "us" for k in (2, 16, 128, 1024)},
    **{f"laws.row_us.normals.k{k}": "us" for k in (2, 128, 4096)},
    "chain.step_us.bernoulli": "us",
    "chain.step_us.gaussian": "us",
    "chain.step_us.ensemble": "us",
    "recursion.fib.step_us": "us",
    "recursion.exact.s": "s",
    "recursion.vt.s": "s",
    "gaussian.couple.step_us": "us",
    "gaussian.eta.s": "s",
    "bounds.alpha_bound.s": "s",
    "bounds.lo_max_atom.s": "s",
    "estimators.gamma_from_increments.s": "s",
    "estimators.gamma_from_last_coordinate.s": "s",
    "estimators.self_s": "s",
    "util.ordered_map.self_s": "s",
    "verification.tail_statistics.threads1_s": "s",
    "verification.tail_statistics.threads2_over_threads1": "ratio",
    "cli.dispatch.self_s": "s",
    "cli.write_s": "s",
    "trace.overhead": "ratio",
}


def machine_info(seed: int) -> dict:
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=30,
        )
        commit = git.stdout.strip() if git.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown (git unavailable)"
    return {
        "nproc": len(CPUS),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "seed": seed,
        "loadavg_before": os.getloadavg(),
    }


def measure_setup(workload: str, seed: int, work: Path, picker: "CpuPicker") -> list[tuple[float, float]]:
    """(wall, adjusted) seconds of SETUP_REPEATS fresh interpreters running setup_probe.py."""
    times = []
    for i in range(SETUP_REPEATS):
        argv = [sys.executable, str(BENCH / "setup_probe.py"), "--workload", workload]
        argv += ["--seed", str(seed), "--out", str(work / f"setup{i}")]
        picker.loop_s.clear()
        picker()
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=170)
        wall = time.perf_counter() - t0
        picker()
        times.append((wall, picker.adjust([wall])))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return times


def _add(a, b):
    return a + b


_SMALL = np.arange(8.0)


def _reference_loop() -> float:
    """Seconds for a fixed mix of the work rounds do: Python calls, dicts, lists, small numpy calls.

    A tight arithmetic loop understates how much a busy sibling hyperthread
    slows the rounds: with a Python or numpy load on the other CPU such a
    loop slowed 1.27-1.34x, the chain, fib/couple and exact library calls
    1.36-1.63x, and this mix 1.52-1.65x.
    """
    t0 = time.perf_counter()
    table, acc, values = {}, 0.0, []
    for i in range(1500):
        table[i & 63] = _add(acc, i)
        acc = table[i & 63] * 0.5
        values.append(acc)
        if i % 10 == 0:
            _SMALL.sum()
    values.sort()
    np.cumsum(np.arange(20_000.0))
    return time.perf_counter() - t0


class CpuPicker:
    """Before each command, pins this process to the allowed CPU that runs a fixed loop fastest.

    Other tenants of the host slow one CPU or both, by up to 1.8x, for
    seconds to minutes at a time (the two CPUs behave like hyperthreads of
    shared cores: load on one slows the other). Moving to the quieter CPU keeps part of
    their load out of the measurement; the loop times measured on the
    chosen CPU just before and just after each command (loop_s) measure
    the rest, and adjust() scales each command's time to the speed at
    which that CPU runs the loop in LOOP_REF_S. Only this process's own CPU
    affinity changes, and the time spent here is not part of any round.
    """

    def __init__(self) -> None:
        self.loop_s: list[float] = []

    def adjust(self, command_s: list[float]) -> float:
        """Total of command_s at reference host speed; loop_s must hold the calls around them only."""
        loops = self.loop_s
        return sum(t * 2.0 * LOOP_REF_S / (a + b) for t, a, b in zip(command_s, loops, loops[1:]))

    def __call__(self) -> None:
        speed = {}
        for cpu in CPUS:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = min(_reference_loop() for _ in range(3))
        best = min(speed, key=speed.get)
        os.sched_setaffinity(0, {best})
        self.loop_s.append(speed[best])

    def time_call(self, fn) -> float:
        """Seconds fn() takes on the chosen CPU, at reference host speed."""
        self.loop_s.clear()
        self()
        t0 = time.perf_counter()
        fn()
        t = time.perf_counter() - t0
        self()
        return self.adjust([t])

    @staticmethod
    def unpin() -> None:
        """Give the process back every CPU it was started with."""
        os.sched_setaffinity(0, CPUS)


def timed_loop(cli, workload, seed, seconds, min_rounds, out_root, picker, limit=None, bytes_of=None):
    """Run rounds 0, 1, ... closed-loop until they fill `seconds` and min_rounds are done."""
    runs = []
    busy = 0.0
    while limit is None or len(runs) < limit:
        i = len(runs)
        commands = rounds.make_round(workload, seed, i)
        picker.loop_s.clear()
        runs.append(rounds.run_round(cli, commands, out_root / f"r{i}", i, picker))
        runs[-1].adjusted_s = picker.adjust(runs[-1].command_s)
        busy += runs[-1].seconds
        if bytes_of is not None:
            bytes_of(runs[-1])
        if busy >= seconds and len(runs) >= min_rounds:
            break
    return runs


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) at the highest percentile with ten samples beyond it."""
    s = sorted(times)
    n = len(s)
    return s[n - 11], 100.0 * (n - 10) / n, n


def gate(workload, seed, runs, ref) -> tuple[dict[int, list[str]], dict[str, list[float]]]:
    """Failure reasons per round index, and the own-stderr z-scores of fib and vt."""
    failures: dict[int, list[str]] = {}
    z_scores: dict[str, list[float]] = {}
    for run in runs:
        for command, outcome in zip(rounds.make_round(workload, seed, run.index), run.outcomes):
            reason, diag = rounds.check_command(command, outcome, ref)
            if reason:
                failures.setdefault(run.index, []).append(f"{' '.join(command.argv)}: {reason}")
            if "z_own_stderr" in diag:
                z_scores.setdefault(command.kind, []).append(diag["z_own_stderr"])
    return failures, z_scores


def replay_check(cli, workload, seed, first: rounds.RoundRun, out_root: Path) -> list[str]:
    """Replay round `first.index`; stdout and files must match byte for byte."""
    commands = rounds.make_round(workload, seed, first.index)
    again = rounds.run_round(cli, commands, out_root, first.index)
    problems = []
    for command, a, b in zip(commands, first.outcomes, again.outcomes):
        if a.stdout != b.stdout or not rounds.same_files(a.out_dir, b.out_dir):
            problems.append(f"{' '.join(command.argv)}: replay differs")
        if command.kind == "exact" and a.rc == 0:
            reason = rounds.check_exact_integers(command, a)
            if reason:
                problems.append(f"{' '.join(command.argv)}: {reason}")
    return problems


def dir_bytes(run: rounds.RoundRun) -> int:
    return sum(e.stat().st_size for o in run.outcomes if os.path.isdir(o.out_dir) for e in os.scandir(o.out_dir))


def traced_part(cli, workload, seed, seconds, untraced, work, picker) -> tuple[dict, dict, list[str]]:
    """Two traced passes over the first rounds; returns (metrics, record, problems)."""
    from lyapunov_lab import bounds, chain, estimators, gaussian, laws, recursion, util, verification

    modules = types.SimpleNamespace(
        cli=cli, laws=laws, chain=chain, recursion=recursion, gaussian=gaussian,
        bounds=bounds, estimators=estimators, verification=verification, util=util,
    )
    passes = []
    with tracing.Tracer(modules) as tracer:
        # pass A fills a quarter of the run; pass B repeats exactly its rounds
        budget, limit = seconds / 4, len(untraced)
        for name in ("A", "B"):
            stats: list[dict] = []
            runs = timed_loop(
                cli, workload, seed, budget, 2, work / f"trace{name}", picker, limit,
                lambda run: stats.append(tracer.take(run.seconds, dir_bytes(run))),
            )
            passes.append((runs, stats))
            budget, limit = math.inf, len(runs)

    problems = []
    (runs_a, stats_a), (runs_b, stats_b) = passes
    for run, sa, sb in zip(runs_a, stats_a, stats_b):
        if sa["counts"] != sb["counts"] or sa["calls"] != sb["calls"]:
            problems.append(f"round {run.index}: traced counts differ between passes")
        for s in (sa, sb):
            err = tracing.accounting_error(s)
            if err > TRACE_TOL_S:
                problems.append(f"round {run.index}: layer self times miss the wall time by {err:.2e} s")
    for run in runs_a + runs_b:
        for a, b in zip(untraced[run.index].outcomes, run.outcomes):
            if a.stdout != b.stdout or not rounds.same_files(a.out_dir, b.out_dir):
                problems.append(f"round {run.index}: traced outputs differ from untraced")

    k = len(runs_a)
    stats = stats_a + stats_b

    def med(get) -> float:
        return statistics.median(get(s) for s in stats)

    metrics = {name: sum(s["counts"][name] for s in stats_a) / k for name in tracing.COUNTS}
    layers = sorted({layer for s in stats for layer in s["layers"]})
    layer_self = {f"{layer}.self_s": med(lambda s: s["layers"].get(layer, 0.0)) for layer in layers}
    metrics["laws.self_s"] = layer_self.get("laws.self_s", 0.0)
    metrics["estimators.self_s"] = layer_self.get("estimators.self_s", 0.0)
    metrics["util.ordered_map.self_s"] = med(lambda s: s["self"].get("util.ordered_map", 0.0))
    metrics["cli.dispatch.self_s"] = med(lambda s: s["self"].get("cli.dispatch", 0.0))
    metrics["cli.write_s"] = med(lambda s: s["self"].get("cli.write", 0.0))
    # the same rounds, untraced and traced
    metrics["trace.overhead"] = sum(r.adjusted_s for r in untraced[:k]) / sum(r.adjusted_s for r in runs_a)
    record = {
        "traced_rounds": k,
        "traced_round_s_p50": med(lambda s: s["wall"]),
        "remainder_s_p50": med(lambda s: s["wall"] - s["roots"]),
        "layer_self_s": layer_self,
        "self_s_by_span": {
            name: med(lambda s: s["self"].get(name, 0.0)) for name in sorted({n for s in stats for n in s["self"]})
        },
        "calls_by_span": stats_a[0]["calls"],
        "spans_round0": stats_a[0]["spans"],
    }
    return metrics, record, problems


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    cli = rounds.load_cli(ROOT)
    info = machine_info(seed)
    work = BENCH / ".work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        ref = rounds.Reference()
        picker = CpuPicker()
        setup = [] if trace else measure_setup(workload, seed, work, picker)
        warm = rounds.run_round(cli, rounds.make_round(workload, seed, rounds.WARMUP), work / "warm", rounds.WARMUP)
        if any(o.rc != 0 for o in warm.outcomes):
            raise RuntimeError(f"warm-up round failed: {[o.stderr for o in warm.outcomes]}")

        runs = timed_loop(
            cli, workload, seed, seconds / 2 if trace else seconds, 3 if trace else MIN_ROUNDS, work / "timed", picker
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        times = [r.adjusted_s for r in runs]

        failures, z_scores = gate(workload, seed, runs, ref)
        replay = replay_check(cli, workload, seed, runs[0], work / "replay")
        if replay:
            failures.setdefault(runs[0].index, []).extend(replay)
        attempted, failed = len(runs), len(failures)
        problems = [f"round {i}: {r}" for i, rs in sorted(failures.items()) for r in rs]

        record: dict = {
            "workload": workload,
            "seconds": seconds,
            "trace": int(trace),
            "machine": info,
            "round_s": [r.seconds for r in runs],
            "round_adjusted_s": times,
            "host_slowdown_p50": statistics.median(r.seconds / r.adjusted_s for r in runs),
        }
        if trace:
            metrics, record["traced"], trace_problems = traced_part(cli, workload, seed, seconds, runs, work, picker)
            metrics.update(probes.row_sweep(seed, picker.time_call))
            metrics.update(probes.layer_calls(seed, picker.time_call))
            picker.unpin()
            record["threads_probe_cpus"] = sorted(os.sched_getaffinity(0))
            if record["threads_probe_cpus"] != CPUS:
                trace_problems.append(f"tail_statistics threads probe ran on CPUs {record['threads_probe_cpus']}")
            ratio, identical = probes.threads_ratio(seed)
            metrics.update(ratio)
            if not identical:
                trace_problems.append("tail_statistics differs between --threads 1 and --threads 2")
            attempted += 2 * record["traced"]["traced_rounds"] + 1
            failed += len(trace_problems)
            problems += trace_problems
            record["row_us"] = {k: v for k, v in metrics.items() if k.startswith("laws.row_us.")}
            values = {name: metrics[name] for name in PER_LAYER}
            units = PER_LAYER
        else:
            op_tail, pct, n = tail(times)
            raw = [r.seconds for r in runs]
            record["unadjusted"] = {
                "ops_per_s": len(raw) / sum(raw),
                "op_s_p50": statistics.median(raw),
                "op_s_tail": tail(raw)[0],
                "setup_s": statistics.median(wall for wall, _ in setup),
            }
            values = {
                "setup_s": statistics.median(adjusted for _, adjusted in setup),
                "ops_per_s": len(times) / sum(times),
                "op_s_p50": statistics.median(times),
                "op_s_tail": op_tail,
                "peak_rss_mb": peak_rss_mb,
            }
            units = END_TO_END
            record["op_s_tail"] = {"percentile": pct, "samples": n}
            record["setup_s_all"] = setup
        record["failed_frac"] = failed / attempted
        record["problems"] = problems
        record["stderr_coverage"] = {
            kind: {
                "rounds": len(z),
                "max_abs_z": max(abs(v) for v in z),
                "frac_abs_z_over_3": sum(abs(v) > 3 for v in z) / len(z),
            }
            for kind, z in z_scores.items()
        }
        info["loadavg_after"] = os.getloadavg()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out_metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out_metrics}
    record["result"] = result
    (BENCH / "out").mkdir(exist_ok=True)
    (BENCH / "out" / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# workload {workload}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    print("# machine " + json.dumps(info))
    print(f"# host slowdown against the reference loop: {record['host_slowdown_p50']:.3f} (median over rounds)")
    for name, m in out_metrics.items():
        extra = ""
        if name in record.get("unadjusted", {}):
            extra = f"  (unadjusted {record['unadjusted'][name]:.6g})"
        if name == "op_s_tail":
            extra += f"  (p{record['op_s_tail']['percentile']:.0f} of {record['op_s_tail']['samples']} rounds)"
        print(f"{name:52s} {m['value']:14.6g} {m['unit']}{extra}")
    print(f"{'failed_frac':52s} {failed / attempted:14.6g} ratio  ({failed} of {attempted})")
    if trace:
        print(f"# tail_statistics threads probe ran on CPUs {record['threads_probe_cpus']}")
        for name, value in record["traced"]["layer_self_s"].items():
            print(f"# layer {name:44s} {value:14.6g} s per round")
    for kind, cov in record["stderr_coverage"].items():
        print(f"# {kind}: own-stderr max |z| {cov['max_abs_z']:.1f}, |z| > 3 in {cov['frac_abs_z_over_3']:.0%} of rounds")
    for p in problems[:20]:
        print(f"# FAIL {p}")
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; prints one table per workload, then a combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in rounds.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed)]
        argv += ["--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{workload}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description="lyapunov-lab CLI benchmark")
    ap.add_argument("--workload", choices=[*rounds.WORKLOADS, "all"], required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
