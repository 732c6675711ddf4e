import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lyapunov_lab import chain, cli, verification
from lyapunov_lab.cli import dispatch


def _run(capsys, argv):
    code = dispatch(argv)
    out = capsys.readouterr().out
    return code, out


def test_alpha_json(capsys):
    code, out = _run(capsys, ["alpha", "--sigma2", "1", "--fourth-moment", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == pytest.approx(0.9838, abs=1e-4)
    assert 0.0 < payload["argmax_a"] < 1.0


def test_lo_json(capsys):
    code, out = _run(capsys, ["lo", "--coeffs", "1,2,3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["max_atom"] == "2/2^3"
    assert payload["max_atom_float"] == 0.25
    assert payload["k"] == 3


def test_eta_json_and_grid(tmp_path, capsys):
    out_dir = tmp_path / "eta"
    code, out = _run(
        capsys,
        ["eta", "--quad-order", "20", "--grid", "101", "--out", str(out_dir), "--no-timestamps"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["eta_hat"] < 0.0
    grid = (out_dir / "eta_grid.csv").read_text().splitlines()
    assert grid[0] == "rho,mean_f"
    assert len(grid) == 102
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert set(manifest) == {
        "command", "parameters", "seed", "artifact_version",
        "started_at", "finished_at", "results",
    }
    assert manifest["command"] == "eta"
    assert manifest["results"]["eta_hat"] == payload["eta_hat"]
    assert set(payload) == {"eta_hat", "quad_order", "grid_size"}
    assert manifest["started_at"] is None


def test_simulate_exact_csv_roundtrip(tmp_path, capsys):
    out_dir = tmp_path / "exact"
    code, out = _run(
        capsys,
        ["simulate", "--model", "exact", "--n", "60", "--seed", "5", "--out", str(out_dir)],
    )
    assert code == 0
    lines = (out_dir / "series.csv").read_text().splitlines()
    assert lines[0] == "step,log_abs_value"
    assert len(lines) == 62
    # 17 significant digits must round-trip the float64 values exactly
    from lyapunov_lab.laws import RngStream
    from lyapunov_lab.recursion import run_exact

    series = run_exact(60, RngStream(5, 0)).log_abs_series()
    for line, expected in zip(lines[1:], series):
        parsed = float(line.split(",")[1])
        assert parsed == expected


def test_simulate_chain_outputs(tmp_path, capsys):
    out_dir = tmp_path / "chain"
    code, _ = _run(
        capsys,
        ["simulate", "--model", "chain", "--n", "200", "--seed", "5", "--out", str(out_dir)],
    )
    assert code == 0
    for name, header in [
        ("increments.csv", "step,increment"),
        ("weighted_offsets.csv", "checkpoint,weighted_offset"),
        ("tail_means.csv", "index,tail_mean"),
    ]:
        lines = (out_dir / name).read_text().splitlines()
        assert lines[0] == header
    assert (out_dir / "manifest.json").exists()


def test_rerun_is_byte_identical(tmp_path, capsys):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        code, out = _run(
            capsys,
            [
                "gamma", "--model", "fib", "--n", "10000", "--seed", "7",
                "--out", str(d), "--no-timestamps",
            ],
        )
        assert code == 0
    files = sorted(os.listdir(dirs[0]))
    assert files == sorted(os.listdir(dirs[1]))
    for name in files:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_gamma_json_contract(capsys):
    code, out = _run(capsys, ["gamma", "--model", "fib", "--n", "5000", "--seed", "7"])
    assert code == 0
    payload = json.loads(out)
    for key in ("gamma_hat", "stderr", "n", "method"):
        assert key in payload
    assert payload["method"] == "fibonacci_pair"


def test_gamma_vt_regression(capsys):
    code, out = _run(capsys, ["gamma", "--model", "vt", "--law", "gaussian", "--n", "500", "--seed", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "vt_sum_squares"
    assert 1.0 < payload["gamma_hat"] < 1.8


def test_gamma_chain_weighted_method(capsys):
    code, out = _run(
        capsys,
        ["gamma", "--model", "chain", "--n", "2000", "--c", "0.01", "--seed", "2"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "weighted_norm"
    assert payload["gamma_hat"] > 0


def test_gamma_threads_do_not_change_results(capsys):
    argv = ["gamma", "--model", "chain", "--n", "2000", "--trajectories", "3", "--seed", "3"]
    _, out1 = _run(capsys, argv + ["--threads", "1"])
    _, out4 = _run(capsys, argv + ["--threads", "4"])
    assert out1 == out4


def test_couple_trace(tmp_path, capsys):
    out_dir = tmp_path / "couple"
    code, out = _run(
        capsys,
        ["couple", "--n", "500", "--rho0", "0", "--seed", "3", "--out", str(out_dir)],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["final_log_a2"] < 0.0
    lines = (out_dir / "trace.csv").read_text().splitlines()
    assert lines[0] == "step,rho,log_a2,log_b"
    assert len(lines) == 502


def test_tails_small(tmp_path, capsys):
    out_dir = tmp_path / "tails"
    code, out = _run(
        capsys,
        [
            "tails", "--law", "bernoulli", "--n", "200", "--chains", "8",
            "--max-index", "10", "--seed", "11", "--out", str(out_dir),
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    lines = (out_dir / "tails.csv").read_text().splitlines()
    assert lines[0] == "index,tail_mean,alpha_power,stderr"
    assert len(lines) == 12


def test_tails_needs_two_chains(capsys):
    assert dispatch(["tails", "--n", "50", "--chains", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "chains must be >= 2" in captured.err


def test_non_finite_summary_is_not_a_success(monkeypatch, capsys):
    stats = {
        "indices": np.arange(3), "means": np.zeros(3), "stderrs": np.full(3, np.nan),
        "alpha_powers": np.ones(3), "alpha": 0.98, "max_z": float("nan"), "passed": False,
    }
    monkeypatch.setattr(cli.verification, "tail_statistics", lambda *a, **k: stats)
    assert dispatch(["tails", "--n", "50", "--chains", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-finite" in captured.err


def test_module_entry_points():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", *argv], capture_output=True, text=True, env=env, timeout=60
        )

    done = run("lyapunov_lab.cli", "alpha", "--sigma2", "1", "--fourth-moment", "1")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["alpha"] == pytest.approx(0.9838, abs=1e-4)
    done = run("lyapunov_lab", "verify", "--suite", "nope")
    assert done.returncode == 2
    assert "invalid choice" in done.stderr


def test_usage_errors_exit_two(capsys):
    assert dispatch(["simulate", "--model", "exact", "--n", "10", "--law", "gaussian"]) == 2
    assert dispatch(["simulate", "--model", "vt", "--n", "10", "--law", "bernoulli"]) == 2
    assert dispatch(["nonsense"]) == 2
    assert dispatch(["alpha", "--sigma2", "2", "--fourth-moment", "1"]) == 2
    assert dispatch(["lo", "--coeffs", "1,0,3"]) == 2
    capsys.readouterr()


def test_exact_step_cap_maps_to_usage_error(capsys):
    assert dispatch(["simulate", "--model", "exact", "--n", "100000", "--seed", "1"]) == 2
    capsys.readouterr()


def test_vt_step_cap_maps_to_usage_error(capsys):
    import time

    t0 = time.perf_counter()
    code = dispatch(["gamma", "--model", "vt", "--law", "gaussian", "--n", "100000"])
    assert code == 2
    assert time.perf_counter() - t0 < 5.0  # refused before any step runs
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["gamma", "--model", "chain", "--n", "200"], ["tails", "--n", "200"]])
@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_exit_two(capsys, argv, threads):
    assert dispatch(argv + ["--threads", threads]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--threads: must be >= 1" in captured.err


@pytest.mark.parametrize("argv", [["--coeffs", "-5,3"], ["--coeffs=-5,3"], ["--seed", "4", "--coeffs", "-5,3,-2"]])
def test_lo_coefficients_may_start_with_a_minus_sign(capsys, argv):
    code, out = _run(capsys, ["lo"] + argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"][:2] == [-5, 3]
    assert payload["max_atom"] == ("1/2^2" if payload["k"] == 2 else "2/2^3")


def test_tails_threads_do_not_change_results(tmp_path, capsys):
    outs = []
    for threads in ("1", "4"):
        out_dir = tmp_path / threads
        argv = ["tails", "--n", "300", "--chains", "6", "--seed", "12", "--out", str(out_dir), "--no-timestamps"]
        code, out = _run(capsys, argv + ["--threads", threads])
        assert code == 0
        outs.append((out, (out_dir / "tails.csv").read_bytes()))
    assert outs[0] == outs[1]


def test_config_file_fills_missing_parameters(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 64, "seed": 9}))
    code, out = _run(capsys, ["simulate", "--model", "exact", "--config", str(cfg)])
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 64


def test_config_file_flags_win(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 64}))
    code, out = _run(
        capsys, ["simulate", "--model", "exact", "--n", "32", "--config", str(cfg)]
    )
    assert code == 0
    assert json.loads(out)["n"] == 32


def test_config_file_loses_to_flag_equal_to_default(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 9}))
    argv = ["simulate", "--model", "exact", "--n", "20", "--seed", "0"]
    code, with_cfg = _run(capsys, argv + ["--config", str(cfg)])
    assert code == 0
    assert with_cfg == _run(capsys, argv)[1]
    assert with_cfg != _run(capsys, ["simulate", "--model", "exact", "--n", "20", "--seed", "9"])[1]


def test_config_values_are_parsed_like_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": "20", "stream_id": 1, "no_timestamps": True}))
    code, out = _run(capsys, ["simulate", "--model", "exact", "--config", str(cfg)])
    assert code == 0
    assert json.loads(out)["n"] == 20


@pytest.mark.parametrize(
    "config, message",
    [
        ({"n": "twenty"}, "invalid int value"),
        ({"n": 20.5}, "invalid int value"),
        ({"law": "cauchy"}, "invalid choice"),
        ({"bogus": 1}, "unrecognized arguments"),
        ({"n": None}, "must be a string, a number or true"),
        ([20], "JSON object"),
    ],
)
def test_bad_config_value_exits_two(tmp_path, capsys, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert dispatch(["simulate", "--model", "exact", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("tol", ["0.5", "-1", "nan"])
def test_trunc_tol_out_of_range_exits_two(capsys, tol):
    argv = ["simulate", "--model", "chain", "--n", "200", "--trunc-tol", tol]
    assert dispatch(argv) == 2
    assert "trunc_tol" in capsys.readouterr().err


def test_env_var_output_dir(tmp_path, capsys, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("LYAPUNOV_LAB_OUT", str(target))
    code, _ = _run(capsys, ["alpha", "--sigma2", "1", "--fourth-moment", "3"])
    assert code == 0
    assert (target / "manifest.json").exists()


def test_verify_exit_codes(monkeypatch, capsys):
    passing = [verification.CheckResult("ok", "x", "x", "0", True)]
    failing = [verification.CheckResult("bad", "x", "y", "0", False)]
    monkeypatch.setattr(cli.verification, "run_suite", lambda *a, **k: passing)
    assert dispatch(["verify", "--suite", "inequalities"]) == 0
    monkeypatch.setattr(cli.verification, "run_suite", lambda *a, **k: failing)
    assert dispatch(["verify", "--suite", "inequalities"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] bad" in out
    assert dispatch(["verify", "--suite", "bogus"]) == 2


def test_verify_all_computes_eta_once(monkeypatch, capsys):
    from lyapunov_lab import gaussian

    calls = []
    real_eta = gaussian.eta

    def counted(*args, **kwargs):
        calls.append(args)
        return real_eta(*args, **kwargs)

    def stub(name):
        return lambda *args, **kwargs: verification.CheckResult(name, "x", "x", "0", True)

    coupling_eta = []

    def coupling(*args, eta_hat=None, **kwargs):
        coupling_eta.append(eta_hat)
        return stub("coupling_contraction")()

    # the simulation-heavy checks are stubbed; the eta checks run for real
    for name in (
        "check_vt_log4", "check_fib_rate", "check_alpha_dominates_mc", "check_corollary8_tails",
        "check_lo_bruteforce", "check_theorem1_rates", "check_theorem9_weighted",
        "check_gaussian_rate", "check_exact_determinism",
    ):
        monkeypatch.setattr(verification, name, stub(name))
    monkeypatch.setattr(verification, "check_coupling_contraction", coupling)
    monkeypatch.setattr(gaussian, "eta", counted)
    assert dispatch(["verify", "--suite", "all"]) == 0
    out = capsys.readouterr().out
    assert len(calls) == 1
    assert "[PASS] eta_value" in out and "[PASS] eta_negative" in out
    assert coupling_eta == [real_eta(80, 201).eta_hat]
    calls.clear()  # a suite without the eta checks never computes eta
    assert dispatch(["verify", "--suite", "inequalities"]) == 0
    assert calls == []


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--model", "chain", "--n", "200"],
        ["gamma", "--model", "chain", "--n", "200"],
        ["tails", "--n", "200", "--chains", "2"],
    ],
)
def test_chain_commands_record_the_engine(tmp_path, capsys, argv):
    code, out = _run(capsys, argv + ["--out", str(tmp_path)])
    assert code == 0
    engine = chain.chain_engine()
    assert engine in ("compiled", "python")
    assert json.loads(out)["chain_engine"] == engine
    assert json.loads((tmp_path / "manifest.json").read_text())["results"]["chain_engine"] == engine


def test_gamma_of_other_models_records_no_engine(capsys):
    code, out = _run(capsys, ["gamma", "--model", "fib", "--n", "1000"])
    assert code == 0
    assert "chain_engine" not in json.loads(out)


def test_verify_reports_the_time_of_each_check(tmp_path, capsys, monkeypatch):
    # the two simulations of the suite are stubbed; the quadrature checks run for real
    for name in ("check_vt_log4", "check_fib_rate"):
        stub = verification.CheckResult(name, "x", "x", "0", True)
        monkeypatch.setattr(verification, name, lambda *a, stub=stub, **k: stub)
    argv = ["verify", "--suite", "paper-constants", "--out"]
    assert dispatch(argv + [str(tmp_path / "timed")]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[PASS]")]
    assert len(lines) == 6 and all(re.search(r"  \[\d+\.\d\d s\]$", line) for line in lines)
    with open(tmp_path / "timed" / "checks.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(row["elapsed_s"]) >= 0.0 for row in rows] == [True] * 6
    manifest = json.loads((tmp_path / "timed" / "manifest.json").read_text())
    assert manifest["results"]["chain_engine"] == chain.chain_engine()
    # --no-timestamps leaves the times out, so a replay is byte-identical
    assert dispatch(argv + [str(tmp_path / "untimed"), "--no-timestamps"]) == 0
    with open(tmp_path / "untimed" / "checks.csv") as fh:
        untimed = list(csv.DictReader(fh))
    assert [row["elapsed_s"] for row in untimed] == [""] * 6
    assert [{**row, "elapsed_s": ""} for row in rows] == untimed
