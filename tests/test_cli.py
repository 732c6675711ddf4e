import contextlib
import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import types
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from lyapunov_lab import chain, cli, estimators, gaussian, recursion, verification
from lyapunov_lab.chain import CHAIN_STEP_CAP
from lyapunov_lab.cli import dispatch
from lyapunov_lab.gaussian import COUPLE_STEP_CAP
from lyapunov_lab.laws import BERNOULLI, ROW_CHUNK, RngStream
from lyapunov_lab.recursion import EXACT_STEP_CAP, FIB_STEP_CAP, VT_STEP_CAP
from lyapunov_lab.verification import TAIL_CELL_CAP, TAIL_MAX_INDEX


# every model, with the law it draws from (the chain takes both)
_MODEL_LAWS = [("exact", "bernoulli"), ("vt", "gaussian"), ("fib", "bernoulli"), ("chain", "bernoulli")]


def _run(capsys, argv):
    code = dispatch(argv)
    out = capsys.readouterr().out
    return code, out


def test_alpha_json(capsys):
    code, out = _run(capsys, ["alpha", "--sigma2", "1", "--fourth-moment", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload.keys() == {"alpha", "argmax_a"}
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
    code, out = _run(capsys, ["eta", "--out", str(out_dir), "--no-timestamps"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {"eta_hat": gaussian.ETA}
    assert [p.name for p in out_dir.iterdir()] == ["manifest.json"]  # no grid CSV
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert set(manifest) == {
        "command", "parameters", "seed", "artifact_version",
        "started_at", "finished_at", "results",
    }
    assert manifest["command"] == "eta"
    assert manifest["results"] == payload
    assert manifest["started_at"] is None
    assert dispatch(["eta", "--grid", "101"]) == 2
    assert "unrecognized arguments: --grid" in capsys.readouterr().err


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


def test_csv_cells_are_written_exactly(tmp_path):
    # floats with 17 significant digits; int, bool and str cells (numpy's too) as str(v)
    row = ["mean <= alpha + 3 se, all", "", True, np.bool_(False), 7, np.int64(1500), 0.1,
           np.float64(-np.inf), float("nan"), -0.0, 5e-324, 1e300, np.float64(0.28275)]  # fmt: skip
    path = tmp_path / "cells.csv"
    cli._write_csv(str(path), ("a", "b"), [[v] for v in row])  # one row, a column per cell
    assert path.read_text() == (
        'a,b\n"mean <= alpha + 3 se, all",,True,False,7,1500,0.10000000000000001,-inf,nan,-0,'
        "4.9406564584124654e-324,1.0000000000000001e+300,0.28275\n"
    )


def test_csv_array_columns_are_written_cell_by_cell_rule(tmp_path):
    # float and int arrays go a chunk of ROW_CHUNK rows at a time, in bytes
    # equal to the per-cell rule; rows stop at the end of the shortest column
    n = 2 * ROW_CHUNK + 3
    x = RngStream(3).normals(n) * 10.0 ** np.linspace(-300, 300, n)
    x[[0, 5, ROW_CHUNK, n - 1]] = [-0.0, -np.inf, np.nan, 5e-324]
    steps = np.arange(n + 7)
    path = tmp_path / "columns.csv"
    cli._write_csv(str(path), ("step", "x", "flag"), [steps, x, x > 0.0])
    rows = [f"{i},{v:.17g},{v > 0.0}" for i, v in zip(steps.tolist(), x.tolist())]
    assert path.read_text() == "step,x,flag\n" + "".join(row + "\n" for row in rows)
    # an int64 and float64 table, which the compiled kernel writes but for the
    # chunks 1 and 3, where a float lies outside its range
    n = 4 * ROW_CHUNK + 9
    y = np.where(RngStream(4).normals(n) > 0.0, 1.0, -1.0) * 10.0 ** np.linspace(-15, 35, n)
    y[[0, 1, 2, ROW_CHUNK + 5, 3 * ROW_CHUNK + 1]] = [-0.0, -np.inf, np.nan, 1e-300, -(2.0**125)]
    ints = np.arange(n) - n // 2
    cli._write_csv(str(path), ("i", "y"), [ints, y])
    rows = [f"{i},{v:.17g}" for i, v in zip(ints.tolist(), y.tolist())]
    assert path.read_text() == "i,y\n" + "".join(row + "\n" for row in rows)


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
    assert payload["method"] == "norm_increments"
    assert payload["n"] == 5000
    assert payload["n_trajectories"] == 1


def test_gamma_vt_regression(capsys):
    code, out = _run(capsys, ["gamma", "--model", "vt", "--law", "gaussian", "--n", "500", "--seed", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "norm_increments"
    assert 1.0 < payload["gamma_hat"] < 1.8


@pytest.mark.parametrize(
    "model, law, n", [("exact", "bernoulli", 300), ("fib", "bernoulli", 3000), ("vt", "gaussian", 300)]
)
def test_gamma_of_a_recursion_is_the_mean_log_norm_increment(capsys, model, law, n):
    code, out = _run(capsys, ["gamma", "--model", model, "--law", law, "--n", str(n), "--seed", "11"])
    assert code == 0
    payload = json.loads(out)
    series = recursion.log_norms(model, n, RngStream(11, 0))
    assert payload["gamma_hat"] == pytest.approx((series[-1] - series[0]) / (series.size - 1), rel=0, abs=1e-12)
    assert payload["method"] == "norm_increments"
    assert payload["n"] == n


@pytest.mark.parametrize("model, law", [*_MODEL_LAWS, ("chain", "gaussian")])
def test_gamma_reports_the_n_it_was_given(capsys, model, law):
    for n in (100, 101, 257):
        code, out = _run(capsys, ["gamma", "--model", model, "--law", law, "--n", str(n)])
        assert code == 0
        assert json.loads(out)["n"] == n


def test_simulate_zero_final_is_null(tmp_path, capsys):
    # at n = 2 the final value is 0 for 5 of these 12 seeds with exact and 3 with fib
    zeros = {"exact": 0, "fib": 0}
    for model, key in (("exact", "log_abs_final"), ("fib", "rate")):
        for seed in range(12):
            out_dir = tmp_path / f"{model}{seed}"
            argv = ["simulate", "--model", model, "--n", "2", "--seed", str(seed), "--out", str(out_dir)]
            code, out = _run(capsys, argv)
            assert code == 0
            lines = (out_dir / "series.csv").read_text().splitlines()
            assert len(lines) == 4
            final = float(lines[-1].split(",")[1])
            value = json.loads(out)[key]
            if final == float("-inf"):
                zeros[model] += 1
                assert value is None
                assert json.loads((out_dir / "manifest.json").read_text())["results"][key] is None
            else:
                assert value == (final if model == "exact" else final / 2)
    assert zeros == {"exact": 5, "fib": 3}


def test_gamma_chain_weighted_method(capsys):
    code, out = _run(
        capsys,
        ["gamma", "--model", "chain", "--n", "2000", "--c", "0.01", "--trajectories", "3", "--seed", "2"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "weighted_norm"
    assert payload["n_trajectories"] == 3
    assert payload["gamma_hat"] > 0


def test_gamma_weighted_norm_is_read_at_step_n(capsys):
    # the stride 100 does not divide n: the last checkpoint is step 10,000, one step short of n
    n, c = 10_001, 0.005
    code, out = _run(capsys, ["gamma", "--model", "chain", "--n", str(n), "--c", str(c), "--seed", "5"])
    assert code == 0
    run = chain.run_chain(BERNOULLI, n, RngStream(5, 0), c=c)
    assert run.checkpoint_steps[-1] == n - 1
    est = estimators.gamma_from_increments(run.increments)
    summary = json.loads(out)
    assert summary["gamma_hat"] == est.gamma_hat + math.log(chain.weighted_norm(run.coords, c)) / n
    assert summary["stderr"] == est.stderr


def test_couple_trace(tmp_path, capsys):
    out_dir = tmp_path / "couple"
    code, out = _run(
        capsys,
        ["couple", "--n", "500", "--seed", "3", "--out", str(out_dir)],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload.keys() == {"mean_log_b", "final_log_a2", "final_rho", "n"}
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
            "--seed", "11", "--out", str(out_dir),
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    lines = (out_dir / "tails.csv").read_text().splitlines()
    assert lines[0] == "index,tail_mean,alpha_power,stderr"
    assert len(lines) == 1 + TAIL_MAX_INDEX + 1


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["nonsense"], "invalid choice"),
        (["alpha", "--sigma2", "2", "--fourth-moment", "1"], "violates Jensen"),
        (["lo", "--coeffs", "1,0,3"], "must be nonzero"),
        (["gamma", "--model", "chain", "--n", "200", "--threads", "2"], "unrecognized arguments: --threads"),
        (["gamma", "--model", "chain", "--n", "200", "--c", "nan"], "argument --c: 'nan' is not a finite"),
        (
            ["gamma", "--model", "fib", "--n", "200", "--window-fraction", "0.5"],
            "unrecognized arguments: --window-fraction",
        ),
        (["simulate", "--model", "chain", "--n", "200", "--c", "nan"], "argument --c: 'nan' is not a finite"),
        (["simulate", "--model", "chain", "--n", "200", "--trunc-tol", "inf"], "argument --trunc-tol: 'inf'"),
        (["alpha", "--sigma2", "nan", "--fourth-moment", "1"], "argument --sigma2: 'nan' is not a finite"),
        (["alpha", "--sigma2", "1", "--fourth-moment", "nan"], "argument --fourth-moment: 'nan'"),
        (["alpha", "--sigma2", "1", "--fourth-moment", "inf"], "argument --fourth-moment: 'inf'"),
        (["alpha", "--sigma2", "one", "--fourth-moment", "1"], "argument --sigma2: 'one' is not a number"),
        # a*(s-a)^2 and the divisor both overflow to inf, so the closed form gives alpha = nan
        (
            ["alpha", "--sigma2", "1e154", "--fourth-moment", "1e308"],
            "sigma2=1e+154 and fourth_moment=1e+308 give alpha=nan: the closed form overflows",
        ),
        # a flag its model never reads, set off its default
        (["gamma", "--model", "vt", "--law", "gaussian", "--n", "200", "--c", "0.01"], "does not read --c"),
        (["simulate", "--model", "fib", "--n", "200", "--c", "0.01"], "does not read --c"),
        (["simulate", "--model", "exact", "--n", "20", "--trunc-tol", "1e-9"], "does not read --trunc-tol"),
        (["gamma", "--model", "chain", "--n", "1000", "--trajectories", "0"], "--trajectories must be >= 1"),
        (["lo", "--coeffs", "1,x"], "--coeffs must be comma-separated integers"),
        (["lo", "--coeffs", ","], "--coeffs must be comma-separated integers, none empty, got ','"),
        (["lo", "--coeffs", "1,,2"], "--coeffs must be comma-separated integers, none empty, got '1,,2'"),
        (["lo", "--coeffs", "1,2,"], "--coeffs must be comma-separated integers, none empty, got '1,2,'"),
        (["gamma", "--model", "exact", "--n", "20"], "--n must be >= 100 for gamma"),
        (["simulate", "--model", "exact", "--n", "10", "--seed", "-1"], "argument --seed: must be in [0, 2^64)"),
        (["simulate", "--model", "exact", "--n", "10", "--stream-id", "-1"], "argument --stream-id: must be in"),
        (["couple", "--n", "10", "--stream-id", str(2**64)], "argument --stream-id: must be in [0, 2^64)"),
        (["simulate", "--model", "exact", "--n", "twenty"], "argument --n: invalid int value"),
        (["simulate", "--model", "chain", "--law", "cauchy", "--n", "200"], "argument --law: invalid choice"),
        (["simulate", "--model", "exact", "--n", "10", "--config", "x.json"], "unrecognized arguments: --config"),
        # tuning flags that had one value in use, now fixed
        (
            ["gamma", "--model", "chain", "--n", "1000", "--batch-length", "20"],
            "unrecognized arguments: --batch-length",
        ),
        (["tails", "--n", "200", "--chains", "2", "--max-index", "10"], "unrecognized arguments: --max-index"),
        (["couple", "--n", "10", "--rho0", "0.3"], "unrecognized arguments: --rho0"),
        (
            ["alpha", "--sigma2", "1", "--fourth-moment", "1", "--zeta-sq-factor", "3"],
            "unrecognized arguments: --zeta-sq-factor",
        ),
        # an empty --out names no directory: the run would write nothing
        (["simulate", "--model", "exact", "--n", "20", "--out", ""], "argument --out: must name a directory"),
        # --n has no default where a run's length is the whole question
        (["simulate", "--model", "exact"], "the following arguments are required: --n"),
        (["gamma", "--model", "fib"], "the following arguments are required: --n"),
        (["couple"], "the following arguments are required: --n"),
        # every verify check runs at its own fixed seed
        (["verify", "--seed", "5"], "unrecognized arguments: --seed"),
    ],
)
def test_usage_errors_exit_two(capsys, argv, message):
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert "Traceback" not in captured.err


def test_gamma_takes_every_n_from_100(capsys):
    # the default batch length ceil(sqrt(n)) = 11 needs 110 steps; it is capped at n // 10
    for n in range(100, 121):
        assert dispatch(["gamma", "--model", "chain", "--n", str(n)]) == 0, capsys.readouterr().err
    capsys.readouterr()


def test_tails_max_z_ignores_indices_no_chain_reached(monkeypatch):
    # chains whose support ends before index 20 leave the columns past it without spread
    def short_run(law, n, rng):
        return types.SimpleNamespace(tail_means=0.5 ** np.arange(1, 21) * (1.0 + rng.uniforms(20)))

    monkeypatch.setattr(chain, "run_chain", short_run)
    stats = verification.tail_statistics(BERNOULLI, 1000, 8, 3)
    assert stats["indices"].size == TAIL_MAX_INDEX + 1
    assert np.all(stats["stderrs"][:20] > 0) and np.all(stats["stderrs"][20:] == 0)
    reached = (stats["means"][:20] - stats["alpha_powers"][:20]) / stats["stderrs"][:20]
    assert stats["max_z"] == float(reached.max())
    assert stats["passed"] is True


_BAD_UINT64 = st.one_of(st.integers(max_value=-1), st.integers(min_value=2**64))


def _bad(argv: list[str], flag: str, values) -> st.SearchStrategy:
    """(argv + [flag, value], flag) for every value drawn."""
    return values.map(lambda v: (argv + [flag, str(v)], flag))


def _out_of_domain_cases() -> st.SearchStrategy:
    below_one, below_100 = st.integers(max_value=0), st.integers(1, 99)
    cases = [
        _bad(["couple"], "--n", below_one),
        _bad(["tails"], "--n", below_one),
        _bad(["tails"], "--n", below_100),
        _bad(["tails"], "--chains", st.integers(max_value=1)),
    ]
    for model, law in _MODEL_LAWS:
        gamma = ["gamma", "--model", model, "--law", law, "--n", "1000"]
        cases.append(_bad(["simulate", "--model", model, "--law", law], "--n", below_one))
        cases.append(_bad(["gamma", "--model", model, "--law", law], "--n", below_one))
        cases.append(_bad(["gamma", "--model", model, "--law", law], "--n", below_100))
        cases.append(_bad(gamma, "--trajectories", st.integers(max_value=0)))
    cases.append(_bad(["simulate", "--model", "chain"], "--n", below_100))
    step_caps = (
        ("exact", "bernoulli", EXACT_STEP_CAP),
        ("vt", "gaussian", VT_STEP_CAP),
        ("fib", "bernoulli", FIB_STEP_CAP),
        ("chain", "bernoulli", CHAIN_STEP_CAP),
    )
    for model, law, cap in step_caps:
        for command in ("simulate", "gamma"):
            cases.append(_bad([command, "--model", model, "--law", law], "--n", st.integers(min_value=cap + 1)))
    cases.append(_bad(["couple"], "--n", st.integers(min_value=COUPLE_STEP_CAP + 1)))
    cases.append(_bad(["tails"], "--n", st.integers(min_value=CHAIN_STEP_CAP + 1)))
    cases.append(_bad(["tails"], "--chains", st.integers(min_value=TAIL_CELL_CAP // (TAIL_MAX_INDEX + 1) + 1)))
    valid = [
        ["simulate", "--model", "exact", "--n", "10"],
        ["gamma", "--model", "fib", "--n", "1000"],
        ["alpha", "--sigma2", "1", "--fourth-moment", "1"],
        ["eta"],
        ["couple", "--n", "10"],
        ["lo", "--coeffs", "1,2"],
        ["tails", "--chains", "2"],
    ]
    for argv in valid:
        cases.append(_bad(argv, "--seed", _BAD_UINT64))
        if argv[0] in ("simulate", "couple"):
            cases.append(_bad(argv, "--stream-id", _BAD_UINT64))
    return st.one_of(cases)


# every row drawn in Python starts with seek_row (sample_rows too), and every chain runs through one of these
_SIMULATION_ENTRIES = [
    (RngStream, "seek_row"),
    (chain, "_run_compiled"),
    (chain, "_run_reference"),
]


def _no_simulation(*args, **kwargs):
    raise AssertionError("a simulation started before the flags were checked")


@given(case=_out_of_domain_cases())
@settings(max_examples=300, deadline=None)
def test_out_of_domain_integer_flags_exit_two_naming_the_flag(case):
    # every value is out of its domain, so each command stops before it simulates anything
    argv, flag = case
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:  # hypothesis reruns the body, so no function-scoped fixture
        for owner, name in _SIMULATION_ENTRIES:
            mp.setattr(owner, name, _no_simulation)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = dispatch(argv)
    assert code == 2, (argv, err.getvalue())
    assert out.getvalue() == ""
    assert "Traceback" not in err.getvalue()
    message = err.getvalue().strip().splitlines()[-1]  # argparse prints its usage above the error
    word = flag[2:].replace("-", "_")
    assert re.search(rf"(?<![\w-]){flag}\b|\b{word}\b", message), (argv, message)


def test_readme_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [shlex.split(line, comments=True) for line in readme.splitlines() if line.startswith("lyapunov-lab ")]
    examples = [words[1:] for words in lines if not words[1].startswith("<")]  # skip the synopsis
    assert len(examples) >= 11
    parser = cli.build_parser()
    for argv in examples:
        try:
            parser.parse_args(cli._join_coeffs(argv))
        except SystemExit:
            pytest.fail(f"README example does not parse: lyapunov-lab {shlex.join(argv)}")


def _parser_flags(capsys) -> set[str]:
    """Every --flag that some subcommand's --help lists."""
    helps = []
    for command in ("simulate", "gamma", "alpha", "eta", "couple", "lo", "tails", "verify"):
        assert dispatch([command, "--help"]) == 0
        helps.append(capsys.readouterr().out)
    return set(re.findall(r"--[a-z][\w-]*", "".join(helps)))


def _doc_flags(doc: str) -> set[str]:
    text = (Path(__file__).resolve().parents[1] / doc).read_text()
    return set(re.findall(r"(?<![\w-])--[a-z][\w-]*", text))


def test_docs_name_only_flags_that_exist(capsys):
    known = _parser_flags(capsys)
    for doc in ("README.md", "docs/manifest.md"):
        assert _doc_flags(doc) - known - {"--version"} == set(), doc  # --version is gcc's, in `gcc --version`


def test_readme_names_every_flag(capsys):
    assert _parser_flags(capsys) - _doc_flags("README.md") - {"--help"} == set()


# one command per model and subcommand, each small enough to run twice
_REPLAY_CASES = [
    ["simulate", "--model", "exact", "--n", "200"],
    ["simulate", "--model", "vt", "--law", "gaussian", "--n", "300", "--stream-id", "2"],
    ["simulate", "--model", "fib", "--n", "2000"],
    ["simulate", "--model", "chain", "--law", "gaussian", "--n", "1000", "--c", "0.005", "--trunc-tol", "1e-10"],
    ["gamma", "--model", "chain", "--n", "1000", "--trajectories", "3", "--c", "0.01"],
    ["gamma", "--model", "fib", "--n", "2000"],
    ["couple", "--n", "500", "--seed", "5"],
    ["lo", "--coeffs", "-5,3,7"],
    ["alpha", "--sigma2", "1", "--fourth-moment", "3"],
    ["eta", "--seed", "4"],
    ["tails", "--law", "gaussian", "--n", "200", "--chains", "4"],
]


@pytest.mark.parametrize("argv", _REPLAY_CASES, ids=lambda argv: " ".join(argv[:3]))
def test_manifest_parameters_replay_through_argv(tmp_path, capsys, argv):
    # docs/manifest.md: re-running `command` with `parameters` reproduces the run byte for byte
    first, again = tmp_path / "a", tmp_path / "b"
    code, out = _run(capsys, argv + ["--out", str(first), "--no-timestamps"])
    manifest = json.loads((first / "manifest.json").read_text())
    replay = [manifest["command"]] + [
        f"--{k.replace('_', '-')}={v}" for k, v in manifest["parameters"].items() if v is not None
    ]
    assert _run(capsys, replay + ["--out", str(again), "--no-timestamps"]) == (code, out)
    assert code == 0
    files = sorted(p.name for p in first.iterdir())
    assert files == sorted(p.name for p in again.iterdir())
    for name in files:
        assert (first / name).read_bytes() == (again / name).read_bytes(), name


@pytest.mark.parametrize("model, law", [("exact", "gaussian"), ("vt", "bernoulli"), ("fib", "gaussian")])
def test_law_a_recursion_model_does_not_draw_exits_two(capsys, model, law):
    errors = []
    for command in ("simulate", "gamma"):
        assert dispatch([command, "--model", model, "--law", law, "--n", "300"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("error: ") and "law" in errors[0]


@pytest.mark.parametrize("model, law", _MODEL_LAWS)
def test_law_defaults_to_the_one_the_model_draws(tmp_path, capsys, model, law):
    for command in ("simulate", "gamma"):
        runs = []
        for given in ([], ["--law", law]):
            out_dir = tmp_path / f"{command}-{len(given)}"
            argv = [command, "--model", model, "--n", "300", *given, "--out", str(out_dir), "--no-timestamps"]
            code, out = _run(capsys, argv)
            assert code == 0, capsys.readouterr().err
            runs.append((out, {p.name: p.read_bytes() for p in out_dir.iterdir()}))
        assert runs[0] == runs[1]
        assert json.loads(runs[0][1]["manifest.json"])["parameters"]["law"] == law


def test_aborted_runs_exit_one(monkeypatch, capsys):
    # a truncation budget no run fits, and a vt divisor below 1e-300
    real = chain._check_run
    monkeypatch.setattr(chain, "_check_run", lambda *args: real(*args) * 1e-300)

    def degenerate(n, rng):
        raise recursion.DegenerateDivisorError("|a[n,n]| below 1e-300")

    monkeypatch.setattr(recursion, "run_vt", degenerate)
    for model in ("chain", "vt"):
        assert dispatch(["simulate", "--model", model, "--n", "300"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("run aborted: "), captured.err


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


@pytest.mark.parametrize("argv", [["--coeffs", "-5,3"], ["--coeffs=-5,3"], ["--seed", "4", "--coeffs", "-5,3,-2"]])
def test_lo_coefficients_may_start_with_a_minus_sign(capsys, argv):
    code, out = _run(capsys, ["lo"] + argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"][:2] == [-5, 3]
    assert payload["max_atom"] == ("1/2^2" if payload["k"] == 2 else "2/2^3")


@pytest.mark.parametrize(
    "tol, message",
    [
        ("0.5", "trunc_tol=0.5 outside"),
        ("-1", "trunc_tol=-1.0 outside"),
        ("nan", "argument --trunc-tol: 'nan'"),
        # its square underflows to 0.0, which would turn truncation off
        ("1e-200", "trunc_tol=1e-200 outside [1e-150, 1e-08]"),
    ],
)
def test_trunc_tol_out_of_range_exits_two(capsys, tol, message):
    argv = ["simulate", "--model", "chain", "--n", "200", "--trunc-tol", tol]
    assert dispatch(argv) == 2
    assert message in capsys.readouterr().err


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
    calls = []
    real_eta = gaussian.eta

    def counted(*args, **kwargs):
        calls.append(args)
        return real_eta(*args, **kwargs)

    # the simulations are stubbed; the quadrature, bound and enumeration
    # checks run for real, and only eta_value may scan rho
    for name in (
        "check_vt_log4", "check_fib_rate_oracle", "check_alpha_dominates_mc", "check_corollary8_tails",
        "check_theorem1_rates", "check_theorem9_weighted", "check_gaussian_rate_lambda_v",
        "check_coupling_contraction", "check_exact_determinism",
    ):  # fmt: skip
        stub = verification.CheckResult(name, "x", "x", "0", True)
        monkeypatch.setattr(verification, name, lambda stub=stub: stub)
    monkeypatch.setattr(gaussian, "eta", counted)
    dispatch(["verify", "--suite", "all"])
    out = capsys.readouterr().out
    assert calls == [(80, 201)]
    assert "[PASS] eta_value" in out and "[PASS] eta_negative" in out
    for suite in ("inequalities", "consistency"):  # suites without eta_value never scan
        calls.clear()
        dispatch(["verify", "--suite", suite])
        assert calls == []
    capsys.readouterr()


def test_cli_never_imports_scipy_integrate():
    # importing scipy.integrate costs about 0.2 s of every command's start-up
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    code = (
        "import sys, io, contextlib\n"
        "import lyapunov_lab.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert lyapunov_lab.cli.dispatch(['eta']) == 0\n"
        "print('scipy.integrate' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


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
    for name in ("check_vt_log4", "check_fib_rate_oracle"):
        stub = verification.CheckResult(name, "x", "x", "0", True)
        monkeypatch.setattr(verification, name, lambda stub=stub: stub)
    argv = ["verify", "--suite", "paper-constants", "--out"]
    assert dispatch(argv + [str(tmp_path / "timed")]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[PASS]")]
    assert len(lines) == 6 and all(re.search(r"  \[\d+\.\d\d s\]$", line) for line in lines)
    with open(tmp_path / "timed" / "checks.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(row["elapsed_s"]) >= 0.0 for row in rows] == [True] * 6
    manifest = json.loads((tmp_path / "timed" / "manifest.json").read_text())
    assert manifest["results"]["chain_engine"] == chain.chain_engine()
    assert manifest["parameters"] == {"suite": "paper-constants"} and manifest["seed"] is None  # verify takes no seed
    # --no-timestamps leaves the times out, so a replay is byte-identical
    assert dispatch(argv + [str(tmp_path / "untimed"), "--no-timestamps"]) == 0
    with open(tmp_path / "untimed" / "checks.csv") as fh:
        untimed = list(csv.DictReader(fh))
    assert [row["elapsed_s"] for row in untimed] == [""] * 6
    assert [{**row, "elapsed_s": ""} for row in rows] == untimed
