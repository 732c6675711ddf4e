"""The scripts under scripts/ still run against the library's API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lyapunov_lab

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script, args, header",
    [
        ("growth_rate_survey.py", ["--n", "2000"], "model  law         gamma_hat    stderr  reference"),
        ("calibrate_fib_rate.py", ["--n", "2000", "--runs", "2"], "runs: 2 x n=2000"),
        ("coverage.py", ["--runs", "2", "--seed", "5"], "model       n  runs  coverage  sd/se      mean  reference"),
    ],
)
def test_script_runs(script, args, header):
    env = dict(os.environ, PYTHONPATH=str(Path(lyapunov_lab.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == header
