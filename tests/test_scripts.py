"""The scripts under scripts/ still run against the library's API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lyapunov_lab

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# one smoke run per script: its name, tiny arguments, the first line it prints
SMOKE_RUNS = [
    ("coverage.py", ["--runs", "2", "--seed", "5"], "model       n  runs  coverage  sd/se      mean  reference"),
]


def test_every_script_has_a_smoke_run():
    assert sorted(script for script, _, _ in SMOKE_RUNS) == sorted(p.name for p in SCRIPTS.glob("*.py"))


@pytest.mark.parametrize("script, args, header", SMOKE_RUNS)
def test_script_runs(script, args, header):
    env = dict(os.environ, PYTHONPATH=str(Path(lyapunov_lab.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == header
