"""Golden digests: the sha256 of the raw float64 bytes of small runs.

Same seed, same parameters, same numbers. test_laws.py pins the Philox
words and run_exact's integers; these digests pin what numpy, scipy's
ndtri, libm and the compiler flags add on top of them: the chain under
both laws with and without weights, the fib and vt recursions, the
coupling trace, and the estimate that `gamma` prints for each model.
Both chain engines give the same bytes. Three CSV files are pinned by
the sha256 of their bytes, which both CSV writers must give. A digest that fails after an
upgrade or on another host is a finding about that environment, not a
reason to re-record it; a change that means to move these numbers says
so and records the new digests.
"""

import hashlib
import json

import numpy as np
import pytest

from lyapunov_lab import chain, cli
from lyapunov_lab.chain import run_chain
from lyapunov_lab.cli import dispatch
from lyapunov_lab.gaussian import couple
from lyapunov_lab.laws import BERNOULLI, GAUSSIAN, RngStream
from lyapunov_lab.recursion import run_fibonacci, run_vt

SEED = 1_000_003


def _sha256(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize(
    "law, c, stream, digest",
    [
        (BERNOULLI, 0.0, 830, "194904a82e5be0c4a134b3d45b18e7da8d0e5f03d434b0c36f92ede9484438e1"),
        (BERNOULLI, 0.005, 831, "e0be0445e0918b7c26be8111aa2d79f507480050c8578e1d170770af3027bf78"),
        (GAUSSIAN, 0.0, 832, "296801e73af99ee9180ca68cbb06405ef92630215d5009acf6e996bdb3982e98"),
        (GAUSSIAN, 0.005, 833, "c8652bfee83033f9a3faf0760bf465876e729ee6f4bf6a34bcdbeb43f30f9a41"),
    ],
    ids=["bernoulli-c0", "bernoulli-c0.005", "gaussian-c0", "gaussian-c0.005"],
)
def test_chain_run_is_pinned(law, c, stream, digest):
    run = run_chain(law, 2000, RngStream(SEED, stream), c=c)
    assert _sha256(run.increments, run.weighted_offsets, run.tail_means, run.coords) == digest


def test_fibonacci_run_is_pinned():
    out = run_fibonacci(2000, RngStream(SEED, 834))
    assert _sha256(out) == "51ee60091f869a85f2347ee577c5b4bd58c89cf84b8db3735cdba9e9ce4c1e32"


def test_vt_run_is_pinned():
    out = run_vt(300, RngStream(SEED, 835))
    assert _sha256(out) == "294b5c86c0f7822c85dbaf68caf7b1bef5b802d5ee64fd8966e79df3b4af0b27"


@pytest.mark.parametrize(
    "n, stream, digest",
    [
        (2000, 836, "da191583f8edc2de1a5fb07a6489e4e816d6d44e7c50a2cc3e10fc524095f066"),
        # log a^2 first falls below -40 at step 234 and climbs back above it twice
        (20_000, 837, "bf863074239cbd20e522420f9c129aafc783765bec31bf9e22d750df4dd5dfc4"),
    ],
    ids=["n2000", "n20000-climbs-back"],
)
def test_coupling_trace_is_pinned(n, stream, digest):
    trace = couple(n, RngStream(SEED, stream))
    assert _sha256(trace.rho, trace.log_a2, trace.log_b) == digest


# gamma's estimates are floats, not arrays: pinned as the literals it printed
@pytest.mark.parametrize(
    "flags, gamma_hat, stderr",
    [
        ("chain --law bernoulli --n 2000", 0.27445743213615414, 0.0054334518345436345),
        ("chain --law bernoulli --n 2000 --c 0.005", 0.2744605074055841, 0.0054334518345436345),
        ("chain --law gaussian --n 2000", 0.2610250580871182, 0.006094323895941177),
        ("chain --law gaussian --n 2000 --c 0.005", 0.2610295868650084, 0.006094323895941177),
        ("fib --n 2000", 0.11993199853081668, 0.00794844878802818),
        ("exact --n 200", 0.2329684767917958, 0.020577963075803223),
        ("vt --n 300", 1.546834795344476, 0.11578718340128318),
    ],
)
def test_gamma_estimate_is_pinned(capsys, flags, gamma_hat, stderr):
    assert dispatch(["gamma", "--model", *flags.split(), "--seed", str(SEED)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert (result["gamma_hat"], result["stderr"]) == (gamma_hat, stderr)


@pytest.mark.parametrize(
    "argv, name, digest",
    [
        ("couple --n 5000 --seed 1", "trace.csv", "17a8fef2d0663b19ea87a302a45af19f9944d94b50846fbdddd2993abb60a231"),
        (
            "simulate --model exact --n 1500 --seed 1",
            "series.csv",
            "e3e3a625ed15fe6dd05a6ad4fbea559cd133113a5e80a8a66948be3594aec7c6",
        ),
        ("tails", "tails.csv", "ee8de2a37f337b6239026d2a09d68433e186df82546f42fc60f248e57cc8737b"),
        # the kernel refuses this table's one chunk, whose smallest means lie below 1e-16
        (
            "simulate --model chain --law gaussian --n 300",
            "tail_means.csv",
            "f7e255cb18b0fcd0ccc2eb1ff0837efab58c9f943e20f33c2a2e4135c0d38ca1",
        ),
    ],
    ids=["couple", "exact", "tails", "chain-tail-means"],
)
def test_csv_bytes_are_pinned(tmp_path, monkeypatch, capsys, argv, name, digest):
    # recorded when every CSV number went through Python's "%.17g"; the kernel's csv_rows must give the same bytes
    write, tables = cli._write_csv, {}

    def record(path, header, columns):
        tables[path] = (header, columns)
        write(path, header, columns)

    monkeypatch.setattr(cli, "_write_csv", record)
    assert dispatch([*argv.split(), "--out", str(tmp_path), "--no-timestamps"]) == 0
    capsys.readouterr()
    path = tmp_path / name
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    monkeypatch.setattr(chain, "_kernel", lambda: None)  # the same table through the cell rule alone
    write(str(path), *tables[str(path)])
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
