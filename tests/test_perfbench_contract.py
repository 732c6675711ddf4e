"""The names and call shapes that perfbench/ relies on.

perfbench/tracing.py rebinds package attributes by name and
perfbench/probes.py calls library functions with fixed arguments; a
change that renames or reshapes one of them breaks `run.py --trace 1`.
"""

import importlib.util
import inspect
import types
from pathlib import Path

from lyapunov_lab import bounds, chain, cli, estimators, gaussian, laws, recursion, util, verification
from lyapunov_lab.laws import BERNOULLI

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_and_restores_every_name():
    tracing = _load_tracing()
    # the namespace run.py's traced_part builds
    modules = types.SimpleNamespace(
        cli=cli, laws=laws, chain=chain, recursion=recursion, gaussian=gaussian,
        bounds=bounds, estimators=estimators, verification=verification, util=util,
    )
    before = (gaussian.eta, bounds.alpha_bound, chain.alpha_bound, cli.ordered_map, laws.RngStream.seek_row)
    with tracing.Tracer(modules):
        assert gaussian.eta is not before[0]
        assert chain.alpha_bound is bounds.alpha_bound
    after = (gaussian.eta, bounds.alpha_bound, chain.alpha_bound, cli.ordered_map, laws.RngStream.seek_row)
    assert after == before


def test_probe_call_shapes_bind():
    inspect.signature(gaussian.eta).bind(80, 201)
    inspect.signature(bounds.alpha_bound).bind(1.0, 1.0)
    inspect.signature(verification.tail_statistics).bind(BERNOULLI, 1000, 16, 1, threads=2)
    # the positional calls of probes.py and rounds.py; `rng`, `incs` and
    # `series` stand for the stream and arrays they pass
    rng, incs, series = laws.RngStream(1, 7), [0.1, 0.2], [0.0, 0.1, 0.3]
    inspect.signature(laws.RngStream).bind(1, 7)
    inspect.signature(rng.seek_row).bind(5)
    inspect.signature(rng.normals).bind(100_001)
    inspect.signature(laws.sample_row).bind(BERNOULLI, rng, 128)
    inspect.signature(chain.run_chain).bind(BERNOULLI, 2000, rng)
    for run in (recursion.run_exact, recursion.run_vt, recursion.run_fibonacci):
        inspect.signature(run).bind(1500, rng)
    inspect.signature(gaussian.couple).bind(5000, rng)
    inspect.signature(bounds.lo_max_atom).bind([1, 2, 3])
    inspect.signature(estimators.gamma_from_increments).bind(incs)
    inspect.signature(estimators.gamma_from_last_coordinate).bind(series)
