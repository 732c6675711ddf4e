import math
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from lyapunov_lab import chain
from lyapunov_lab.chain import (
    DEFAULT_TRUNC_TOL,
    MAX_TRUNC_TOL,
    run_chain,
    weighted_norm,
)
from lyapunov_lab.errors import TruncationBudgetError
from lyapunov_lab.laws import BERNOULLI, GAUSSIAN, RngStream
from lyapunov_lab.recursion import run_exact


E0 = np.array([1.0])  # the delta state every trajectory starts from


def _fixed_row(monkeypatch, row):
    """Make every chain step draw `row`, cut to the state's size."""
    monkeypatch.setattr(chain, "sample_row", lambda law, rng, k: np.asarray(row[:k], dtype=float))


def test_first_step_from_delta_state():
    coords, inc, dropped = chain._step(E0, BERNOULLI, RngStream(5, 0), 0, DEFAULT_TRUNC_TOL)
    assert inc == pytest.approx(0.5 * math.log(2.0), abs=1e-15)
    assert abs(coords[0]) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    assert coords[1] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    assert dropped == 0.0


def test_zero_row_is_identity_case(monkeypatch):
    _fixed_row(monkeypatch, [0.0])
    coords, inc, _ = chain._step(E0, GAUSSIAN, RngStream(0, 0), 0, DEFAULT_TRUNC_TOL)
    assert inc == 0.0
    assert coords.tolist() == [0.0, 1.0]


def test_weighted_norm_trivia():
    for c in (0.0, 0.3, 2.0):
        assert weighted_norm(E0, c) == pytest.approx(1.0, abs=1e-15)
    e1 = np.array([0.0, 1.0])
    for c in (0.0, 0.5, 1.0):
        assert weighted_norm(e1, c) == pytest.approx(math.exp(c / 2.0), rel=1e-14)
    half = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert weighted_norm(half, 0.0) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("n", [200, 2000])
def test_log_norm_matches_exact_l2_oracle(n):
    seed = 90125
    run = run_chain(BERNOULLI, n, RngStream(seed, 0))
    exact = run_exact(n, RngStream(seed, 0))
    # relative 1e-8 agreement of the norms == absolute 1e-8 of the logs
    assert abs(run.log_norm - exact.log_norm_series()[-1]) < 1e-8


def test_unit_norm_invariant_along_run():
    coords = E0
    rng = RngStream(17, 2)
    for t in range(500):
        coords, _, _ = chain._step(coords, BERNOULLI, rng, t, DEFAULT_TRUNC_TOL)
        assert abs(float(np.linalg.norm(coords)) - 1.0) <= 1e-12


def test_support_grows_without_truncation():
    coords = E0
    rng = RngStream(3, 0)
    for t in range(50):
        coords, _, dropped = chain._step(coords, GAUSSIAN, rng, t, 0.0)
        assert dropped == 0.0
    assert coords.size == 51


@given(
    coords=st.lists(st.floats(min_value=-1, max_value=1), min_size=2, max_size=8),
    row=st.lists(st.floats(min_value=-3, max_value=3), min_size=8, max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_increment_invariant_under_global_sign_flip(coords, row):
    v = np.asarray(coords)
    nrm = np.linalg.norm(v)
    if nrm < 1e-3:
        return
    v = v / nrm
    with pytest.MonkeyPatch.context() as mp:  # hypothesis reruns the body, so no function-scoped fixture
        _fixed_row(mp, row)
        _, inc_a, _ = chain._step(v, BERNOULLI, RngStream(0, 0), 0, DEFAULT_TRUNC_TOL)
        _, inc_b, _ = chain._step(-v, BERNOULLI, RngStream(0, 0), 0, DEFAULT_TRUNC_TOL)
    assert inc_a == inc_b


def test_weighted_offsets_vanish_at_c_zero():
    run = run_chain(BERNOULLI, 10_000, RngStream(12, 0), c=0.0)
    assert np.max(np.abs(run.weighted_offsets)) <= 1e-12


def test_weighted_offsets_small_at_positive_c():
    n = 10_000
    run = run_chain(BERNOULLI, n, RngStream(12, 1), c=0.01)
    assert np.max(np.abs(run.weighted_offsets)) < 5.0
    last_decile = run.weighted_offsets[-10:]
    steps = run.checkpoint_steps[-10:]
    assert np.max(np.abs(last_decile / steps)) < 1e-3


def test_tail_means_shape_and_decay():
    run = run_chain(BERNOULLI, 1000, RngStream(8, 0))
    tm = run.tail_means
    assert tm.size >= 51
    assert tm[0] > tm[30] > tm[70]


def test_run_chain_preconditions():
    with pytest.raises(ValueError):
        run_chain(BERNOULLI, 99, RngStream(0, 0))
    # -log(alpha) is about 0.0163 for the sign law: c above it is rejected
    with pytest.raises(ValueError):
        run_chain(BERNOULLI, 1000, RngStream(0, 0), c=0.02)
    for c in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="weight exponent c must be finite and >= 0"):
            run_chain(BERNOULLI, 1000, RngStream(0, 0), c=c)


@pytest.mark.parametrize("tol", [0.5, 2e-8, 0.0, -1.0, math.nan, math.inf])
def test_run_chain_rejects_trunc_tol_outside_range(tol):
    with pytest.raises(ValueError, match="trunc_tol"):
        run_chain(BERNOULLI, 100, RngStream(0, 0), trunc_tol=tol)


def test_run_chain_accepts_largest_trunc_tol():
    assert run_chain(BERNOULLI, 100, RngStream(0, 0), trunc_tol=MAX_TRUNC_TOL).increments.size == 100


def _assert_same_run(a, b):
    assert np.array_equal(a.increments, b.increments)
    assert np.array_equal(a.checkpoint_steps, b.checkpoint_steps)
    assert np.array_equal(a.weighted_offsets, b.weighted_offsets)
    assert np.array_equal(a.tail_means, b.tail_means)
    # bytes, not values: a -0.0 where the reference has 0.0 would print otherwise
    assert a.coords.tobytes() == b.coords.tobytes()
    assert a.log_norm == b.log_norm
    assert a.log_norm_comp == b.log_norm_comp
    assert a.dropped_mass == b.dropped_mass


def _reference(law, n, rng, c=0.0, trunc_tol=DEFAULT_TRUNC_TOL):
    return chain._run_reference(law, n, rng, c, trunc_tol)


@pytest.fixture
def compiled():
    """The compiled kernel, which every comparison with the reference must actually run."""
    if shutil.which("gcc") is None:
        pytest.skip("no C compiler: run_chain runs the reference loop itself")
    assert chain.chain_engine() == "compiled"


@pytest.fixture
def fresh_kernel():
    """Forget the loaded kernel before and after, so a test can load it under its own environment."""
    chain._kernel.cache_clear()
    yield
    chain._kernel.cache_clear()


@pytest.mark.parametrize("stream", [7, 40, 55])
@pytest.mark.parametrize("trunc_tol", [DEFAULT_TRUNC_TOL, MAX_TRUNC_TOL])
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("n", [100, 1000, 2500])
@pytest.mark.parametrize("c", [0.0, 0.005])
@pytest.mark.parametrize("law", [BERNOULLI, GAUSSIAN], ids=["bernoulli", "gaussian"])
def test_kernel_equals_reference_bit_for_bit(compiled, law, c, n, seed, trunc_tol, stream):
    run = run_chain(law, n, RngStream(seed, stream), c, trunc_tol)
    _assert_same_run(run, _reference(law, n, RngStream(seed, stream), c, trunc_tol))
    if trunc_tol == MAX_TRUNC_TOL and n >= 1000:
        assert run.dropped_mass > 0.0


@pytest.mark.parametrize("trunc_tol", [DEFAULT_TRUNC_TOL, MAX_TRUNC_TOL])
def test_run_chain_matches_through_truncation_and_buffer_moves(compiled, trunc_tol):
    # the kernel's 512-entry buffer moves the live block to its end every
    # few hundred steps; the support rises from e0 and then shrinks
    # whenever the truncation walk drops a tail
    n = 2500
    for stream in range(40, 44):
        run = run_chain(BERNOULLI, n, RngStream(5, stream), trunc_tol=trunc_tol)
        _assert_same_run(run, _reference(BERNOULLI, n, RngStream(5, stream), trunc_tol=trunc_tol))
        assert run.dropped_mass > 0.0
        assert run.coords.size < 200  # of the n + 1 the support would reach untruncated


def test_run_chain_matches_when_the_buffer_grows(compiled, monkeypatch):
    # from 16 entries the buffer doubles four or five times as the support grows to 100-130
    monkeypatch.setattr(chain, "_KERNEL_ROWS", 16)
    for c in (0.0, 0.005):
        for stream in range(40, 44):
            run = run_chain(GAUSSIAN, 600, RngStream(9, stream), c)
            _assert_same_run(run, _reference(GAUSSIAN, 600, RngStream(9, stream), c))


def test_run_chain_checks_the_truncation_budget(monkeypatch):
    # a budget no drop fits: the run's dropped mass is checked against it
    real = chain._check_run
    monkeypatch.setattr(chain, "_check_run", lambda *args: real(*args) * 1e-300)
    with pytest.raises(TruncationBudgetError):
        run_chain(BERNOULLI, 300, RngStream(0, 40))


def test_truncation_budget_catches_a_loosened_truncation(monkeypatch):
    # the budget is trunc_tol per step, which _truncate keeps to by construction;
    # a truncation that drops up to 10 trunc_tol per step must overrun it
    real = chain._truncate
    monkeypatch.setattr(chain, "_kernel", lambda: None)
    monkeypatch.setattr(chain, "_truncate", lambda coords, tol: real(coords, 10.0 * tol))
    with pytest.raises(TruncationBudgetError):
        run_chain(BERNOULLI, 2000, RngStream(1, 0), trunc_tol=MAX_TRUNC_TOL)


def test_run_chain_rejects_rows_past_the_counter_limb():
    # row 2^34 would need the second 64-bit limb of the Philox counter
    with pytest.raises(ValueError, match="2\\^34"):
        run_chain(BERNOULLI, 2**34, RngStream(0, 0))


def test_run_chain_step_cap():
    with pytest.raises(ValueError, match="cap"):
        run_chain(BERNOULLI, chain.CHAIN_STEP_CAP + 1, RngStream(0, 0))


def test_kernel_builds_into_the_cache_directory(compiled, fresh_kernel, tmp_path, monkeypatch):
    expected = run_chain(GAUSSIAN, 300, RngStream(4, 1), 0.005)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    chain._kernel.cache_clear()
    assert chain.chain_engine() == "compiled"
    built = list((tmp_path / "lyapunov_lab").iterdir())
    assert [p.suffix for p in built] == [".so"]  # the temporary file was renamed, none is left
    stamp = built[0].stat().st_mtime_ns
    _assert_same_run(run_chain(GAUSSIAN, 300, RngStream(4, 1), 0.005), expected)
    chain._kernel.cache_clear()
    assert chain.chain_engine() == "compiled"  # loaded from the cache, not built again
    assert list((tmp_path / "lyapunov_lab").iterdir()) == built
    assert built[0].stat().st_mtime_ns == stamp


# a gcc that prints a version and then fails to compile
FAILING_GCC = '#!/bin/sh\nif [ "$1" = --version ]; then echo "gcc 0"; else exit 1; fi\n'


@pytest.mark.parametrize("compiler", [None, FAILING_GCC], ids=["missing", "failing"])
def test_without_a_compiler_run_chain_falls_back_to_the_reference(fresh_kernel, tmp_path, monkeypatch, compiler):
    expected = [run_chain(law, 400, RngStream(2, 3), trunc_tol=MAX_TRUNC_TOL) for law in (BERNOULLI, GAUSSIAN)]
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    if compiler is not None:
        gcc = bin_dir / "gcc"
        gcc.write_text(compiler)
        gcc.chmod(0o755)
    monkeypatch.setenv("PATH", str(bin_dir))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    chain._kernel.cache_clear()
    assert chain.chain_engine() == "python"
    for law, ref in zip((BERNOULLI, GAUSSIAN), expected):
        _assert_same_run(run_chain(law, 400, RngStream(2, 3), trunc_tol=MAX_TRUNC_TOL), ref)
    cache = tmp_path / "lyapunov_lab"
    assert not cache.exists() or not list(cache.iterdir())  # a failed build leaves no file behind
