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
    NormalizedState,
    WeightParameter,
    apply_step,
    initial_state,
    run_chain,
    run_chains,
    weighted_norm,
)
from lyapunov_lab.errors import TruncationBudgetError
from lyapunov_lab.laws import BERNOULLI, GAUSSIAN, RngStream
from lyapunov_lab.recursion import run_exact


def test_first_step_from_delta_state():
    state, inc = apply_step(initial_state(), BERNOULLI, RngStream(5, 0))
    assert inc == pytest.approx(0.5 * math.log(2.0), abs=1e-15)
    g = state.coords[0]
    assert abs(g) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    assert state.coords[1] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    assert state.step == 1


def test_zero_row_override_is_identity_case():
    state, inc = apply_step(initial_state(), GAUSSIAN, None, row_override=np.array([0.0]))
    assert inc == 0.0
    assert state.coords.tolist() == [0.0, 1.0]


def test_weighted_norm_trivia():
    e0 = initial_state()
    for c in (0.0, 0.3, 2.0):
        assert weighted_norm(e0, WeightParameter(c)) == pytest.approx(1.0, abs=1e-15)
    e1 = NormalizedState(np.array([0.0, 1.0]), 0.0, 0.0, 1)
    for c in (0.0, 0.5, 1.0):
        assert weighted_norm(e1, WeightParameter(c)) == pytest.approx(math.exp(c / 2.0), rel=1e-14)
    half = NormalizedState(np.array([1.0, 1.0]) / math.sqrt(2.0), 0.0, 0.0, 1)
    assert weighted_norm(half, WeightParameter(0.0)) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("n", [200, 2000])
def test_log_norm_matches_exact_l2_oracle(n):
    seed = 90125
    run = run_chain(BERNOULLI, n, RngStream(seed, 0))
    exact = run_exact(n, RngStream(seed, 0))
    # relative 1e-8 agreement of the norms == absolute 1e-8 of the logs
    assert abs(run.final_state.log_norm - exact.l2_log_norm()) < 1e-8


def test_apply_step_composition_equals_run_chain():
    n, seed = 150, 33
    run = run_chain(BERNOULLI, n, RngStream(seed, 4))
    state = initial_state()
    rng = RngStream(seed, 4)
    incs = []
    for _ in range(n):
        state, inc = apply_step(state, BERNOULLI, rng)
        incs.append(inc)
    assert np.array_equal(np.array(incs), run.increments)
    assert np.array_equal(state.coords, run.final_state.coords)
    assert state.log_norm == run.final_state.log_norm
    assert state.dropped_mass == run.final_state.dropped_mass


def test_unit_norm_invariant_along_run():
    state = initial_state()
    rng = RngStream(17, 2)
    for _ in range(500):
        state, _ = apply_step(state, BERNOULLI, rng)
        assert state.norm_error <= 1e-12


def test_support_grows_without_truncation():
    state = initial_state()
    rng = RngStream(3, 0)
    for _ in range(50):
        state, _ = apply_step(state, GAUSSIAN, rng, trunc_tol=0.0)
    assert state.coords.size == 51
    assert state.dropped_mass == 0.0


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
    r = np.asarray(row[: v.size])
    base = NormalizedState(v, 0.0, 0.0, 0)
    flipped = NormalizedState(-v, 0.0, 0.0, 0)
    _, inc_a = apply_step(base, BERNOULLI, None, row_override=r)
    _, inc_b = apply_step(flipped, BERNOULLI, None, row_override=r)
    assert inc_a == inc_b


def test_weighted_offsets_vanish_at_c_zero():
    run = run_chain(BERNOULLI, 10_000, RngStream(12, 0), w=WeightParameter(0.0))
    assert np.max(np.abs(run.weighted_offsets)) <= 1e-12


def test_weighted_offsets_small_at_positive_c():
    n = 10_000
    run = run_chain(BERNOULLI, n, RngStream(12, 1), w=WeightParameter(0.01))
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
        run_chain(BERNOULLI, 1000, RngStream(0, 0), w=WeightParameter(0.02))
    with pytest.raises(ValueError):
        WeightParameter(-0.1)


@pytest.mark.parametrize("tol", [0.5, 2e-8, 0.0, -1.0, math.nan, math.inf])
def test_run_chain_rejects_trunc_tol_outside_range(tol):
    with pytest.raises(ValueError, match="trunc_tol"):
        run_chain(BERNOULLI, 100, RngStream(0, 0), trunc_tol=tol)


def test_run_chain_accepts_largest_trunc_tol():
    assert run_chain(BERNOULLI, 100, RngStream(0, 0), trunc_tol=MAX_TRUNC_TOL).increments.size == 100


def test_row_override_size_mismatch():
    with pytest.raises(ValueError):
        apply_step(initial_state(), BERNOULLI, None, row_override=np.array([1.0, -1.0]))


def _assert_same_run(a, b):
    assert np.array_equal(a.increments, b.increments)
    assert np.array_equal(a.checkpoint_steps, b.checkpoint_steps)
    assert np.array_equal(a.weighted_offsets, b.weighted_offsets)
    assert np.array_equal(a.tail_means, b.tail_means)
    fa, fb = a.final_state, b.final_state
    # bytes, not values: a -0.0 where the reference has 0.0 would print otherwise
    assert fa.coords.tobytes() == fb.coords.tobytes()
    assert fa.log_norm == fb.log_norm
    assert fa.log_norm_comp == fb.log_norm_comp
    assert fa.dropped_mass == fb.dropped_mass
    assert fa.step == fb.step
    assert (a.law, a.c, a.trunc_tol) == (b.law, b.c, b.trunc_tol)


def _streams(seed, count):
    return [RngStream(seed, 40 + j) for j in range(count)]


def _reference(law, n, rng, w=WeightParameter(0.0), trunc_tol=DEFAULT_TRUNC_TOL):
    return chain._run_reference(law, n, rng, w, trunc_tol)


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


@pytest.mark.parametrize("trunc_tol", [DEFAULT_TRUNC_TOL, MAX_TRUNC_TOL])
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("n", [100, 1000, 2500])
@pytest.mark.parametrize("c", [0.0, 0.005])
@pytest.mark.parametrize("law", [BERNOULLI, GAUSSIAN], ids=["bernoulli", "gaussian"])
def test_kernel_equals_reference_bit_for_bit(compiled, law, c, n, seed, trunc_tol):
    w = WeightParameter(c)
    run = run_chain(law, n, RngStream(seed, 7), w, trunc_tol)
    _assert_same_run(run, _reference(law, n, RngStream(seed, 7), w, trunc_tol))
    if trunc_tol == MAX_TRUNC_TOL and n >= 1000:
        assert run.final_state.dropped_mass > 0.0


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("n", [100, 1000])
@pytest.mark.parametrize("count", [1, 2, 8, 16])
@pytest.mark.parametrize("c", [0.0, 0.005])
@pytest.mark.parametrize("law", [BERNOULLI, GAUSSIAN], ids=["bernoulli", "gaussian"])
def test_run_chains_equals_run_chain_bit_for_bit(compiled, law, c, count, n, seed):
    w = WeightParameter(c)
    runs = run_chains(law, n, _streams(seed, count), w)
    assert len(runs) == count
    for j, run in enumerate(runs):
        _assert_same_run(run, _reference(law, n, RngStream(seed, 40 + j), w))


@pytest.mark.parametrize("trunc_tol", [DEFAULT_TRUNC_TOL, MAX_TRUNC_TOL])
def test_run_chains_matches_through_truncation_and_buffer_moves(compiled, trunc_tol):
    # the kernel's 512-entry buffer moves the live block to its end every
    # few hundred steps; the support rises from e0 and then shrinks
    # whenever the truncation walk drops a tail
    n = 2500
    runs = run_chains(BERNOULLI, n, _streams(5, 4), trunc_tol=trunc_tol)
    for j, run in enumerate(runs):
        _assert_same_run(run, _reference(BERNOULLI, n, RngStream(5, 40 + j), trunc_tol=trunc_tol))
        assert run.final_state.dropped_mass > 0.0
        assert run.final_state.coords.size < 200  # of the n + 1 the support would reach untruncated


def test_run_chains_matches_when_the_buffer_grows(compiled, monkeypatch):
    # from 16 entries the buffer doubles four or five times as the support grows to 100-130
    monkeypatch.setattr(chain, "_KERNEL_ROWS", 16)
    for c in (0.0, 0.005):
        runs = run_chains(GAUSSIAN, 600, _streams(9, 4), WeightParameter(c))
        for j, run in enumerate(runs):
            _assert_same_run(run, _reference(GAUSSIAN, 600, RngStream(9, 40 + j), WeightParameter(c)))


def test_iter_chains_batches_streams(monkeypatch):
    # one stream at a time: a run starts only when the caller asks for it
    started = []
    real = chain.run_chain

    def counted(law, n, rng, *args):
        started.append(rng.stream_id)
        return real(law, n, rng, *args)

    monkeypatch.setattr(chain, "run_chain", counted)
    runs = chain.iter_chains(BERNOULLI, 200, _streams(6, 11))
    for j in range(11):
        _assert_same_run(next(runs), _reference(BERNOULLI, 200, RngStream(6, 40 + j)))
        assert started == [40 + i for i in range(j + 1)]
    assert next(runs, None) is None


def test_run_chains_keeps_the_checks_of_run_chain(monkeypatch):
    with pytest.raises(ValueError, match="n must be"):
        run_chains(BERNOULLI, 99, _streams(0, 4))
    with pytest.raises(ValueError, match="trunc_tol"):
        run_chains(BERNOULLI, 100, _streams(0, 4), trunc_tol=1e-7)
    with pytest.raises(ValueError, match="c="):
        run_chains(BERNOULLI, 100, _streams(0, 4), WeightParameter(0.02))
    assert run_chains(BERNOULLI, 100, []) == []
    # a budget no drop fits: every trajectory's dropped mass is checked against it
    real = chain._check_run
    monkeypatch.setattr(chain, "_check_run", lambda *args: real(*args) * 1e-300)
    with pytest.raises(TruncationBudgetError):
        run_chain(BERNOULLI, 300, RngStream(0, 40))
    with pytest.raises(TruncationBudgetError):
        run_chains(BERNOULLI, 300, _streams(0, 4))


def test_run_chain_rejects_rows_past_the_counter_limb():
    # row 2^34 would need the second 64-bit limb of the Philox counter
    with pytest.raises(ValueError, match="2\\^34"):
        run_chain(BERNOULLI, 2**34, RngStream(0, 0))


def test_kernel_builds_into_the_cache_directory(compiled, fresh_kernel, tmp_path, monkeypatch):
    expected = run_chain(GAUSSIAN, 300, RngStream(4, 1), WeightParameter(0.005))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    chain._kernel.cache_clear()
    assert chain.chain_engine() == "compiled"
    built = list((tmp_path / "lyapunov_lab").iterdir())
    assert [p.suffix for p in built] == [".so"]  # the temporary file was renamed, none is left
    stamp = built[0].stat().st_mtime_ns
    _assert_same_run(run_chain(GAUSSIAN, 300, RngStream(4, 1), WeightParameter(0.005)), expected)
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
