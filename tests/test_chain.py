import math
import subprocess

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from lyapunov_lab import chain
from lyapunov_lab.chain import (
    DEFAULT_TRUNC_TOL,
    MAX_TRUNC_TOL,
    MIN_TRUNC_TOL,
    TruncationBudgetError,
    run_chain,
    weighted_norm,
)
from lyapunov_lab.gaussian import couple
from lyapunov_lab.laws import BERNOULLI, GAUSSIAN, RngStream
from lyapunov_lab.recursion import run_exact, run_vt


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


# 1e-200 squared underflows to 0.0: the truncation walk would never drop
# anything, and the support would grow to n + 1
@pytest.mark.parametrize("tol", [0.5, 2e-8, 0.0, -1.0, math.nan, math.inf, 1e-200, math.nextafter(MIN_TRUNC_TOL, 0)])
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
    assert a.dropped_mass == b.dropped_mass


def _reference(law, n, rng, c=0.0, trunc_tol=DEFAULT_TRUNC_TOL):
    """run_chain through the reference loop, as it runs where no compiler is found."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chain, "_kernel", lambda: None)
        return run_chain(law, n, rng, c, trunc_tol)


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


@pytest.mark.parametrize("c", [0.0, 0.005])
@pytest.mark.parametrize("law", [BERNOULLI, GAUSSIAN], ids=["bernoulli", "gaussian"])
def test_kernel_equals_reference_when_a_row_spans_several_chunks(compiled, law, c):
    # at the smallest tolerance the support reaches 1254 (bernoulli) and 1345
    # (gaussian): each row spans several of the kernel's 256-coordinate
    # chunks, the 512-entry buffer doubles at least twice, and the final row ends
    # inside a Philox block of 4 words. Coordinates past about 130 fall
    # below the last bit of g, so the words of the later chunks are checked
    # on a flat state below.
    run = run_chain(law, 3000, RngStream(5, 40), c, MIN_TRUNC_TOL)
    _assert_same_run(run, _reference(law, 3000, RngStream(5, 40), c, MIN_TRUNC_TOL))
    assert run.coords.size > 2 * chain._KERNEL_ROWS
    assert run.coords.size % 4 != 0
    assert 0.0 < run.dropped_mass < 3000 * MIN_TRUNC_TOL


@pytest.mark.parametrize("law", [BERNOULLI, GAUSSIAN], ids=["bernoulli", "gaussian"])
def test_kernel_steps_equal_step_on_a_flat_state(compiled, law):
    # every coordinate of a flat state moves g, so a word drawn for the wrong
    # coordinate in any chunk of a row shows; 1001 coordinates span four
    # chunks and end inside a Philox block
    k, first, n = 1001, 1000, 1004
    coords = np.where(np.arange(k) % 3 == 0, -1.0, 1.0) / math.sqrt(k)
    expected, incs, rng = coords, [], RngStream(11, 2)
    for t in range(first, n):
        expected, inc, _ = chain._step(expected, law, rng, t, DEFAULT_TRUNC_TOL)
        incs.append(inc)

    fn = chain._kernel().chain_run
    cap = 4096
    z = np.zeros(cap)
    z[cap - k :] = coords
    increments, norms, tail = np.zeros(n), np.zeros(n), np.zeros(cap)
    ist = np.array([first, cap - k, k, 0], dtype=np.int64)
    dst = np.zeros(2)
    done = fn(
        11, 2, law is GAUSSIAN, n, n, DEFAULT_TRUNC_TOL, np.ones(cap).ctypes.data, 1,
        z.ctypes.data, tail.ctypes.data, cap, increments.ctypes.data, norms.ctypes.data,
        ist.ctypes.data, dst.ctypes.data,
    )  # fmt: skip
    assert done == n
    front, support = int(ist[1]), int(ist[2])
    assert z[front : front + support].tobytes() == expected.tobytes()
    assert increments[first:].tolist() == incs


def test_run_chain_matches_when_the_buffer_grows(compiled, monkeypatch):
    # from 16 entries the buffer doubles four or five times as the support grows to 100-130
    monkeypatch.setattr(chain, "_KERNEL_ROWS", 16)
    for c in (0.0, 0.005):
        for stream in range(40, 44):
            run = run_chain(GAUSSIAN, 600, RngStream(9, stream), c)
            _assert_same_run(run, _reference(GAUSSIAN, 600, RngStream(9, stream), c))


def _oracle(law, n, rng, c):
    """run_chain's bookkeeping written out step by step: (checkpoints, offsets, tail means, log norm).

    A checkpoint after every max(1, n // 100)-th step, tail sums over
    steps n // 2 + 1 .. n divided by their count, and log_norm summed left
    to right from 0.0; at odd n the tail window is n - n // 2 steps long.
    """
    coords = E0
    stride = max(1, n // 100)
    steps, offsets, tail, count, log_norm = [], [], np.zeros(0), 0, 0.0
    for t in range(n):
        coords, inc, _ = chain._step(coords, law, rng, t, DEFAULT_TRUNC_TOL)
        log_norm += inc
        if (t + 1) % stride == 0:
            steps.append(t + 1)
            offsets.append(math.log(weighted_norm(coords, c)))
        if t + 1 > n // 2:
            if coords.size > tail.size:
                tail = np.concatenate([tail, np.zeros(coords.size - tail.size)])
            tail[: coords.size] += np.abs(coords)
            count += 1
    return np.array(steps), np.array(offsets), tail / count, log_norm


def _run_on(engine, request, law, n, rng, c=0.0):
    """run_chain on the compiled kernel or on the reference loop."""
    if engine == "python":
        return _reference(law, n, rng, c)
    request.getfixturevalue("compiled")
    return run_chain(law, n, rng, c)


@pytest.mark.parametrize("engine", ["compiled", "python"])
@pytest.mark.parametrize("n", [1001, 2501])
@pytest.mark.parametrize("c", [0.0, 0.005])
@pytest.mark.parametrize("law", [BERNOULLI, GAUSSIAN], ids=["bernoulli", "gaussian"])
def test_run_chain_bookkeeping_matches_a_step_by_step_oracle(request, engine, law, c, n):
    # n is odd and not a multiple of 100, so a stride, a checkpoint count
    # or a tail divisor taken from the wrong half shows
    run = _run_on(engine, request, law, n, RngStream(21, 3), c)
    steps, offsets, tail_means, log_norm = _oracle(law, n, RngStream(21, 3), c)
    assert np.array_equal(run.checkpoint_steps, steps)
    assert np.array_equal(run.weighted_offsets, offsets)
    assert np.array_equal(run.tail_means, tail_means)
    assert run.log_norm == log_norm


@pytest.mark.parametrize("engine", ["compiled", "python"])
@pytest.mark.parametrize("law", [BERNOULLI, GAUSSIAN], ids=["bernoulli", "gaussian"])
def test_log_norm_is_the_left_to_right_sum_of_the_increments(request, engine, law):
    for stream in range(3):
        run = _run_on(engine, request, law, 5000, RngStream(13, stream))
        assert run.log_norm == float(np.add.accumulate(run.increments)[-1])


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
    # row 2^34 would need the second 64-bit limb of the Philox counter; the step cap stops far below it
    assert chain.CHAIN_STEP_CAP < 2**34
    with pytest.raises(ValueError, match="cap"):
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


def test_cached_kernel_loads_without_starting_a_process(compiled, monkeypatch):
    def no_process(*args, **kwargs):
        raise AssertionError(f"started a process: {args}")

    monkeypatch.setattr(subprocess, "run", no_process)
    assert chain._kernel.__wrapped__() is not None


# a gcc that fails to compile
FAILING_GCC = "#!/bin/sh\nexit 1\n"


@pytest.mark.parametrize("compiler", [None, FAILING_GCC], ids=["missing", "failing"])
def test_without_a_compiler_run_chain_falls_back_to_the_reference(fresh_kernel, tmp_path, monkeypatch, compiler):
    expected = [run_chain(law, 400, RngStream(2, 3), trunc_tol=MAX_TRUNC_TOL) for law in (BERNOULLI, GAUSSIAN)]
    # vt and couple draw their normals in the kernel too, and exact its signs
    vt, trace = run_vt(300, RngStream(2, 4)), couple(300, RngStream(2, 5))
    exact = run_exact(300, RngStream(2, 6)).values
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
    assert run_vt(300, RngStream(2, 4)).tobytes() == vt.tobytes()
    assert couple(300, RngStream(2, 5)).log_a2.tobytes() == trace.log_a2.tobytes()
    assert run_exact(300, RngStream(2, 6)).values == exact
    cache = tmp_path / "lyapunov_lab"
    assert not cache.exists() or not list(cache.iterdir())  # a failed build leaves no file behind
