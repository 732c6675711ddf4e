import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from lyapunov_lab import chain, recursion, verification
from lyapunov_lab.laws import ROW_CHUNK, RngStream
from lyapunov_lab.recursion import (
    EXACT_STEP_CAP,
    FIB_STEP_CAP,
    VT_STEP_CAP,
    log_norms,
    run_exact,
    run_exact_float,
    run_fibonacci,
    run_vt,
)
from lyapunov_lab.util import log_abs_bigint
from lyapunov_lab.verification import GAMMA_FIB_ORACLE, _signed_sums

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _scripted_rows(mp, signs):
    """Make the recursions draw their coefficient rows from `signs`, in order.

    fib runs its reference loop, since the compiled kernel draws its own rows.
    """
    it = iter(signs)
    mp.setattr(chain, "_kernel", lambda: None)

    def take(count, k):
        return np.array([next(it) for _ in range(count * k)], dtype=float).reshape(count, k)

    mp.setattr(recursion, "sample_row", lambda law, rng, k: take(1, k)[0])
    mp.setattr(recursion, "sample_rows", lambda law, rng, first, count, k: take(count, k))

def test_all_plus_doubles(monkeypatch):
    # x[k+1] = +-S_k: all plus doubles the running sum, all minus cancels it
    for n in (1, 2, 10, 300):
        _scripted_rows(monkeypatch, itertools.repeat(1))
        assert run_exact(n, RngStream(0)).values == [1] + [2 ** max(k - 1, 0) for k in range(1, n + 1)]
        _scripted_rows(monkeypatch, itertools.repeat(-1))
        assert run_exact(n, RngStream(0)).values == [1, -1] + [0] * (n - 1)


@pytest.mark.parametrize(
    "seed, stream, n",
    [
        (0, 0, 1), (5, 2, 1), (0, 0, 2), (31, 7, 2), (1, 0, 3),
        (17, 1, 64), (2024, 3, 257), (1_000_003, 300, 400), (2**64 - 1, 11, 650),
    ],
)
def test_exact_matches_term_by_term_signed_sum(seed, stream, n):
    # the oracle of exact_determinism: the signed sum of the recursion, one term at a time
    assert run_exact(n, RngStream(seed, stream)).values == _signed_sums(n, RngStream(seed, stream))


@pytest.mark.parametrize("seed, stream", [(0, 0), (7, 3), (2**64 - 1, 2**63 + 5)])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 1500, EXACT_STEP_CAP])
def test_exact_kernel_equals_reference_bit_for_bit(compiled, n, seed, stream):
    traj = run_exact(n, RngStream(seed, stream))
    reference = recursion._exact_reference(n, RngStream(seed, stream))
    assert traj.values == reference
    assert traj.log_norm_series().tobytes() == recursion.ExactTrajectory(reference).log_norm_series().tobytes()
    if n < EXACT_STEP_CAP or stream == 3:  # the term-by-term sum takes about 3 s at the cap
        assert traj.values == _signed_sums(n, RngStream(seed, stream))
    if n >= 1500:
        # the values passed 64 and 128 bits, so the sums carried across limbs and the live limbs grew
        assert max(v.bit_length() for v in traj.values) > 128


def test_exact_kernel_default_clone_equals_the_host_clone(compiled, tmp_path):
    # hosts below x86-64-v3 run the default clone of exact_run
    from test_normals import _build

    lib = _build(tmp_path, "default", defines=("-DKERNEL_NO_CLONES",))
    for seed, stream, n in ((0, 0, 5), (7, 3, 700), (2**64 - 1, 11, 2000)):
        assert recursion._exact_compiled(lib, n, RngStream(seed, stream)) == run_exact(n, RngStream(seed, stream)).values


# mutations of exact_run, each a text of _chain_kernel.c and its replacement
EXACT_MUTATIONS = {
    "headroom-dropped": ("int64_t m = live + 1;", "int64_t m = live;"),
    "carry-dropped": (
        "__uint128_t p = (__uint128_t)lo + ((__uint128_t)hi << 32) + carry;",
        "__uint128_t p = (__uint128_t)lo + ((__uint128_t)hi << 32);",
    ),
    "sign-from-bit-62": ("mask[k - b - i] = (word[i] >> 63) - 1;", "mask[k - b - i] = (word[i] >> 62 & 1) - 1;"),
}


@pytest.mark.parametrize("mutation", EXACT_MUTATIONS)
def test_mutated_exact_kernels_are_caught(compiled, tmp_path, monkeypatch, mutation):
    from test_normals import _build

    lib = _build(tmp_path, mutation, replace=EXACT_MUTATIONS[mutation])
    assert recursion._exact_compiled(lib, 300, RngStream(0, 0)) != recursion._exact_reference(300, RngStream(0, 0))
    # verify's exact_determinism checks run_exact against numpy's Philox, not the kernel's
    lib.normals_exact = True
    monkeypatch.setattr(chain, "_kernel", lambda: lib)
    assert not verification.check_exact_determinism().passed


def test_first_step_is_a_sign():
    for seed in range(5):
        traj = run_exact(1, RngStream(seed))
        assert abs(traj.values[1]) == 1


def test_exact_matches_independent_resummation():
    # oracle: regenerate every row from the same coordinates and redo the
    # signed sums in a separate loop, then compare whole trajectories
    n, seed, stream = 200, 424242, 9
    traj = run_exact(n, RngStream(seed, stream))

    oracle = [1]
    rng = RngStream(seed, stream)
    for k in range(n):
        rng.seek_row(k)
        w = rng.words(k + 1)
        total = 0
        for i in range(k + 1):
            sign = 1 if (int(w[i]) >> 63) == 0 else -1
            total += sign * oracle[k - i]
        oracle.append(total)
    assert traj.values == oracle


def test_parity_invariant_random_runs():
    for stream in range(10):
        values = run_exact(120, RngStream(77, stream)).values
        running = values[0]
        for k in range(1, len(values)):
            assert (values[k] - running) % 2 == 0
            running += values[k]


@given(signs=st.lists(st.sampled_from([1, -1]), min_size=15, max_size=15))
@settings(max_examples=40, deadline=None)
def test_parity_invariant_any_signs(signs):
    # 15 signs feed rows of sizes 1..5 for a 5-step run
    with pytest.MonkeyPatch.context() as mp:  # hypothesis reruns the body, so no function-scoped fixture
        _scripted_rows(mp, signs)
        values = run_exact(5, RngStream(0)).values
    running = values[0]
    for k in range(1, len(values)):
        assert (values[k] - running) % 2 == 0
        running += values[k]


def test_vt_step_cap():
    with pytest.raises(ValueError, match="cap"):
        run_vt(VT_STEP_CAP + 1, RngStream(0))
    assert VT_STEP_CAP >= 10_000  # check_vt_log4 runs n = 10,000


def test_exact_step_cap():
    with pytest.raises(ValueError, match="cap"):
        run_exact(EXACT_STEP_CAP + 1, RngStream(0))
    assert len(run_exact(5, RngStream(0)).values) == 6


def test_float_path_matches_exact():
    n, seed = 500, 3131
    exact = run_exact(n, RngStream(seed, 0))
    flt = run_exact_float(n, RngStream(seed, 0))
    assert abs(log_abs_bigint(exact.values[n]) - flt[n]) <= 1e-8 * n


def test_float_path_same_signs_as_exact(monkeypatch):
    signs = [1, -1, 1, 1, -1, -1, 1, -1, 1, 1]
    _scripted_rows(monkeypatch, signs)
    exact = run_exact(4, RngStream(0))
    _scripted_rows(monkeypatch, signs)
    flt = run_exact_float(4, RngStream(0))
    assert exact.values == [1, 1, 0, -2, 0]
    assert np.allclose(flt, exact.log_abs_series())


def test_vt_forced_cancellation_at_step_one():
    # t1 = a11 t0 / a11 = 1, so the running sum of squares is exactly 2
    out = run_vt(1, RngStream(123, 0))
    assert out[1] == pytest.approx(math.log(2.0), abs=1e-12)


def test_vt_replay_bit_identical():
    a = run_vt(500, RngStream(55, 1))
    b = run_vt(500, RngStream(55, 1))
    assert np.array_equal(a, b)


def test_vt_renormalization_matches_a_loop_that_never_renormalizes():
    # at n = 300 the sum of squares stays far below the float overflow at
    # e^709.8, while max |t| passes 2^192, so run_vt renormalizes three times or more
    n = 300
    rng = RngStream(8, 0)
    t = np.empty(n + 1)
    t[0] = 1.0
    plain = np.empty(n + 1)
    plain[0] = 0.0
    for k in range(1, n + 1):
        rng.seek_row(k)
        row = rng.normals(k)
        t[k] = (row @ t[k - 1 :: -1]) / row[k - 1]
        plain[k] = math.log(float(t[: k + 1] @ t[: k + 1]))
    assert math.log(float(np.max(np.abs(t)))) > 3 * 64 * math.log(2.0)
    assert np.max(np.abs(run_vt(n, RngStream(8, 0)) - plain)) < 1e-9 * n


def test_vt_single_run_rate_band():
    n = 10_000
    out = run_vt(n, RngStream(1618, 0))
    assert 1.30 < out[-1] / n < 1.48


def test_fibonacci_classical_growth(monkeypatch):
    _scripted_rows(monkeypatch, itertools.repeat(1))
    n = 10_000
    out = run_fibonacci(n, RngStream(0))
    assert out[-1] / n == pytest.approx(math.log(GOLDEN), abs=1e-3)


def test_fibonacci_zero_hit_recorded_and_survived(monkeypatch):
    # signs (+1, -1) at the first step force f2 = 1 - 1 = 0
    _scripted_rows(monkeypatch, [1, -1, 1, 1, 1, 1])
    out = run_fibonacci(4, RngStream(0))
    assert out[2] == float("-inf")
    assert np.isfinite(out[3])


def test_fibonacci_pair_log_norm_survives_zeros(monkeypatch):
    # f2 = 0 as above: log|f_k| holds a -inf, the pair norm ||(f_k, f_{k-1})|| does not
    _scripted_rows(monkeypatch, [1, -1, 1, 1, 1, 1])
    norms = log_norms("fib", 4, RngStream(0))
    f = [1, 1, 0, 1, 1]
    assert norms.size == 4
    assert np.allclose(norms, [0.5 * math.log(f[k] ** 2 + f[k - 1] ** 2) for k in range(1, 5)], rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 300])
def test_exact_log_norm_series_ends_at_the_l2_norm_of_the_history(n):
    traj = run_exact(n, RngStream(31, 4))
    series = traj.log_norm_series()
    assert series.size == n + 1
    assert series[-1] == 0.5 * log_abs_bigint(sum(v * v for v in traj.values))
    assert series[0] == 0.0
    assert np.all(np.diff(series) >= 0.0)  # the history only gains entries


def test_log_norms_of_exact_and_vt_are_their_own_series():
    assert np.array_equal(log_norms("exact", 50, RngStream(3, 1)), run_exact(50, RngStream(3, 1)).log_norm_series())
    assert np.array_equal(log_norms("vt", 50, RngStream(3, 1)), run_vt(50, RngStream(3, 1)))
    with pytest.raises(ValueError, match="no recursion named 'chain'"):
        log_norms("chain", 50, RngStream(3, 1))


def test_fibonacci_random_rate_matches_oracle():
    # log of Viswanath's constant; the band covers a single run's spread
    n = 1_000_000
    out = run_fibonacci(n, RngStream(271828, 0))
    assert out[-1] / n == pytest.approx(GAMMA_FIB_ORACLE, abs=0.005)


def _fibonacci_per_row(n: int, rng: RngStream) -> np.ndarray:
    # reference: one seek_row + signs(2) per step
    out = np.empty(n + 1)
    out[0] = out[1] = 0.0
    a, b = 1.0, 1.0
    log_scale = 0.0
    for k in range(1, n):
        rng.seek_row(k)
        e = rng.signs(2)
        a, b = e[0] * a + e[1] * b, a
        aa = abs(a)
        out[k + 1] = log_scale + (math.log(aa) if aa > 0.0 else float("-inf"))
        m = max(aa, abs(b))
        if m > 2.0**64 or m < 2.0**-64:
            a /= m
            b /= m
            log_scale += math.log(m)
    return out


def _reference_fibonacci(n: int, rng: RngStream) -> np.ndarray:
    """run_fibonacci through the reference loop, as it runs where the kernel cannot be built."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chain, "_kernel", lambda: None)
        return run_fibonacci(n, rng)


@pytest.mark.parametrize("n", [ROW_CHUNK - 1, ROW_CHUNK, ROW_CHUNK + 1, ROW_CHUNK + 2, 20_000])
def test_fibonacci_chunked_rows_match_per_row_loop(n):
    out = _reference_fibonacci(n, RngStream(2718, 3))
    assert np.array_equal(out, _fibonacci_per_row(n, RngStream(2718, 3)))


@pytest.mark.parametrize(
    "seed, stream, n",
    [(0, 0, 2), (1, 0, 3), (7, 3, 100), (1_000_003, 834, 2000), (5, 9, 20_000), (271828, 0, 200_000)],
)
def test_fibonacci_kernel_equals_reference_bit_for_bit(compiled, seed, stream, n):
    out = run_fibonacci(n, RngStream(seed, stream))
    assert out.tobytes() == _reference_fibonacci(n, RngStream(seed, stream)).tobytes()


def test_fibonacci_kernel_matches_through_zeros_and_renormalizations(compiled):
    # stream 11 of seed 2^64 - 1 hits f = 0 five times in 12,293 steps, and
    # a run renormalizes at 2^64 every 360 steps or so
    n = 3 * ROW_CHUNK + 5
    out = run_fibonacci(n, RngStream(2**64 - 1, 11))
    assert np.count_nonzero(np.isneginf(out)) == 5
    assert out[-1] > 64 * math.log(2.0)
    assert out.tobytes() == _reference_fibonacci(n, RngStream(2**64 - 1, 11)).tobytes()


def test_fibonacci_pinned_digest_holds_on_the_reference_loop(monkeypatch):
    # tests/test_golden.py pins run_fibonacci on the engine that builds; the same digest must come from the loop
    from test_golden import test_fibonacci_run_is_pinned

    monkeypatch.setattr(chain, "_kernel", lambda: None)
    test_fibonacci_run_is_pinned()


def test_fibonacci_scripted_rows_span_chunks(monkeypatch):
    n = ROW_CHUNK + 3
    signs = [1 if (i * 7) % 3 else -1 for i in range(2 * (n - 1))]
    _scripted_rows(monkeypatch, signs)
    out = run_fibonacci(n, RngStream(0))
    a, b, ref = 1, 1, [0.0, 0.0]
    for k in range(n - 1):
        a, b = signs[2 * k] * a + signs[2 * k + 1] * b, a
        ref.append(log_abs_bigint(a) if a else float("-inf"))
    assert np.allclose(out, ref, rtol=0, atol=1e-9 * n)


def test_preconditions():
    with pytest.raises(ValueError):
        run_exact(0, RngStream(0))
    with pytest.raises(ValueError):
        run_fibonacci(1, RngStream(0))
    with pytest.raises(ValueError, match="cap"):
        run_fibonacci(FIB_STEP_CAP + 1, RngStream(0))
    with pytest.raises(ValueError):
        run_vt(0, RngStream(0))
