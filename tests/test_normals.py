"""The kernel's normals against scipy's ndtri, bit for bit, and the loops that draw through them.

normals() in _chain_kernel.c is cephes ndtri, the algorithm behind
scipy.special.ndtri, run in passes over a block of words. These tests
compare it with scipy.special.ndtri(laws._uniforms(w)) on random words, on
3 words each side of every branch edge, and at both ends of the uniforms;
once as the build runs on this host (its x86-64 clone) and once built with
the clones turned off, as hosts below x86-64-v3 run it. Builds of mutated
sources show which defects those words catch.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri

from lyapunov_lab import chain, laws, recursion
from lyapunov_lab.cli import dispatch
from lyapunov_lab.laws import BERNOULLI, GAUSSIAN, ROW_CHUNK, RngStream, sample_rows

E2 = 0.13533528323661269189  # e^-2, as cephes writes it


def _uniform(m: int) -> float:
    return float(laws._uniforms(np.array([m << 11], dtype=np.uint64))[0])


def _first(pred) -> int:
    """The smallest 53-bit m whose uniform satisfies pred, which holds from some m on."""
    lo, hi = 0, 2**53 - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(_uniform(mid)):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _tail_x(y: float) -> float:
    return math.sqrt(-2.0 * math.log(y))


# the first m on the far side of each branch edge: the central fit holds for
# e^-2 < u <= 1 - e^-2, and the tail fit switches at x = sqrt(-2 log y) = 8,
# y = e^-32, where y is u or, above 1 - e^-2, 1 - u
EDGES = {
    "e^-2": lambda u: u > E2,
    "1-e^-2": lambda u: u > 1.0 - E2,
    "e^-32": lambda u: _tail_x(u) < 8.0,
    "1-e^-32": lambda u: _tail_x(1.0 - u) >= 8.0,
}


def _edge_words() -> np.ndarray:
    ms = []
    for pred in EDGES.values():
        m = _first(pred)
        ms += range(m - 3, m + 3)  # 3 words each side of the edge
    return np.array(ms, dtype=np.uint64) << np.uint64(11)


def _end_words() -> np.ndarray:
    """The 2,000 smallest and the 2,000 largest 53-bit values; the largest clamps to 1 - 2^-53."""
    ms = np.concatenate([np.arange(2000), np.arange(2**53 - 2000, 2**53)]).astype(np.uint64)
    return ms << np.uint64(11) | np.uint64(0x5A5)  # the low 11 bits are not read


def _random_words(count: int, seed: int = 26) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 2**64, size=count, dtype=np.uint64)


def _normals(lib, w: np.ndarray) -> np.ndarray:
    out = np.empty(w.size)
    lib.normals(w.ctypes.data, out.ctypes.data, w.size)
    return out


def _mismatches(lib, w: np.ndarray) -> int:
    return int(np.count_nonzero(_normals(lib, w).view(np.uint64) != ndtri(laws._uniforms(w)).view(np.uint64)))


def _build(tmp_path: Path, name: str, replace=None, flags=chain._KERNEL_FLAGS, defines=()):
    """The kernel source, with one text replaced where replace = (old, new), built and loaded from tmp_path."""
    source = chain._KERNEL_SOURCE.read_text()
    if replace is not None:
        old, new = replace
        assert source.count(old) == 1, f"{old!r} is not one line of the kernel"
        source = source.replace(old, new)
    src, lib = tmp_path / f"{name}.c", tmp_path / f"{name}.so"
    src.write_text(source)
    subprocess.run(["gcc", *flags, *defines, "-o", str(lib), str(src), "-lm"], check=True, capture_output=True)
    return chain._load(str(lib))


@pytest.fixture(scope="module")
def default_clone(tmp_path_factory):
    if chain._kernel() is None:
        pytest.skip("no C compiler: the reference loops run by themselves")
    return _build(tmp_path_factory.mktemp("default"), "default", defines=("-DKERNEL_NO_CLONES",))


@pytest.fixture(params=["host-clone", "default-clone"])
def kernel(request, compiled):
    return chain._kernel() if request.param == "host-clone" else request.getfixturevalue("default_clone")


def test_edge_words_straddle_each_branch_edge():
    for label, pred in EDGES.items():
        m = _first(pred)
        assert not pred(_uniform(m - 1)) and pred(_uniform(m)), label
    # the x < 8 switch lies within a word of e^-32 on both sides
    assert abs(_first(EDGES["e^-32"]) - math.exp(-32.0) * 2**53) < 2
    assert abs(2**53 - _first(EDGES["1-e^-32"]) - math.exp(-32.0) * 2**53) < 2


def test_no_uniform_lies_on_a_central_edge():
    # u is an odd multiple of 2^-54 below 1/4 and an even multiple of 2^-53 above 1/2, while
    # e^-2 is an even multiple of 2^-54 and 1 - e^-2 an odd multiple of 2^-53: no word
    # reaches either edge, so whether the tail test there reads <= or < changes no draw
    for label in ("e^-2", "1-e^-2"):
        m = _first(EDGES[label])
        edge = E2 if label == "e^-2" else 1.0 - E2
        assert _uniform(m - 1) < edge < _uniform(m), label


def test_normals_equal_scipy_on_random_words(kernel):
    for seed in range(4):  # 4 x 10^6 words, a million at a time
        assert _mismatches(kernel, _random_words(10**6, seed)) == 0


def test_normals_equal_scipy_at_the_edges_and_the_ends(kernel):
    w = _edge_words()
    assert w.size == 24 and _mismatches(kernel, w) == 0
    ends = _end_words()
    assert _mismatches(kernel, ends) == 0
    # the largest word clamps to the double below 1, whose normal is finite
    assert laws._uniforms(ends[-1:])[0] == 1.0 - 2.0**-53
    assert np.isfinite(_normals(kernel, ends)).all()


def test_normals_take_any_length(compiled):
    # the passes run in blocks of ROW_CHUNK words; a length that ends inside a block shows a lane left out
    lib, w = chain._kernel(), _random_words(3 * ROW_CHUNK + 7, seed=9)
    for m in (0, 1, ROW_CHUNK - 1, ROW_CHUNK, ROW_CHUNK + 1, w.size):
        out = np.full(w.size, np.nan)
        lib.normals(w.ctypes.data, out.ctypes.data, m)
        assert out[:m].tobytes() == ndtri(laws._uniforms(w[:m])).tobytes()
        assert np.isnan(out[m:]).all()


def _catch_words() -> np.ndarray:
    return np.concatenate([_edge_words(), _end_words(), _random_words(10**5)])


@pytest.mark.parametrize(
    "old, new",
    [
        ("(x < 8.0 ? near : far)", "(x < 8.125 ? near : far)"),  # the x < 8 threshold moved
        ("(x < 8.0 ? near : far)", "(x < 8.0 ? far : near)"),  # P1 and P2 swapped
    ],
    ids=["threshold-moved", "fits-swapped"],
)
def test_mutated_tail_fits_are_caught(compiled, tmp_path, old, new):
    lib = _build(tmp_path, "mutant", replace=(old, new))
    assert _mismatches(lib, _catch_words()) > 0
    assert not chain._normals_exact(lib)  # the load check falls back from this kernel


def test_a_strict_tail_test_at_e2_changes_no_word(compiled, tmp_path):
    # an equivalent mutation: test_no_uniform_lies_on_a_central_edge says why
    lib = _build(tmp_path, "strict", replace=("nt += y <= NDTRI_E2;", "nt += y < NDTRI_E2;"))
    assert _mismatches(lib, _catch_words()) == 0


def _host_has_fma() -> bool:
    try:
        return " fma " in Path("/proc/cpuinfo").read_text()
    except OSError:
        return False


@pytest.mark.skipif(not _host_has_fma(), reason="without FMA every clone rounds products and sums apart")
def test_vt_built_with_contraction_is_caught(compiled, tmp_path):
    flags = tuple("-ffp-contract=fast" if f == "-ffp-contract=off" else f for f in chain._KERNEL_FLAGS)
    assert flags != chain._KERNEL_FLAGS
    lib = _build(tmp_path, "contract", flags=flags)
    n = 300
    t, out = np.empty(n + 1), np.empty(n + 1)
    t[0], out[0] = 1.0, 0.0
    assert lib.vt_run(1, 0, n, t.ctypes.data, out.ctypes.data) == n
    assert out[1:].tobytes() != run_vt_reference(n, RngStream(1, 0))[1:].tobytes()


# --- the vt engines


def run_vt_reference(n: int, rng: RngStream) -> np.ndarray:
    """run_vt through _vt_reference, as it runs where the kernel's Gaussian draws do not load."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chain, "_kernel", lambda: None)
        return recursion.run_vt(n, rng)


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
@pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 513, 3000])
def test_vt_kernel_equals_reference_bit_for_bit(compiled, n, seed):
    # rows of 255 to 257 and 513 words end inside, at and past the kernel's 256-coordinate chunks
    out = recursion.run_vt(n, RngStream(seed, 11))
    assert out.tobytes() == run_vt_reference(n, RngStream(seed, 11)).tobytes()
    if n == 3000:
        # the sum of squares passed 2^128, so max |t| passed 2^64 and the state was renormalized
        assert out[-1] > 128 * math.log(2.0)


def test_vt_kernel_state_equals_reference_through_renormalizations(compiled):
    n = 600
    t, out = np.empty(n + 1), np.empty(n + 1)
    t[0], out[0] = 1.0, 0.0
    assert chain._kernel().vt_run(5, 2, n, t.ctypes.data, out.ctypes.data) == n
    t_ref, out_ref = np.empty(n + 1), np.empty(n + 1)
    t_ref[0], out_ref[0] = 1.0, 0.0
    assert recursion._vt_reference(n, RngStream(5, 2), t_ref, out_ref) == n
    assert t.tobytes() == t_ref.tobytes() and out.tobytes() == out_ref.tobytes()
    assert out[-1] > 2 * 128 * math.log(2.0)  # renormalized at least twice
    assert np.max(np.abs(t)) <= 2.0**64


def test_vt_pinned_digest_holds_on_the_reference_loop(monkeypatch):
    # tests/test_golden.py pins run_vt on the engine that loads; the same digest must come from the loop
    from test_golden import test_vt_run_is_pinned

    monkeypatch.setattr(chain, "_kernel", lambda: None)
    test_vt_run_is_pinned()


class _StopsShort:
    """A kernel whose vt_run reports that the divisor of step 6 fell below 1e-300."""

    normals_exact = True

    @staticmethod
    def vt_run(seed, stream, n, t, out):
        return 5


def test_vt_step_count_below_n_raises(monkeypatch, capsys):
    monkeypatch.setattr(chain, "_kernel", lambda: _StopsShort)
    with pytest.raises(recursion.DegenerateDivisorError, match="at step 6"):
        recursion.run_vt(100, RngStream(1, 0))
    assert dispatch(["gamma", "--model", "vt", "--n", "100"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "at step 6" in captured.err


def test_vt_reference_stops_at_a_degenerate_divisor(monkeypatch):
    rows = {k: np.ones(k) for k in range(1, 10)}
    rows[4] = np.array([1.0, 1.0, 1.0, 1e-301])
    monkeypatch.setattr(RngStream, "normals", lambda self, k: rows[self.counter // laws.ROW_STRIDE])
    t, out = np.empty(10), np.empty(10)
    t[0] = 1.0
    assert recursion._vt_reference(9, RngStream(0), t, out) == 3


# --- couple's rows


@pytest.mark.parametrize(
    "first, count, k",
    [
        (0, 1, 2), (0, 255, 2), (7, 257, 2), (0, 4096, 2), (4000, 4097, 2), (3, 300, 3), (9, 2, 513),
        (2**31 - 1, 3, 5), (2**32, 3, 2), (2**34 - 3, 3, 7),
    ],
)  # fmt: skip
def test_normal_rows_equal_sample_rows_bit_for_bit(compiled, first, count, k):
    # blocks of 256 words cross rows wherever k does not divide 256; 4096 is couple's chunk of rows;
    # rows 2^31 - 1 to 2^34 - 1 set the high bits of the block counter t << 30
    rows = chain.normal_rows(RngStream(2**64 - 1, 5), first, count, k)
    assert rows.shape == (count, k)
    assert rows.tobytes() == sample_rows(GAUSSIAN, RngStream(2**64 - 1, 5), first, count, k).tobytes()


def test_normal_rows_check_their_range(compiled):
    with pytest.raises(ValueError, match="nonnegative"):
        chain.normal_rows(RngStream(0), -1, 2, 2)
    with pytest.raises(ValueError, match="past the last row"):
        chain.normal_rows(RngStream(0), 2**34 - 1, 2, 2)


# --- fallbacks


@pytest.fixture
def normals_fail_their_check(monkeypatch):
    """A kernel whose normals fail the load check: only the Bernoulli chain and fib still run it."""
    if chain._kernel() is None:
        pytest.skip("no C compiler: the reference loops run by themselves")
    chain._kernel.cache_clear()
    monkeypatch.setattr(chain, "_normals_exact", lambda lib: False)
    yield
    chain._kernel.cache_clear()


def test_gaussian_draws_fall_back_when_the_normals_check_fails(normals_fail_their_check, capsys):
    assert chain.chain_engine(BERNOULLI) == "compiled"
    assert chain.chain_engine(GAUSSIAN) == "python" and chain.chain_engine() == "python"
    for law, engine in (("bernoulli", "compiled"), ("gaussian", "python")):
        assert dispatch(["simulate", "--model", "chain", "--law", law, "--n", "100"]) == 0
        assert json.loads(capsys.readouterr().out)["chain_engine"] == engine
    ran = []
    with pytest.MonkeyPatch.context() as mp:
        for module, name in ((chain, "_run_reference"), (recursion, "_vt_reference"), (chain, "sample_rows")):
            real = getattr(module, name)
            mp.setattr(module, name, lambda *a, real=real, name=name: ran.append(name) or real(*a))
        from test_golden import test_chain_run_is_pinned, test_coupling_trace_is_pinned, test_vt_run_is_pinned

        test_chain_run_is_pinned(GAUSSIAN, 0.0, 832, "296801e73af99ee9180ca68cbb06405ef92630215d5009acf6e996bdb3982e98")
        test_vt_run_is_pinned()
        test_coupling_trace_is_pinned(2000, 836, "da191583f8edc2de1a5fb07a6489e4e816d6d44e7c50a2cc3e10fc524095f066")
    assert ran == ["_run_reference", "_vt_reference", "sample_rows"]


def test_the_load_check_passes_on_the_kernel_that_runs(compiled):
    assert chain._kernel().normals_exact
    assert chain.chain_engine(GAUSSIAN) == chain.chain_engine(BERNOULLI) == "compiled"
    assert chain._check_words().size == 2 * 256 + 2 + 2 * 7 + 256


def test_a_gaussian_chain_imports_no_cython_special():
    # the kernel draws its own normals; scipy's C ndtri is no longer looked up through cython_special
    code = (
        "import sys; from lyapunov_lab.chain import run_chain; from lyapunov_lab.laws import GAUSSIAN, RngStream;"
        "run_chain(GAUSSIAN, 100, RngStream(1)); print('scipy.special.cython_special' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(chain.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr
