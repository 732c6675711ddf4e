import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from lyapunov_lab.laws import (
    BERNOULLI,
    GAUSSIAN,
    ROW_STRIDE,
    CoefficientLaw,
    RngStream,
    _uniforms,
    draws,
    law_from_name,
    sample_row,
    sample_rows,
)
from lyapunov_lab.recursion import run_exact


def test_law_moments_exact():
    assert (BERNOULLI.sigma2, BERNOULLI.fourth_moment) == (1.0, 1.0)
    assert (GAUSSIAN.sigma2, GAUSSIAN.fourth_moment) == (1.0, 3.0)


def test_jensen_holds_for_both_laws():
    for law in CoefficientLaw:
        assert law.fourth_moment >= law.sigma2**2


def test_law_from_name():
    assert list(CoefficientLaw) == [BERNOULLI, GAUSSIAN]
    for law in CoefficientLaw:
        assert law_from_name(law.value) is law
    assert (BERNOULLI.value, GAUSSIAN.value) == ("bernoulli", "gaussian")
    with pytest.raises(ValueError, match="unknown law 'cauchy'"):
        law_from_name("cauchy")


def test_bernoulli_support():
    rng = RngStream(2024, 0)
    draws = sample_row(BERNOULLI, rng, 10_000)
    assert set(np.unique(draws)) == {-1.0, 1.0}


def test_bernoulli_second_moment_exact():
    rng = RngStream(2024, 1)
    draws = sample_row(BERNOULLI, rng, 1_000_000)
    assert float(np.mean(draws * draws)) == 1.0


def test_gaussian_mean_within_band():
    # 3 sigma / sqrt(N) band for N = 1e6 standard normals, widened to 0.004
    rng = RngStream(2024, 2)
    draws = sample_row(GAUSSIAN, rng, 1_000_000)
    assert abs(float(np.mean(draws))) < 0.004


def test_gaussian_second_moment_within_band():
    # Var(eps^2) = 2 for a standard normal, so 3 sigma band is 3*sqrt(2)/1e3
    rng = RngStream(2024, 3)
    draws = sample_row(GAUSSIAN, rng, 1_000_000)
    assert abs(float(np.mean(draws * draws)) - 1.0) < 3.0 * math.sqrt(2.0) / 1e3


def test_sample_row_advances_counter_by_its_length():
    rng = RngStream(7, 0)
    for law in (BERNOULLI, GAUSSIAN):
        for k in (1, 5):
            before = rng.counter
            sample_row(law, rng, k)
            assert rng.counter == before + k


def _at(seed: int, stream: int, row: int, off: int) -> RngStream:
    """A stream positioned at word `off` of row `row`."""
    rng = RngStream(seed, stream)
    rng.seek_row(row)
    rng.words(off)
    return rng


def test_identical_coordinates_identical_draw():
    a = sample_row(GAUSSIAN, _at(99, 5, 3, 1234), 1)
    b = sample_row(GAUSSIAN, _at(99, 5, 3, 1234), 1)
    assert a == b


def test_mid_stream_reconstruction():
    whole = RngStream(7, 3).words(64)
    tail = _at(7, 3, 0, 17).words(47)
    assert np.array_equal(whole[17:], tail)


def test_seek_row():
    r = RngStream(7, 3)
    r.words(29)
    r.seek_row(5)
    assert r.counter == 5 * ROW_STRIDE
    assert np.array_equal(r.words(8), _at(7, 3, 5, 0).words(8))


def test_backward_seek():
    r = RngStream(11, 0)
    r.seek_row(2)
    first = r.words(12).copy()
    r.seek_row(2)
    assert np.array_equal(r.words(12), first)


def test_streams_do_not_interfere():
    a = RngStream(42, 0)
    ref = RngStream(42, 0).words(16)
    b = RngStream(42, 1)
    b.words(1000)  # advancing b must not move a
    assert np.array_equal(a.words(16), ref)


def test_distinct_streams_uncorrelated():
    n = 100_000
    streams = [RngStream(314159, sid).uniforms(n) for sid in (0, 1, 2)]
    for i in range(3):
        for j in range(i + 1, 3):
            corr = np.corrcoef(streams[i], streams[j])[0, 1]
            assert abs(corr) < 0.01


def test_uniforms_in_open_interval():
    u = RngStream(5, 0).uniforms(100_000)
    assert u.min() > 0.0 and u.max() < 1.0


def test_extreme_words_give_finite_draws():
    # the top 53 bits m = 2^53 - 1 would round m 2^-53 + 2^-54 up to 1.0, whose
    # inverse normal CDF is +inf; m = 0 gives the smallest uniform, 2^-54
    w = np.array([(2**53 - 1) << 11, ((2**53 - 1) << 11) | 0x7FF, 0, 0x7FF], dtype=np.uint64)
    u = _uniforms(w)
    assert u.tolist() == [1.0 - 2.0**-53] * 2 + [2.0**-54] * 2
    normals = draws(GAUSSIAN, w)
    assert np.all(np.isfinite(normals)) and normals[0] > 8.0 and normals[2] < -8.0


def test_uniform_clamp_moves_no_other_word():
    m = np.array([0, 1, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 3, 2**53 - 2], dtype=np.uint64)
    w = np.concatenate([m << np.uint64(11), RngStream(9, 1).words(10_000)])
    unclamped = (w >> np.uint64(11)) * 2.0**-53 + 2.0**-54
    assert np.array_equal(_uniforms(w), unclamped) and unclamped.max() < 1.0
    assert _uniforms(np.array([2**52 << 11], dtype=np.uint64))[0] == 0.5  # so a vt divisor can be exactly 0


@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    stream=st.integers(min_value=0, max_value=2**64 - 1),
    row=st.integers(min_value=0, max_value=2**34 - 1),
    off=st.integers(min_value=0, max_value=64),
)
@settings(max_examples=50, deadline=None)
def test_words_pure_function_of_coordinates(seed, stream, row, off):
    a = _at(seed, stream, row, off).words(5)
    b = _at(seed, stream, row, off).words(5)
    assert np.array_equal(a, b)


def test_invalid_stream_parameters():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(0, 2**64)
    for row in (-1, 2**34):  # rows run from 0 to 2^34 - 1, as in rows()
        with pytest.raises(ValueError):
            RngStream(0).seek_row(row)
    # non-integers are refused, not truncated
    with pytest.raises(TypeError):
        RngStream(7.9, 1)
    with pytest.raises(TypeError):
        RngStream(7, 1.5)
    with pytest.raises(TypeError):
        RngStream(0).seek_row(2.5)


# Words of rows 0, 1 and 2^34 - 1 as literals, so that a change moving
# words(), rows() and the chain kernel together still fails here.
_PINNED_WORDS = {
    (0, 0, 0): [
        213000021201967259, 4455796210202625458, 2055444239878205049,
        10411612076246414556, 9267267987884836803,
    ],
    (0, 0, 1): [
        499922524873502308, 3842603498461521109, 12429712344940164910,
        6773937627398711036, 3390191599376806495,
    ],
    (0, 0, 2**34 - 1): [
        10391452580944758560, 15173420100519039972, 1531860029085141480,
        16501188089623932632, 1695532369748038037,
    ],
    (2**64 - 1, 2**63 + 5, 0): [
        319537823105053100, 12666818562362855042, 8837510668638714572,
        750400251969646206, 12952406051412542523,
    ],
    (2**64 - 1, 2**63 + 5, 1): [
        17060806127204926041, 6912116680023266932, 3308246816085493434,
        10332647667652009372, 2461765651913611773,
    ],
    (2**64 - 1, 2**63 + 5, 2**34 - 1): [
        18391930583064190635, 10939621779022127302, 14621448952883585406,
        4524653913619313858, 7970875172550512164,
    ],
}


@pytest.mark.parametrize("seed, stream, row", list(_PINNED_WORDS))
def test_row_words_are_pinned(seed, stream, row):
    rng = RngStream(seed, stream)
    rng.seek_row(row)
    assert rng.words(5).tolist() == _PINNED_WORDS[seed, stream, row]
    assert rng.rows(row, 1, 5)[0].tolist() == _PINNED_WORDS[seed, stream, row]


def test_exact_run_is_pinned():
    values = run_exact(300, RngStream(1_000_003, 800)).values
    digest = hashlib.sha256("\n".join(str(v) for v in values).encode()).hexdigest()
    assert digest == "b8434be445396b35815993e51b2f57cd472b4ff026146b04530f3bee8caccbe3"


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("stream", [0, 2**63 + 5])
@pytest.mark.parametrize("first", [0, 1, 2**34 - 2])
def test_rows_match_seek_row_and_words(seed, stream, first):
    rng = RngStream(seed, stream)
    rng.words(17)
    for k in (1, 2, 3, 4, 5, 130):
        got = rng.rows(first, 2, k)
        assert got.shape == (2, k) and got.dtype == np.uint64
        for i in range(2):
            ref = RngStream(seed, stream)
            ref.seek_row(first + i)
            assert np.array_equal(got[i], ref.words(k))
    assert rng.counter == 17  # rows() does not move the stream


def test_sample_rows_match_sample_row():
    rng = RngStream(31, 4)
    for law in (BERNOULLI, GAUSSIAN):
        for k in (1, 2, 7):
            got = sample_rows(law, rng, 100, 9, k)
            for i in range(9):
                rng.seek_row(100 + i)
                assert np.array_equal(got[i], sample_row(law, rng, k))


def test_rows_empty_and_rejected():
    rng = RngStream(1, 2)
    assert rng.rows(5, 0, 3).shape == (0, 3)
    assert rng.rows(5, 3, 0).shape == (3, 0)
    rng.rows(2**34 - 1, 1, 2)  # the last row that fits
    with pytest.raises(ValueError):
        rng.rows(2**34, 1, 2)
    with pytest.raises(ValueError):
        rng.rows(2**34 - 1, 2, 2)
    for args in ((-1, 1, 2), (0, -1, 2), (0, 1, -1)):
        with pytest.raises(ValueError):
            rng.rows(*args)


def test_words_match_philox_advance():
    from numpy.random import Philox

    # blocks 5 and 12 of row 0, and the first block of the last row, 2^64 - 2^30
    for row, block in ((0, 5), (2**34 - 1, 2**64 - 2**30), (0, 12)):
        rng = _at(8, 2, row, (block - row * 2**30) * 4 + 1)
        ref = Philox(key=np.array([8, 2], dtype=np.uint64))
        ref.advance(block)
        assert np.array_equal(rng.words(9), ref.random_raw(12)[1:10])


def test_draws_map_words_like_sample_row():
    rng = RngStream(4, 1)
    for law in (BERNOULLI, GAUSSIAN):
        rng.seek_row(6)
        w = rng.words(11)
        rng.seek_row(6)
        assert np.array_equal(draws(law, w), sample_row(law, rng, 11))
        assert draws(law, np.stack([w, w])).shape == (2, 11)
