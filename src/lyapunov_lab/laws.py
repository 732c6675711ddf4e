"""Coefficient laws and the counter-based random stream they draw from.

Every simulation in this package consumes randomness through RngStream,
whose output is a pure function of (seed, stream_id, counter). That makes
whole trajectories replayable bit-for-bit and lets independent trajectories
run on separate streams without any shared state.
"""

from __future__ import annotations

import operator
from enum import Enum

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

__all__ = [
    "CoefficientLaw",
    "RngStream",
    "BERNOULLI",
    "GAUSSIAN",
    "law_from_name",
    "sample_row",
    "sample_rows",
    "draws",
    "ROW_STRIDE",
    "ROW_CHUNK",
]


class CoefficientLaw(Enum):
    """A zero-mean coefficient distribution with its exact moments.

    sigma2 is the variance, fourth_moment the fourth moment. Both laws
    shipped here are symmetric, so the mean is zero by construction.
    """

    BERNOULLI = "bernoulli"
    GAUSSIAN = "gaussian"

    @property
    def sigma2(self) -> float:
        return 1.0

    @property
    def fourth_moment(self) -> float:
        return 1.0 if self is BERNOULLI else 3.0


BERNOULLI = CoefficientLaw.BERNOULLI
GAUSSIAN = CoefficientLaw.GAUSSIAN


def law_from_name(name: str) -> CoefficientLaw:
    try:
        return CoefficientLaw(name)
    except ValueError:
        raise ValueError(f"unknown law {name!r}; expected 'bernoulli' or 'gaussian'") from None


_BLOCK = 4  # Philox-4x64 emits four 64-bit words per counter tick

ROW_STRIDE = 1 << 32
"""Word spacing between per-step rows.

Simulations that draw one coefficient row per step address row k at word
position k * ROW_STRIDE (see RngStream.seek_row). A row therefore always
starts at the same counter position no matter how many words earlier steps
actually consumed, which keeps different evaluation paths of the same
recursion (exact, floating-point, normalized) on identical coefficients.
"""

ROW_CHUNK = 4096
"""Rows per RngStream.rows call in the loops over short rows.

Large enough that the per-call cost of the vectorized Philox is spread
thin, small enough that a chunk's temporaries stay a few hundred KB
instead of growing with the length of the run.
"""

# Philox-4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
# 3", SC'11): the two round multipliers and the Weyl increments of the key
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_BLOCKS_PER_ROW = ROW_STRIDE // _BLOCK
_ROWS = 1 << 34  # rows 0 .. 2^34 - 1: their blocks' counter values fit one 64-bit limb


def _mulhilo(a: np.ndarray, m: np.uint64) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit halves of the 128-bit products a * m, by 32-bit limbs."""
    m0, m1 = m & _LO32, m >> _S32
    a0, a1 = a & _LO32, a >> _S32
    p00, p01, p10 = a0 * m0, a0 * m1, a1 * m0
    mid = (p00 >> _S32) + (p01 & _LO32) + (p10 & _LO32)
    hi = a1 * m1 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32)
    return hi, a * m


def _philox4x64(counter: np.ndarray, key: tuple[int, int]) -> np.ndarray:
    """Philox-4x64-10 blocks of the counters (c, 0, 0, 0); shape (counter.size, 4)."""
    zero = np.zeros_like(counter)
    c0, c1, c2, c3 = counter, zero, zero, zero
    for r in range(_PHILOX_ROUNDS):
        # the key is bumped in Python integers: numpy warns when scalars wrap
        k0 = np.uint64((key[0] + r * _PHILOX_W[0]) % (1 << 64))
        k1 = np.uint64((key[1] + r * _PHILOX_W[1]) % (1 << 64))
        hi0, lo0 = _mulhilo(c0, _PHILOX_M[0])
        hi1, lo1 = _mulhilo(c2, _PHILOX_M[1])
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack((c0, c1, c2, c3), axis=1)


_SIGN_OF_TOP_BIT = np.array([1.0, -1.0])


def _signs(w: np.ndarray) -> np.ndarray:
    """-1.0 where the word's top bit is set, +1.0 elsewhere."""
    return _SIGN_OF_TOP_BIT.take(w >> np.uint64(63))  # a lookup: half the cost of 1 - 2 * bit


_BELOW_ONE = 1.0 - 2.0**-53  # the largest double below 1


def _uniforms(w: np.ndarray) -> np.ndarray:
    """The word's top 53 bits m as a uniform on the open interval (0, 1).

    u = m 2^-53 + 2^-54, rounded to the nearest double. Only m = 2^53 - 1
    rounds up to 1.0, a tie broken to even, where the inverse normal CDF
    is +inf; that one word is clamped to the largest double below 1, and
    every other word keeps its value bit for bit.
    """
    u = (w >> np.uint64(11)) * 2.0**-53
    u += 2.0**-54  # in place, so the clamp adds a pass over u but no allocation
    return np.minimum(u, _BELOW_ONE, out=u)


class RngStream:
    """Counter-based random stream backed by Philox-4x64.

    The word at counter position c is a pure function of
    (seed, stream_id, c). Exactly one 64-bit word is consumed per variate:
    signs use the word's top bit, uniforms the top 53 bits, and normals go
    through the inverse normal CDF of that uniform. A new stream starts at
    counter 0; seek_row() is O(1), so per-step row addressing costs nothing
    beyond a counter jump.
    """

    __slots__ = ("seed", "stream_id", "counter", "_bg", "_state")

    def __init__(self, seed: int, stream_id: int = 0):
        seed, stream_id = operator.index(seed), operator.index(stream_id)
        if not (0 <= seed < 1 << 64 and 0 <= stream_id < 1 << 64):
            raise ValueError("seed and stream_id must be unsigned 64-bit integers")
        self.seed = seed
        self.stream_id = stream_id
        self.counter = 0
        self._bg = Philox(key=np.array([seed, stream_id], dtype=np.uint64))
        self._state = self._bg.state  # template for words(); its buffer is empty

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id}, counter={self.counter})"

    def seek_row(self, row: int) -> None:
        """Position at the start of per-step row `row` (word row * ROW_STRIDE), 0 <= row < 2^34."""
        row = operator.index(row)
        if not 0 <= row < _ROWS:
            raise ValueError(f"row must lie in [0, 2^34), got {row}")
        self.counter = row * ROW_STRIDE

    def words(self, k: int) -> np.ndarray:
        """Next k raw 64-bit words; advances the counter by exactly k.

        Every call jumps the generator to the counter's block. numpy's
        Philox increments its counter before each block, so block b comes
        from counter value b + 1, and the counter's low limb is set to b
        (its high limbs stay 0). Setting the state costs about half of a
        Philox.advance and goes back as easily as forward.
        """
        if k < 0:
            raise ValueError("k must be nonnegative")
        block, off = divmod(self.counter, _BLOCK)
        self._state["state"]["counter"][0] = block
        self._bg.state = self._state
        raw = self._bg.random_raw((off + k + _BLOCK - 1) // _BLOCK * _BLOCK)
        self.counter += k
        return raw[off : off + k]

    def rows(self, first: int, count: int, k: int) -> np.ndarray:
        """The first k words of rows first .. first+count-1, shape (count, k).

        Row r of the result equals seek_row(first + r) followed by words(k),
        bit for bit, but all rows come from one vectorized Philox pass in
        numpy instead of one generator call per row. The stream's counter
        does not move. Word 4j+i of row r is word i of Philox block
        r * 2^30 + j, which numpy's generator evaluates at counter value
        block + 1 because it increments its counter before each block;
        that value must fit in the counter's low 64-bit limb, so rows stop
        below 2^34.

        The pass costs per word where the per-row path costs per call: on a
        2-core x86-64 host (numpy 2.4) a row took 0.44 us against 6.3 us by
        seek_row + words at k = 2, 5.1 against 6.9 us at k = 64 and 11.8
        against 5.5 us at k = 128, so the crossover lies near k = 80. The
        2-word loops (fib, couple) use rows(); the long-row loops keep
        seek_row + words.
        """
        if first < 0 or count < 0 or k < 0:
            raise ValueError("first, count and k must be nonnegative")
        if first + count > _ROWS:
            raise ValueError(f"row {first + count - 1} is past the last row, 2^34 - 1")
        blocks = (k + _BLOCK - 1) // _BLOCK
        start = np.arange(first, first + count, dtype=np.uint64) * np.uint64(_BLOCKS_PER_ROW)
        counter = (start[:, None] + np.arange(1, blocks + 1, dtype=np.uint64)).ravel()
        raw = _philox4x64(counter, (self.seed, self.stream_id))
        return raw.reshape(count, blocks * _BLOCK)[:, :k]

    def uniforms(self, k: int) -> np.ndarray:
        """k uniforms on the open interval (0, 1); one word each."""
        return _uniforms(self.words(k))

    def normals(self, k: int) -> np.ndarray:
        """k standard normals via inverse CDF; one word each."""
        return ndtri(self.uniforms(k))

    def signs(self, k: int) -> np.ndarray:
        """k values in {-1.0, +1.0} from the top bit; one word each."""
        return _signs(self.words(k))


def sample_row(law: CoefficientLaw, rng: RngStream, k: int) -> np.ndarray:
    """Row of k i.i.d. draws from the law; consumes exactly k counter steps."""
    if law is BERNOULLI:
        return rng.signs(k)
    return rng.normals(k)


def sample_rows(law: CoefficientLaw, rng: RngStream, first: int, count: int, k: int) -> np.ndarray:
    """Rows first .. first+count-1 of k draws each, shape (count, k).

    Equal bit for bit to seek_row(r) + sample_row(law, rng, k) for each r;
    the stream's counter does not move (see RngStream.rows).
    """
    return draws(law, rng.rows(first, count, k))


def draws(law: CoefficientLaw, w: np.ndarray) -> np.ndarray:
    """The law's draws from raw words, one word each, in the shape of w.

    A sign is the word's top bit and a normal the inverse normal CDF of
    its top 53 bits, as in sample_row.
    """
    if law is BERNOULLI:
        return _signs(w)
    return ndtri(_uniforms(w))

