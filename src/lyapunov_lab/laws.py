"""Coefficient laws and the counter-based random stream they draw from.

Every simulation in this package draws the words of RngStream, whose
output is a pure function of (seed, stream_id, counter). That makes whole
trajectories replayable bit-for-bit and lets independent trajectories run
on separate streams without any shared state. In Python the words come
from numpy's Philox alone; the compiled kernel (see chain._kernel)
computes the same Philox blocks in C.
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
"""Rows per call in the loops over short rows, and per csv_rows call when a CSV table is written.

couple draws its rows through chain.normal_rows and the Fibonacci
reference loop through sample_rows, ROW_CHUNK at a time: large enough
that the cost of a call is spread thin, small enough that a chunk's
temporaries stay a few hundred KB instead of growing with the length of
the run.
"""

_ROWS = 1 << 34  # rows 0 .. 2^34 - 1: their blocks' counter values fit one 64-bit limb


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
    """Counter-based random stream backed by numpy's Philox-4x64.

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

    def uniforms(self, k: int) -> np.ndarray:
        """k uniforms on the open interval (0, 1); one word each."""
        return _uniforms(self.words(k))

    def normals(self, k: int) -> np.ndarray:
        """k standard normals via inverse CDF; one word each."""
        return ndtri(self.uniforms(k))

    def signs(self, k: int) -> np.ndarray:
        """k values in {-1.0, +1.0} from the top bit; one word each."""
        return _signs(self.words(k))


def _check_rows(first: int, count: int, k: int) -> None:
    """ValueError unless rows first .. first+count-1 of k words each lie in rows 0 .. 2^34 - 1."""
    if first < 0 or count < 0 or k < 0:
        raise ValueError("first, count and k must be nonnegative")
    if first + count > _ROWS:
        raise ValueError(f"row {first + count - 1} is past the last row, 2^34 - 1")


def sample_row(law: CoefficientLaw, rng: RngStream, k: int) -> np.ndarray:
    """Row of k i.i.d. draws from the law; consumes exactly k counter steps."""
    if law is BERNOULLI:
        return rng.signs(k)
    return rng.normals(k)


def sample_rows(law: CoefficientLaw, rng: RngStream, first: int, count: int, k: int) -> np.ndarray:
    """Rows first .. first+count-1 of k draws each, shape (count, k).

    Row r is seek_row(first + r) + sample_row(law, rng, k), bit for bit:
    the words of each row come from seek_row + words, and the draws from
    one draws call on the block. The stream's counter does not move.
    """
    _check_rows(first, count, k)
    counter = rng.counter
    w = np.empty((count, k), dtype=np.uint64)
    for r in range(count):
        rng.seek_row(first + r)
        w[r] = rng.words(k)
    rng.counter = counter
    return draws(law, w)


def draws(law: CoefficientLaw, w: np.ndarray) -> np.ndarray:
    """The law's draws from raw words, one word each, in the shape of w.

    A sign is the word's top bit and a normal the inverse normal CDF of
    its top 53 bits, as in sample_row.
    """
    if law is BERNOULLI:
        return _signs(w)
    return ndtri(_uniforms(w))

