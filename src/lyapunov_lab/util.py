"""Small numeric helpers shared across modules."""

from __future__ import annotations

import math
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def log_abs_bigint(x: int) -> float:
    """log|x| for an arbitrary-precision integer, accurate to ~1 ulp.

    Splits x into a 64-bit mantissa and a power of two so values far
    beyond float range still get an accurate logarithm. Returns -inf
    for x == 0.
    """
    ax = abs(x)
    if ax == 0:
        return float("-inf")
    nbits = ax.bit_length()
    if nbits <= 63:
        return math.log(ax)
    shift = nbits - 63
    return math.log(ax >> shift) + shift * math.log(2.0)


def ordered_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """fn applied to each item, in input order."""
    # benchmark v2 deletes this: perfbench/tracing.py times it under cli and verification
    return [fn(it) for it in items]
