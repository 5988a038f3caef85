"""Exact binomial coefficients in Python ints, with no state between calls."""

from __future__ import annotations

import math

__all__ = ["binomial"]


def binomial(n: int, k: int) -> int:
    """C(n, k) from ``math.comb``, with C(n, k) = 0 whenever k < 0 or k > n.

    The out-of-range convention lets sums over shifted index ranges run
    without edge guards.
    """
    if n < 0:
        raise ValueError("binomial requires n >= 0")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)
