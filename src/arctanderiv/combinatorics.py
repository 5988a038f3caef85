"""Exact combinatorial scalars: binomials and rising factorials.

Everything operates on Python ints (arbitrary precision) and
``fractions.Fraction``, so results are exact at any size.  All functions are
pure and keep no state between calls.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["binomial", "pochhammer"]


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


def pochhammer(q: Fraction | int, k: int) -> Fraction:
    """Rising factorial q (q+1) ... (q+k-1); the empty product (k=0) is 1.

    With q = p/d the product is prod_{j<k} (p + j d) over d^k, multiplied
    out in integers and reduced once.
    """
    if k < 0:
        raise ValueError("pochhammer requires k >= 0")
    q = Fraction(q)
    p, d = q.numerator, q.denominator
    return Fraction(math.prod(range(p, p + k * d, d)), d**k)
