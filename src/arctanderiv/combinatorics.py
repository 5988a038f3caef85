"""Exact combinatorial scalars: binomials and rising factorials.

Everything operates on Python ints (arbitrary precision) and
``fractions.Fraction``, so results are exact at any size.  All functions are
pure; the binomial row cache is built lazily and is safe for concurrent
readers (``functools.lru_cache`` locks internally).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

__all__ = ["binomial", "binomial_row", "pochhammer", "set_binomial_cache_limit"]

_cache_limit = 1024


@lru_cache(maxsize=None)
def _binomial_row(n: int) -> tuple[int, ...]:
    # Multiplicative row build: row[k] = row[k-1] * (n-k+1) / k, always exact.
    row = [1]
    for k in range(1, n + 1):
        row.append(row[-1] * (n - k + 1) // k)
    return tuple(row)


def set_binomial_cache_limit(limit: int) -> None:
    """Cache Pascal rows for n <= limit; larger n fall through uncached.

    Identity sweeps revisit the same rows constantly, so rows are memoized
    whole.  Lowering the limit also drops rows already cached.
    """
    global _cache_limit
    _cache_limit = limit
    _binomial_row.cache_clear()


def binomial_row(n: int) -> tuple[int, ...]:
    """Row n of Pascal's triangle, (C(n, 0), ..., C(n, n)).

    Rows for n <= the cache limit come from the row cache; larger rows are
    built afresh on every call.
    """
    if n < 0:
        raise ValueError("binomial requires n >= 0")
    if n <= _cache_limit:
        return _binomial_row(n)
    return _binomial_row.__wrapped__(n)


def binomial(n: int, k: int) -> int:
    """C(n, k), with C(n, k) = 0 whenever k < 0 or k > n.

    The out-of-range convention lets sums over shifted index ranges run
    without edge guards.
    """
    if n < 0:
        raise ValueError("binomial requires n >= 0")
    if k < 0 or k > n:
        return 0
    if n <= _cache_limit:
        return _binomial_row(n)[k]
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
