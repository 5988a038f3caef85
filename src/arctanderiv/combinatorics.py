"""Exact binomial coefficients in Python ints, with no state between calls."""

from __future__ import annotations

import math

__all__ = ["binomial"]


def binomial(n: int, k: int) -> int:
    """C(n, k) from ``math.comb``, with C(n, k) = 0 whenever k < 0 or k > n.

    No module of the package calls it: the literal sums in ``identities``
    never leave 0 <= k <= n and call ``math.comb`` directly.  It serves the
    public name ``arctanderiv.binomial``.
    """
    if n < 0:
        raise ValueError("binomial requires n >= 0")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)
