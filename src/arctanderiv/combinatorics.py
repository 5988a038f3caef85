"""The row kernel ``_sweep_numerators`` that the identity sweeps and the
``prop12`` route share.  The module exports no public name.

The kernel lives here, not in ``identities``, so that ``derive
--method=prop12`` and ``crosscheck`` compile no sweep.  Its callers read it
from this module when they run, so a rebinding here reaches every one of
them.
"""

from __future__ import annotations

from typing import Iterator

__all__: list[str] = []


def _sweep_numerators(n_max: int, width: int | None = None) -> Iterator[tuple[int, list[int]]]:
    """(n, S_n) for n = 0..n_max, where S_n[m] = sum_i C(i, m) w_i is the
    literal sum of (n, m) times 2^n, m = 0..n//2; with ``width``, only the
    first ``width`` entries of each row.

    S_n(t) = W_n(1 + t) with W_n(t) = sum_i w_i t^i and weights
    w_i = (-1)^i 2^(n-2i) C(n-i, i) (binomial theorem).  Pascal's rule on the
    anti-diagonals, C(n-i, i) = C(n-1-i, i) + C(n-1-i, i-1), gives
    W_n = 2 W_{n-1} - t W_{n-2} from W_{-1} = 0 and W_0 = 1.  Substituting
    1 + t for t is linear, so S_n = 2 S_{n-1} - (1+t) S_{n-2}: one pass of
    O(n) additions per n, and no C(i, m), no term ratio and no closed form
    is read.  Entry m of S_n reads only entries <= m of S_{n-1} and S_{n-2},
    so rows cut to ``width`` entries are prefixes of the full rows, at
    O(width) additions per n.  The yielded rows are the recurrence's state;
    do not mutate them.
    """
    older: list[int] = []  # S_{-1}
    newer = [1]  # S_0
    yield 0, newer
    for n in range(1, n_max + 1):
        # S_{n-1}, padded to the n//2 + 1 coefficients of S_n unless cut.
        grows = not n & 1 and (width is None or len(newer) < width)
        top = newer + [0] if grows else newer
        older, newer = newer, [(a << 1) - b - c for a, b, c in zip(top, older + [0], [0] + older)]
        yield n, newer
