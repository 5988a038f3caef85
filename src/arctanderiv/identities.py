"""Exact verification of the alternating binomial-sum identities and of their
terminating Gauss hypergeometric form.

Every check here is an exact-equality sweep, and fills a ``CheckReport``
from ``reports``.  The Gamma function never appears: the hypergeometric
series (``hypergeometric``) is only ever evaluated where it terminates, so
the classical Gamma-ratio closed form is exercised purely through its
combinatorial consequence, never numerically.

The three sums (the alternating sum, the weighted sum and the terminating
series) accumulate an integer numerator over one common denominator, so no
gcd runs inside a sum.  The binomials of the literal sums come from Pascal's
rule and are never derived from the previous term by a ratio: the ratio
C(n-i-1, i+1) / C(n-i, i) is the term ratio of the 2F1 series, so a literal
sum built from it would make the 2F1 check compare the series with itself.

The literal alternating sum has two implementations: one case by
``alternating_binomial_sum`` (O(n), binomials read from ``math.comb``), and
every m of every n by ``combinatorics._sweep_numerators`` (one pass of O(n)
additions per n).  Both scale the sums of one n by 2^n, the closed form's
denominator, so the literal numerators of n are (-1)^m C(n+1, 2m+1) when
the identity holds.  They are the coefficients of the weight polynomial
shifted by 1; the weight polynomials follow a three-term recurrence
(Pascal's rule on the anti-diagonals), and the shift is linear, so the
recurrence runs on the shifted polynomials themselves.  That stream also
gives the coefficients of the ``prop12`` route in ``arctanderiv.arctan``,
and every check holds it against a side built another way: Pascal rows
grown by addition (``check-identity``), the terminating series
(``check-2f1``) or the quotient-rule oracle (``crosscheck``).  The
corollary sweep reads no binomial: its weighted sums are the zeroth moments
of a table that a three-term recurrence fills by shifts and subtractions
over one lcm (``_weighted_moments``), and its recurrence half reads the
m = 0 entries of the even rows of ``_sweep_numerators``, run on rows cut to
that one entry.  The sweeps read ``_sweep_numerators`` and the series
kernels from their home modules when they run, so a rebinding there reaches
every sweep, and only ``check-2f1`` imports ``hypergeometric``.  Every case
is decided by integer equality, by cross-multiplication where the two sides
have different denominators, and a mismatch reports the int pairs it
compared, reduced only in a context that the report keeps.
"""

from __future__ import annotations

import itertools
import math
from operator import add
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from . import combinatorics
from .digits import _fraction
from .reports import CheckReport

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "alternating_binomial_sum",
    "alternating_binomial_closed_form",
    "check_binomial_identity",
    "weighted_binomial_sum",
    "weighted_binomial_closed_form",
    "check_weighted_identity",
    "check_hypergeometric_sweep",
]


def _require_half_range(n: int, m: int) -> None:
    if n < 0 or m < 0 or m > n // 2:
        raise ValueError("requires 0 <= m <= n//2")


def alternating_binomial_sum(n: int, m: int) -> Fraction:
    """sum_{i=m}^{n//2} (-1)^i 4^(-i) C(i, m) C(n-i, i), evaluated literally.

    It is the coefficient of x^(n-2m) in arctan^(n+1) before the common
    prefactor n! 2^n (-1)^n / (1+x^2)^(n+1).  Accumulated as integers over
    the common denominator 2^n: term i is C(i, m) times the weight
    (-1)^i 2^(n-2i) C(n-i, i), with every binomial read from ``math.comb``:
    i runs over [m, n//2], so both stay in range.  O(n) per call.  The
    sweeps and the ``prop12`` route take the numerators of every m at once
    from a recurrence on the shifted weight polynomials
    (``combinatorics._sweep_numerators``); the tests hold both against term-by-term
    ``Fraction`` oracles.
    """
    _require_half_range(n, m)
    numerator = sum(
        math.comb(i, m) * (-1) ** i * math.comb(n - i, i) << (n - 2 * i)
        for i in range(m, n // 2 + 1)
    )
    return _fraction(numerator, 1 << n)


def _pascal_rows() -> Iterator[tuple[int, ...]]:
    """The rows (C(N, k))_{k <= N} of Pascal's triangle for N = 0, 1, 2, ...,
    each from the one before by addition."""
    row: tuple[int, ...] = (1,)
    while True:
        yield row
        row = tuple(map(add, row + (0,), (0,) + row))


def _closed_form_numerator(row: Sequence[int], m: int) -> int:
    """(-1)^m C(n+1, 2m+1) read from row n+1 of Pascal's triangle: the
    closed form times 2^n."""
    value = row[2 * m + 1]
    return -value if m & 1 else value


def alternating_binomial_closed_form(n: int, m: int) -> Fraction:
    """(-1)^m 2^(-n) C(n+1, 2m+1)."""
    _require_half_range(n, m)
    return _fraction((-1) ** m * math.comb(n + 1, 2 * m + 1), 1 << n)


def check_binomial_identity(n_max: int) -> CheckReport:
    """Literal sum == closed form for every n <= n_max, 0 <= m <= n//2.

    The literal sums of one n come at once from ``_sweep_numerators``; the
    closed form reads row n+1 of Pascal's triangle, grown by addition.  Both
    sides are numerators over 2^n, so a case holds exactly when they are
    equal.  One list comparison decides the whole row of an n and counts its
    cases; only a row that differs is walked case by case, and a mismatch
    reports both sides as pairs over 2^n.
    """
    if n_max < 0:
        raise ValueError("check_binomial_identity requires n_max >= 0")
    report = CheckReport("check-identity", {"n_max": n_max}, (n_max // 2 + 1) * ((n_max + 3) // 2))
    closed_rows = itertools.islice(_pascal_rows(), 1, None)
    n = -1
    for (n, numerators), closed_row in zip(combinatorics._sweep_numerators(n_max), closed_rows):
        closed = [_closed_form_numerator(closed_row, m) for m in range(len(numerators))]
        if numerators == closed:
            report.cases += len(closed)
            continue
        for m, (lhs, rhs) in enumerate(zip(numerators, closed)):
            if lhs == rhs:
                report.count_case(True)
            else:
                report.count_case(False, n=n, m=m, lhs=(lhs, 1 << n), rhs=(rhs, 1 << n))
    return report.close(n)


def weighted_binomial_sum(n: int) -> Fraction:
    """sum_{i=0}^{n} (-1)^i C(2n+1-i, i) / (4^i (n+1-i)), evaluated literally.

    Accumulated as integers over the common denominator 4^n lcm(1..n+1),
    with C(2n+1-i, i) read from ``math.comb``: i <= n < 2n+1-i keeps it in
    range.
    """
    if n < 0:
        raise ValueError("requires n >= 0")
    lcm = math.lcm(*range(1, n + 2))
    numerator = sum(
        (-1) ** i * math.comb(2 * n + 1 - i, i) * (lcm // (n + 1 - i)) << 2 * (n - i)
        for i in range(n + 1)
    )
    return _fraction(numerator, lcm << 2 * n)


def _weighted_moments(n_max: int) -> Iterator[tuple[int, int]]:
    """(n, J_n^(0)) for n = 0..n_max: the weighted sum of n times 4^n L,
    with L = lcm(1..n_max+1) computed once, here, for the seed row.

    Let B_n(t) = sum_i (-1)^i 4^(-i) C(2n+1-i, i) t^(n-i).  Since
    1/(n+1-i) = int_0^1 t^(n-i) dt, the weighted sum is int_0^1 B_n.  The
    anti-diagonal form of Pascal's rule, C(N-i, i) = C(N-1-i, i) +
    C(N-1-i, i-1), taken at N = 2n+1, 2n and 2n-1 to eliminate the even
    diagonals, gives B_n = (t - 1/2) B_{n-1} - B_{n-2}/16 from B_{-1} = 0 and
    B_0 = 1.  So the scaled moments J_n^(k) = 4^n L int_0^1 t^k B_n follow
    J_n^(k) = 4 J_{n-1}^(k+1) - 2 J_{n-1}^(k) - J_{n-2}^(k) from J_{-1} = 0
    and J_0^(k) = L/(k+1): integers, by shifts and subtractions only, with no
    binomial, no term ratio and no closed form read.  4^n is the least scale
    that keeps the step integral, and with it no entry outgrows (n+1) L,
    because |4^n B_n| <= n+1 on [0, 1].  Row n is kept for k <= n_max - n
    only, and two rows are held at a time.
    """
    lcm = math.lcm(*range(1, n_max + 2))
    older = [0] * (n_max + 1)  # J_{-1}
    newer = [lcm // (k + 1) for k in range(n_max + 1)]  # J_0
    yield 0, newer[0]
    for n in range(1, n_max + 1):
        older, newer = newer, [
            (((up << 1) - same) << 1) - back for up, same, back in zip(newer[1:], newer, older)
        ]
        yield n, newer[0]


def _weighted_closed_numerator(n: int, lcm: int) -> int:
    """The weighted sum's closed form times 4^n lcm, for an lcm that n+1 divides."""
    return 0 if n & 1 else lcm // (n + 1)


def weighted_binomial_closed_form(n: int) -> Fraction:
    """0 for odd n; 4^(-n)/(n+1) for even n."""
    if n < 0:
        raise ValueError("requires n >= 0")
    return _fraction(_weighted_closed_numerator(n, n + 1), (n + 1) << 2 * n)


def check_weighted_identity(n_max: int) -> CheckReport:
    """The weighted sum vs its parity-split closed form for every n <= n_max,
    plus the first-difference recurrence behind it.

    The weighted sums come from the moment table of ``_weighted_moments``,
    scaled by 4^n L with L = lcm(1..n_max+1) computed here, not read from
    the table: the closed form is L / (n+1) for even n and 0 for odd n.
    With S_j = alternating_binomial_sum(2j, 0), the derivation rests on
    S_{j+1} - S_j/4 = 2/4^(j+1); that recurrence is swept for j <= n_max//2,
    after the weighted cases, so the two halves of the argument are checked
    together.  In integers it reads s_{j+1} - s_j = 2, where s_j = 4^j S_j is
    the m = 0 entry of row 2j of ``_sweep_numerators``.
    """
    if n_max < 0:
        raise ValueError("check_weighted_identity requires n_max >= 0")
    report = CheckReport("check-corollary", {"n_max": n_max}, n_max + 1 + n_max // 2 + 1)
    lcm, n = math.lcm(*range(1, n_max + 2)), -1
    for n, moment in _weighted_moments(n_max):
        closed = _weighted_closed_numerator(n, lcm)
        if moment == closed:
            report.count_case(True)
        else:
            report.count_case(False, n=n, lhs=(moment, lcm << 2 * n), rhs=(closed, lcm << 2 * n))
    # The recurrence needs s_0..s_{n_max//2 + 1}, which passes n_max at 0,
    # and reads entry 0 of each row only.
    rows = combinatorics._sweep_numerators(2 * (n_max // 2 + 1), 1)
    prefix_sums = [numerators[0] for n, numerators in rows if not n & 1]
    for j, (prefix, following) in enumerate(zip(prefix_sums, prefix_sums[1:])):
        if following - prefix == 2:
            report.count_case(True)
        else:
            difference, expected = (following - prefix, 4 ** (j + 1)), (2, 4 ** (j + 1))
            report.count_case(False, recurrence_j=j, difference=difference, expected=expected)
    return report.close(n)


def _upper_parameters(n: int, m: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The upper parameters m - n/2 and m - n/2 + 1/2 of case (n, m) as
    lowest-terms pairs, built without a Fraction: the integer one is the
    one whose numerator, 2m - n or 2m - n + 1, is even."""
    top = 2 * m - n
    return ((top >> 1, 1), (top + 1, 2)) if top & 1 == 0 else ((top, 2), ((top + 1) >> 1, 1))


def _hypergeometric_case(
    n: int,
    m: int,
    report: CheckReport,
    numerator: int,
    truncation_index: Callable[..., int | None],
    terminating_2f1: Callable[..., tuple[int, int]],
) -> None:
    # numerator is the literal sum times 2^n; the two kernels are the
    # unchecked pair kernels of ``hypergeometric``.
    # Series form of the literal sum: 2F1(m - n/2, m - n/2 + 1/2; m - n; 1)
    # times (-1)^m / (m! 4^m) * (n - 2m + 1)_m.  Exactly one upper parameter
    # is a nonpositive integer (which one depends on the parity of n), so the
    # series terminates after the term of index n//2 - m: the same number of
    # terms as the literal sum.  The index is computed once and the series
    # runs to it.
    a, b = _upper_parameters(n, m)
    index, expected = truncation_index(a, b), n // 2 - m
    if index == expected:
        report.count_case(True)
    else:
        report.count_case(False, n=n, m=m, kind="truncation", index=index, expected=expected)
    # The value case, cross-multiplied, with (n - 2m + 1)_m = (n-m)!/(n-2m)!;
    # a zero denominator would make any numerator pass.
    series_num, series_den = terminating_2f1(a, b, (m - n, 1), index)
    series_num *= (-1) ** m * math.perm(n - m, m)
    series_den *= math.factorial(m) << 2 * m
    if series_den and series_num << n == numerator * series_den:
        report.count_case(True)
    else:
        series, literal = (series_num, series_den), (numerator, 1 << n)
        report.count_case(False, n=n, m=m, kind="value", series=series, literal=literal)


def check_hypergeometric_sweep(n_max: int) -> CheckReport:
    """The prefactored terminating series against the literal sum, plus the
    truncation-index pin at n//2 - m, for every n <= n_max and 0 <= m <= n//2,
    with the literal sums of one n taken at once from ``_sweep_numerators``.

    m <= n//2 forces m < n for n >= 1, so the lower parameter m - n is a
    negative integer except at n = m = 0, where the series is its bare k = 0
    term, produced before any division by it.
    """
    from . import hypergeometric  # before the report starts the cost line's clock

    if n_max < 0:
        raise ValueError("check_hypergeometric_sweep requires n_max >= 0")
    report = CheckReport("check-2f1", {"n_max": n_max}, 2 * (n_max // 2 + 1) * ((n_max + 3) // 2))
    truncation_index = hypergeometric._truncation_index
    terminating_2f1 = hypergeometric._terminating_2f1
    n = -1
    for n, numerators in combinatorics._sweep_numerators(n_max):
        for m, numerator in enumerate(numerators):
            _hypergeometric_case(n, m, report, numerator, truncation_index, terminating_2f1)
    return report.close(n)
