"""Exact verification of the alternating binomial-sum identities and of their
terminating Gauss hypergeometric form.

Every check here is an exact-equality sweep.  The Gamma function never
appears: the hypergeometric series is only ever evaluated where it
terminates, so the classical Gamma-ratio closed form is exercised purely
through its combinatorial consequence, never numerically.

The three sums (the alternating sum, the weighted sum and the terminating
series) accumulate an integer numerator over one common denominator, so no
gcd runs inside a sum.  The binomials of the literal sums come from Pascal's
rule and are never derived from the previous term by a ratio: the ratio
C(n-i-1, i+1) / C(n-i, i) is the term ratio of the 2F1 series, so a literal
sum built from it would make the 2F1 check compare the series with itself.

The literal alternating sum has two implementations: one case by
``_alternating_numerator`` (O(n), binomials read from ``binomial``), and
every m of every n by ``_sweep_numerators`` (O(n) additions per n).  The
literal numerators of one n are the coefficients of the weight polynomial
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
m = 0 entries of the even rows of ``_sweep_numerators``.  Every case is
decided by integer equality, by cross-multiplication where the two sides
have different denominators, and a ``Fraction`` is built only for the
context of a mismatch.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import add, sub
from typing import Iterator, Sequence

from .combinatorics import binomial
from .polynomial import _rational
from .reports import CheckReport

__all__ = [
    "NonTerminatingSeriesError",
    "alternating_binomial_sum",
    "alternating_binomial_closed_form",
    "check_binomial_identity",
    "weighted_binomial_sum",
    "weighted_binomial_closed_form",
    "check_weighted_identity",
    "truncation_index",
    "terminating_2f1",
    "check_hypergeometric_form",
    "check_hypergeometric_sweep",
]


class NonTerminatingSeriesError(ArithmeticError):
    """No upper series parameter truncates the series within the term bound."""


def _require_half_range(n: int, m: int) -> None:
    if n < 0 or m < 0 or m > n // 2:
        raise ValueError("requires 0 <= m <= n//2")


def _alternating_numerator(n: int, m: int) -> int:
    """sum_{i=m}^{n//2} C(i, m) w_i with w_i = (-1)^i 4^(n//2 - i) C(n-i, i):
    the literal sum times 4^(n//2), with every binomial read from
    ``binomial``.  O(n) per call."""
    top = n // 2
    return sum(
        binomial(i, m) * (-1) ** i * binomial(n - i, i) << 2 * (top - i) for i in range(m, top + 1)
    )


def _sweep_numerators(n_max: int) -> Iterator[tuple[int, list[int]]]:
    """(n, S_n) for n = 0..n_max, where S_n[m] = sum_i C(i, m) w_i is the
    literal sum of (n, m) times 4^(n//2), m = 0..n//2.

    S_n(t) = W_n(1 + t) with W_n(t) = sum_i w_i t^i (binomial theorem).
    Pascal's rule on the anti-diagonals, C(n-i, i) = C(n-1-i, i) +
    C(n-1-i, i-1), gives W_n = c_n W_{n-1} - t W_{n-2} from W_{-1} = 0 and
    W_0 = 1, with c_n = 4^(n//2 - (n-1)//2): 4 for even n, 1 for odd n.
    Substituting 1 + t for t is linear, so S_n = c_n S_{n-1} - (1+t) S_{n-2}:
    O(n) additions per n, and no C(i, m), no term ratio and no closed form
    is read.  The yielded rows are the recurrence's state; do not mutate them.
    """
    older: list[int] = []  # S_{-1}
    newer = [1]  # S_0
    yield 0, newer
    for n in range(1, n_max + 1):
        # c_n S_{n-1}, padded to the n//2 + 1 coefficients of S_n.
        scaled = newer if n & 1 else [v << 2 for v in newer] + [0]
        older, newer = newer, list(map(sub, map(sub, scaled, older + [0]), [0] + older))
        yield n, newer


def alternating_binomial_sum(n: int, m: int) -> Fraction:
    """sum_{i=m}^{n//2} (-1)^i 4^(-i) C(i, m) C(n-i, i), evaluated literally.

    It is the coefficient of x^(n-2m) in arctan^(n+1) before the common
    prefactor n! 2^n (-1)^n / (1+x^2)^(n+1), so
    :func:`arctanderiv.arctan.expansion_coefficients` lists it.  Accumulated as
    integers over the common denominator 4^(n//2): term i is C(i, m) times
    the weight (-1)^i 4^(n//2 - i) C(n-i, i), with every binomial read from
    ``binomial``.  O(n) per call.  The sweeps and the ``prop12`` route take
    the numerators of every m at once from a recurrence on the shifted weight
    polynomials; the tests hold both against ``math.comb`` oracles.
    """
    _require_half_range(n, m)
    return Fraction(_alternating_numerator(n, m), 4 ** (n // 2))


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
    return Fraction((-1) ** m * binomial(n + 1, 2 * m + 1), 1 << n)


def check_binomial_identity(n_max: int) -> CheckReport:
    """Literal sum == closed form for every n <= n_max, 0 <= m <= n//2.

    The literal sums of one n come at once from ``_sweep_numerators``; the
    closed form reads row n+1 of Pascal's triangle, grown by addition.
    Since 2^n = 4^(n//2) 2^(n&1), a case holds exactly when the literal
    numerator over 4^(n//2), shifted left by n&1, equals the closed form's
    numerator over 2^n.  One list comparison decides the whole row of an n
    and counts its cases; only a row that differs is walked case by case,
    and both sides become a ``Fraction`` only in the context of a mismatch.
    """
    if n_max < 0:
        raise ValueError("check_binomial_identity requires n_max >= 0")
    report = CheckReport("check-identity", {"n_max": n_max})
    closed_rows = itertools.islice(_pascal_rows(), 1, None)
    for (n, numerators), closed_row in zip(_sweep_numerators(n_max), closed_rows):
        closed = [_closed_form_numerator(closed_row, m) for m in range(len(numerators))]
        literal = [v << 1 for v in numerators] if n & 1 else numerators
        if literal == closed:
            report.cases += len(closed)
            continue
        for m, (lhs, rhs) in enumerate(zip(literal, closed)):
            if lhs == rhs:
                report.count_case(True)
            else:
                lhs, rhs = Fraction(lhs, 1 << n), Fraction(rhs, 1 << n)
                report.count_case(False, n=n, m=m, lhs=lhs, rhs=rhs)
    return report


def weighted_binomial_sum(n: int) -> Fraction:
    """sum_{i=0}^{n} (-1)^i C(2n+1-i, i) / (4^i (n+1-i)), evaluated literally.

    Accumulated as integers over the common denominator 4^n lcm(1..n+1),
    with C(2n+1-i, i) read from ``binomial``.
    """
    if n < 0:
        raise ValueError("requires n >= 0")
    lcm = math.lcm(*range(1, n + 2))
    numerator = sum(
        (-1) ** i * binomial(2 * n + 1 - i, i) * (lcm // (n + 1 - i)) << 2 * (n - i)
        for i in range(n + 1)
    )
    return Fraction(numerator, lcm << 2 * n)


def _weighted_moments(n_max: int) -> Iterator[tuple[int, int, int]]:
    """(n, L, J_n^(0)) for n = 0..n_max: the weighted sum of n times 4^n L,
    with L = lcm(1..n_max+1) computed once.

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
    yield 0, lcm, newer[0]
    for n in range(1, n_max + 1):
        older, newer = newer, [
            (((up << 1) - same) << 1) - back for up, same, back in zip(newer[1:], newer, older)
        ]
        yield n, lcm, newer[0]


def weighted_binomial_closed_form(n: int) -> Fraction:
    """0 for odd n; 4^(-n)/(n+1) for even n."""
    if n < 0:
        raise ValueError("requires n >= 0")
    if n % 2:
        return Fraction(0)
    return Fraction(1, 4**n * (n + 1))


def check_weighted_identity(n_max: int) -> CheckReport:
    """The weighted sum vs its parity-split closed form for every n <= n_max,
    plus the first-difference recurrence behind it.

    The weighted sums come from the moment table of ``_weighted_moments``:
    scaled by 4^n lcm(1..n_max+1), the closed form is lcm / (n+1) for even n
    and 0 for odd n.  With S_j = alternating_binomial_sum(2j, 0), the
    derivation rests on S_{j+1} - S_j/4 = 2/4^(j+1); that recurrence is
    swept for j <= n_max//2 so the two halves of the argument are checked
    together.  In integers it reads s_{j+1} - s_j = 2, where s_j = 4^j S_j is
    the m = 0 entry of row 2j of ``_sweep_numerators``.  The weighted cases
    come first, then the recurrence.
    """
    if n_max < 0:
        raise ValueError("check_weighted_identity requires n_max >= 0")
    report = CheckReport("check-corollary", {"n_max": n_max})
    for n, lcm, moment in _weighted_moments(n_max):
        if moment == (0 if n & 1 else lcm // (n + 1)):
            report.count_case(True)
        else:
            lhs = Fraction(moment, lcm << 2 * n)
            report.count_case(False, n=n, lhs=lhs, rhs=weighted_binomial_closed_form(n))
    # The recurrence needs s_0..s_{n_max//2 + 1}, which passes n_max at 0.
    rows = _sweep_numerators(2 * (n_max // 2 + 1))
    prefix_sums = [numerators[0] for n, numerators in rows if not n & 1]
    for j, (prefix, following) in enumerate(zip(prefix_sums, prefix_sums[1:])):
        if following - prefix == 2:
            report.count_case(True)
        else:
            difference = Fraction(following - prefix, 4 ** (j + 1))
            expected = Fraction(2, 4 ** (j + 1))
            report.count_case(False, recurrence_j=j, difference=difference, expected=expected)
    return report


MAX_TERMS = 10**6
"""A series whose truncation index reaches this bound is treated as not
terminating."""


def truncation_index(a: int | Fraction, b: int | Fraction) -> int | None:
    """Index of the last nonzero series term, or None when nothing truncates.

    The rising factorial (q)_k first vanishes at k = 1 - q for a nonpositive
    integer q, so the last surviving term has index -q; half-integers never
    reach zero.  a and b are ``int`` or ``Fraction`` (TypeError otherwise).
    """
    return _truncation_index(_rational(a, "a series parameter"), _rational(b, "a series parameter"))


def _truncation_index(a: int | Fraction, b: int | Fraction) -> int | None:
    """truncation_index without the argument check, for the sweep."""
    candidates = [-p.numerator for p in (a, b) if p.denominator == 1 and p.numerator <= 0]
    return min(candidates) if candidates else None


def terminating_2f1(a: int | Fraction, b: int | Fraction, c: int | Fraction) -> Fraction:
    """Exact finite value of sum_k (a)_k (b)_k / ((c)_k k!) at argument 1.

    The sum runs k = 0..K with K the truncation index.  Term k = 0 is 1 and
    needs no division, so c is never touched when K = 0.  Every factor c + k
    with k < K is checked before the sum starts; a vanishing one is a genuine
    division by zero and raises.  If neither upper parameter truncates the
    series within MAX_TERMS terms the series is not finite and no value exists.

    The series is evaluated by backward Horner,
    1 + r_0 (1 + r_1 (... (1 + r_{K-1}))) with term ratio
    r_k = (a+k)(b+k) / ((c+k)(k+1)), in integers built from the numerators
    and denominators of a, b and c, and reduced by one gcd at the end.  It
    holds for any rational a, b and c, each an ``int`` or a ``Fraction``
    (TypeError otherwise).
    """
    a, b, c = (_rational(v, "a series parameter") for v in (a, b, c))
    return Fraction(*_terminating_2f1(a, b, c))


def _terminating_2f1(a: int | Fraction, b: int | Fraction, c: int | Fraction) -> tuple[int, int]:
    """terminating_2f1(a, b, c) as an unreduced (numerator, denominator)
    pair of ints; the denominator may be negative.  The parameters are not
    checked."""
    last = _truncation_index(a, b)
    if last is None or last >= MAX_TERMS:
        raise NonTerminatingSeriesError(
            f"no upper parameter truncates the series within {MAX_TERMS} terms"
        )
    if c <= 0 and c.denominator == 1 and -c < last:
        raise ZeroDivisionError(
            f"lower-parameter factor c + {-c.numerator} vanishes before truncation"
        )
    a_num, a_den = a.numerator, a.denominator
    b_num, b_den = b.numerator, b.denominator
    c_num, c_den = c.numerator, c.denominator
    # r_k = (a_num + k a_den)(b_num + k b_den) c_den
    #       / ((c_num + k c_den)(k + 1) a_den b_den)
    upper_den = a_den * b_den
    numerator = denominator = 1
    for k in reversed(range(last)):
        up = (a_num + k * a_den) * (b_num + k * b_den) * c_den
        down = (c_num + k * c_den) * (k + 1) * upper_den
        numerator = numerator * up + denominator * down
        denominator *= down
    return numerator, denominator


def _hypergeometric_case(n: int, m: int, report: CheckReport, numerator: int) -> None:
    # numerator is the literal sum times 4^(n//2).
    # Series form of the literal sum: 2F1(m - n/2, m - n/2 + 1/2; m - n; 1)
    # times (-1)^m / (m! 4^m) * (n - 2m + 1)_m.  Exactly one upper parameter
    # is a nonpositive integer (which one depends on the parity of n), so the
    # series terminates after the term of index n//2 - m: the same number of
    # terms as the literal sum.
    a, b = Fraction(2 * m - n, 2), Fraction(2 * m - n + 1, 2)
    index, expected = _truncation_index(a, b), n // 2 - m
    report.count_case(
        index == expected, n=n, m=m, kind="truncation index", index=index, expected=expected
    )
    # The value case, cross-multiplied, with (n - 2m + 1)_m = (n-m)!/(n-2m)!.
    series_num, series_den = _terminating_2f1(a, b, m - n)
    series_num *= (-1) ** m * math.perm(n - m, m)
    series_den *= math.factorial(m) << 2 * m
    if series_num << 2 * (n // 2) == numerator * series_den:
        report.count_case(True)
    else:
        series, literal = Fraction(series_num, series_den), Fraction(numerator, 4 ** (n // 2))
        report.count_case(False, n=n, m=m, kind="value", series=series, literal=literal)


def check_hypergeometric_form(n: int, m: int) -> CheckReport:
    """One case: the prefactored terminating series against the literal sum,
    plus the truncation-index pin at n//2 - m.

    m <= n//2 forces m < n for every n >= 1, so the lower parameter m - n is
    a negative integer except at n = m = 0, where the first upper parameter
    is 0 and the series is the bare k = 0 term (produced before any division
    by the lower parameter).
    """
    _require_half_range(n, m)
    report = CheckReport("check-2f1", {"n": n, "m": m})
    _hypergeometric_case(n, m, report, _alternating_numerator(n, m))
    return report


def check_hypergeometric_sweep(n_max: int) -> CheckReport:
    """check_hypergeometric_form over every n <= n_max and valid m, with the
    literal sums of one n taken at once from ``_sweep_numerators``."""
    if n_max < 0:
        raise ValueError("check_hypergeometric_sweep requires n_max >= 0")
    report = CheckReport("check-2f1", {"n_max": n_max})
    for n, numerators in _sweep_numerators(n_max):
        for m, numerator in enumerate(numerators):
            _hypergeometric_case(n, m, report, numerator)
    return report
