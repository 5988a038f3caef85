"""Exact verification of the alternating binomial-sum identities and of their
terminating Gauss hypergeometric form.

Every check here is an exact-equality sweep over big rationals.  The Gamma
function never appears: the hypergeometric series is only ever evaluated where
it terminates, so the classical Gamma-ratio closed form is exercised purely
through its combinatorial consequence, never numerically.

The three sums (the alternating sum, the weighted sum and the terminating
series) accumulate an integer numerator over one common denominator and build
a single ``Fraction`` at the end, so no gcd runs inside a sum.  The binomials
of the literal sums come from Pascal's triangle and are never derived from
the previous term by a ratio: the ratio C(n-i-1, i+1) / C(n-i, i) is the
term ratio of the 2F1 series, so a literal sum built from it would make the
2F1 check compare the series with itself.  Single calls read them from
``binomial``, one O(n) literal sum per call.  The sweeps read C(n-i, i) and
C(2n+1-i, i) from the Pascal anti-diagonals, each built from the two before
it by addition only, and read no C(i, m) at all: the numerators of every m
of one n are the coefficients of a Taylor shift by 1, computed by additions
(Pascal's rule).  The binomial-identity sweep reads its closed form from
Pascal rows grown by addition, and decides each case by integer equality of
the two numerators.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import add
from typing import Iterator, Sequence

from .combinatorics import binomial, pochhammer
from .polynomial import Scalar
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


def _antidiagonals() -> Iterator[tuple[int, ...]]:
    """The Pascal anti-diagonals D_N = (C(N-i, i))_{i <= N//2} for N = 0, 1, 2, ...

    Each one comes from the two before it by Pascal's rule,
    C(N-i, i) = C(N-1-i, i) + C(N-1-i, i-1), that is
    D_N[i] = D_{N-1}[i] + D_{N-2}[i-1]: additions only, no term ratio and no
    whole rows, and only two diagonals are held at a time.
    """
    older: tuple[int, ...] = ()  # D_{-1}
    newer: tuple[int, ...] = (1,)  # D_0
    for n in itertools.count(1):
        yield newer
        # For even n, D_{n-1} lacks its last entry, C(n/2 - 1, n/2) = 0.
        padded = newer if n & 1 else newer + (0,)
        older, newer = newer, tuple(map(add, padded, (0,) + older))


def _alternating_weights(n: int, diagonal: Sequence[int]) -> list[int]:
    """The integer weights w_i = (-1)^i 4^(n//2 - i) C(n-i, i), i = 0..n//2,
    of the literal sum, from the anti-diagonal D_n."""
    top = n // 2
    weights = []
    for i in range(top + 1):
        weight = diagonal[i] << 2 * (top - i)
        weights.append(-weight if i & 1 else weight)
    return weights


def _alternating_numerator(n: int, m: int) -> int:
    """sum_{i=m}^{n//2} C(i, m) w_i, the literal sum times 4^(n//2), with
    every binomial read from ``binomial``: O(n) per call."""
    top = n // 2
    weights = _alternating_weights(n, [binomial(n - i, i) for i in range(top + 1)])
    return sum(binomial(i, m) * weights[i] for i in range(m, top + 1))


def _alternating_numerators(weights: Sequence[int]) -> list[int]:
    """sum_i C(i, m) w_i for every m = 0..len(weights)-1: the coefficients
    of W(1 + t), where W(t) = sum_i w_i t^i.

    W(1 + t) is built by Horner's scheme in 1 + t, highest weight first.
    Each step multiplies by 1 + t through Pascal's rule, additions only, so
    no C(i, m) and no term ratio is ever read.
    """
    poly = [weights[-1]]
    for w in reversed(weights[:-1]):
        poly = [w + poly[0], *map(add, poly[1:], poly[:-1]), poly[-1]]
    return poly


def _sweep_numerators(n_max: int) -> Iterator[tuple[int, list[int]]]:
    """(n, [sum_i C(i, m) w_i for m = 0..n//2]) for n = 0..n_max, with the
    weights from the anti-diagonal D_n."""
    for n, diagonal in zip(range(n_max + 1), _antidiagonals()):
        yield n, _alternating_numerators(_alternating_weights(n, diagonal))


def alternating_binomial_sum(n: int, m: int) -> Fraction:
    """sum_{i=m}^{n//2} (-1)^i 4^(-i) C(i, m) C(n-i, i), evaluated literally.

    Accumulated as integers over the common denominator 4^(n//2): term i is
    C(i, m) times the weight (-1)^i 4^(n//2 - i) C(n-i, i), with every
    binomial read from ``binomial``.  O(n) per call.  The sweeps build the
    same weights once per n from the anti-diagonals and take the numerators
    of every m at once from a Taylor shift, so this sum is an independent
    witness for their values.
    :func:`arctanderiv.arctan.expansion_coefficient` computes the same sum
    over the same denominator but is written separately (Horner's scheme in
    4, its own index names), so the equality test between the two modules can
    catch transcription drift in either one.
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

    The literal sums of one n come at once from the Taylor shift of its
    weights; the closed form reads row n+1 of Pascal's triangle, grown by
    addition.
    Since 2^n = 4^(n//2) 2^(n&1), a case holds exactly when the literal
    numerator over 4^(n//2), shifted left by n&1, equals the closed form's
    numerator over 2^n; both sides become a ``Fraction`` only in the context
    of a mismatch.
    """
    report = CheckReport("check-identity", {"n_max": n_max})
    closed_rows = itertools.islice(_pascal_rows(), 1, None)
    for (n, numerators), closed_row in zip(_sweep_numerators(n_max), closed_rows):
        shift = n & 1
        for m, numerator in enumerate(numerators):
            closed = _closed_form_numerator(closed_row, m)
            if numerator << shift == closed:
                report.count_case(True)
            else:
                report.count_case(
                    False,
                    n=n,
                    m=m,
                    lhs=Fraction(numerator, 4 ** (n // 2)),
                    rhs=Fraction(closed, 1 << n),
                )
    return report


def _weighted_numerator(n: int, diagonal: Sequence[int], lcm: int) -> int:
    """The weighted sum times 4^n lcm, from the anti-diagonal D_{2n+1} and
    lcm = lcm(1..n+1): term i is (-1)^i C(2n+1-i, i) scaled by
    4^(n-i) lcm / (n+1-i)."""
    numerator = 0
    for i in range(n + 1):
        term = diagonal[i] * (lcm // (n + 1 - i)) << 2 * (n - i)
        numerator += -term if i & 1 else term
    return numerator


def weighted_binomial_sum(n: int) -> Fraction:
    """sum_{i=0}^{n} (-1)^i C(2n+1-i, i) / (4^i (n+1-i)), evaluated literally.

    Accumulated as integers over the common denominator 4^n lcm(1..n+1),
    with C(2n+1-i, i) read from ``binomial``.
    """
    if n < 0:
        raise ValueError("requires n >= 0")
    lcm = math.lcm(*range(1, n + 2))
    diagonal = [binomial(2 * n + 1 - i, i) for i in range(n + 1)]
    return Fraction(_weighted_numerator(n, diagonal, lcm), lcm << 2 * n)


def _weighted_sums(n_max: int) -> Iterator[Fraction]:
    """weighted_binomial_sum(n) for n = 0..n_max, from the odd anti-diagonals
    D_{2n+1}, with lcm(1..n+1) grown by one factor per n."""
    lcm = 1
    odd_diagonals = itertools.islice(_antidiagonals(), 1, None, 2)
    for n, diagonal in zip(range(n_max + 1), odd_diagonals):
        lcm = math.lcm(lcm, n + 1)
        yield Fraction(_weighted_numerator(n, diagonal, lcm), lcm << 2 * n)


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

    With S_j = alternating_binomial_sum(2j, 0), the derivation rests on
    S_{j+1} - S_j/4 = 2/4^(j+1); that recurrence is swept for j <= n_max//2
    so the two halves of the argument are checked together.  Only m = 0 is
    needed there, where every C(i, 0) is 1, so S_j is the sum of the weights
    of the even anti-diagonal D_{2j}.
    """
    report = CheckReport("check-corollary", {"n_max": n_max})
    for n, lhs in enumerate(_weighted_sums(n_max)):
        rhs = weighted_binomial_closed_form(n)
        report.count_case(lhs == rhs, n=n, lhs=lhs, rhs=rhs)
    even_diagonals = itertools.islice(_antidiagonals(), 0, 2 * (n_max // 2 + 1) + 1, 2)
    for j, diagonal in enumerate(even_diagonals):
        following = Fraction(sum(_alternating_weights(2 * j, diagonal)), 4**j)
        if j:
            difference = following - prefix / 4
            expected = Fraction(2, 4**j)
            report.count_case(
                difference == expected,
                recurrence_j=j - 1,
                difference=difference,
                expected=expected,
            )
        prefix = following
    return report


MAX_TERMS = 10**6
"""A series whose truncation index reaches this bound is treated as not
terminating."""


def truncation_index(a: Scalar, b: Scalar) -> int | None:
    """Index of the last nonzero series term, or None when nothing truncates.

    The rising factorial (q)_k first vanishes at k = 1 - q for a nonpositive
    integer q, so the last surviving term has index -q; half-integers never
    reach zero.
    """
    candidates = [
        -int(p) for p in (a, b) if p <= 0 and p.denominator == 1
    ]
    return min(candidates) if candidates else None


def terminating_2f1(a: Scalar, b: Scalar, c: Scalar) -> Fraction:
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
    holds for any rational a, b and c.
    """
    last = truncation_index(a, b)
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
    return Fraction(numerator, denominator)


def _hypergeometric_case(
    n: int,
    m: int,
    report: CheckReport,
    numerator: int,
) -> None:
    # numerator is the literal sum times 4^(n//2).
    # Series form of the literal sum: 2F1(m - n/2, m - n/2 + 1/2; m - n; 1)
    # times (-1)^m / (m! 4^m) * (n - 2m + 1)_m.  Exactly one upper parameter
    # is a nonpositive integer (which one depends on the parity of n), so the
    # series terminates after the term of index n//2 - m: the same number of
    # terms as the literal sum.
    a, b = Fraction(2 * m - n, 2), Fraction(2 * m - n + 1, 2)
    expected_index = n // 2 - m
    index = truncation_index(a, b)
    report.count_case(
        index == expected_index,
        n=n,
        m=m,
        kind="truncation index",
        index=index,
        expected=expected_index,
    )
    prefactor = Fraction((-1) ** m, math.factorial(m) * 4**m) * pochhammer(n - 2 * m + 1, m)
    series_value = terminating_2f1(a, b, m - n) * prefactor
    literal = Fraction(numerator, 4 ** (n // 2))
    report.count_case(
        series_value == literal,
        n=n,
        m=m,
        kind="value",
        series=series_value,
        literal=literal,
    )


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
    literal sums of one n taken at once from the Taylor shift of its
    weights."""
    report = CheckReport("check-2f1", {"n_max": n_max})
    for n, numerators in _sweep_numerators(n_max):
        for m, numerator in enumerate(numerators):
            _hypergeometric_case(n, m, report, numerator)
    return report
