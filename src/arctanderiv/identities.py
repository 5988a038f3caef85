"""Exact verification of the alternating binomial-sum identities and of their
terminating Gauss hypergeometric form.

Every check here is an exact-equality sweep over big rationals.  The Gamma
function never appears: the hypergeometric series is only ever evaluated where
it terminates, so the classical Gamma-ratio closed form is exercised purely
through its combinatorial consequence, never numerically.

The three sums (the alternating sum, the weighted sum and the terminating
series) accumulate an integer numerator over one common denominator and build
a single ``Fraction`` at the end, so no gcd runs inside a sum.  The binomials
of the literal sums are read from Pascal rows (``binomial`` /
``binomial_row``) and never derived from the previous term by a ratio: the
ratio C(n-i-1, i+1) / C(n-i, i) is the term ratio of the 2F1 series, so a
literal sum built from it would make the 2F1 check compare the series with
itself.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from operator import itemgetter, mul

from .combinatorics import binomial, binomial_row, pochhammer
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
    "HypergeometricParams",
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


def _alternating_weights(n: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """Pascal rows 0..n//2 and the integer weights
    w_i = (-1)^i 4^(n//2 - i) C(n-i, i), i = 0..n//2, of the literal sum."""
    top = n // 2
    rows = [binomial_row(i) for i in range(top + 1)]
    weights = []
    for i in range(top + 1):
        weight = binomial(n - i, i) << 2 * (top - i)
        weights.append(-weight if i & 1 else weight)
    return rows, weights


def _alternating_numerator(
    rows: list[tuple[int, ...]], weights: list[int], m: int
) -> int:
    """sum_{i=m}^{n//2} C(i, m) w_i, the literal sum times 4^(n//2)."""
    return sum(map(mul, map(itemgetter(m), rows[m:]), weights[m:]))


def alternating_binomial_sum(n: int, m: int) -> Fraction:
    """sum_{i=m}^{n//2} (-1)^i 4^(-i) C(i, m) C(n-i, i), evaluated literally.

    Accumulated as integers over the common denominator 4^(n//2): term i is
    C(i, m) times the weight (-1)^i 4^(n//2 - i) C(n-i, i), with every
    binomial read from a Pascal row.  O(n) per call; the identity and
    2F1 sweeps build the weights once per n and reuse them for every m.
    :func:`arctanderiv.arctan.expansion_coefficient` computes the same sum
    over the same denominator but is written separately (Horner's scheme in
    4, its own index names), so the equality test between the two modules can
    catch transcription drift in either one.
    """
    _require_half_range(n, m)
    return Fraction(_alternating_numerator(*_alternating_weights(n), m), 4 ** (n // 2))


def alternating_binomial_closed_form(n: int, m: int) -> Fraction:
    """(-1)^m 2^(-n) C(n+1, 2m+1)."""
    _require_half_range(n, m)
    return Fraction((-1) ** m * binomial(n + 1, 2 * m + 1), 2**n)


def check_binomial_identity(n_max: int) -> CheckReport:
    """Literal sum == closed form for every n <= n_max, 0 <= m <= n//2.

    The literal sums go through the same two helpers as
    :func:`alternating_binomial_sum`, with the weights built once per n.
    """
    report = CheckReport("check-identity", {"n_max": n_max})
    for n in range(n_max + 1):
        rows, weights = _alternating_weights(n)
        denominator = 4 ** (n // 2)
        for m in range(n // 2 + 1):
            lhs = Fraction(_alternating_numerator(rows, weights, m), denominator)
            rhs = alternating_binomial_closed_form(n, m)
            report.count_case(lhs == rhs, n=n, m=m, lhs=lhs, rhs=rhs)
    return report


def weighted_binomial_sum(n: int) -> Fraction:
    """sum_{i=0}^{n} (-1)^i C(2n+1-i, i) / (4^i (n+1-i)), evaluated literally.

    Accumulated as integers over the common denominator 4^n lcm(1..n+1):
    term i is scaled by 4^(n-i) lcm(1..n+1) / (n+1-i), with C(2n+1-i, i)
    read from a Pascal row.
    """
    if n < 0:
        raise ValueError("requires n >= 0")
    lcm = math.lcm(*range(1, n + 2))
    numerator = 0
    for i in range(n + 1):
        term = binomial(2 * n + 1 - i, i) * (lcm // (n + 1 - i)) << 2 * (n - i)
        numerator += -term if i & 1 else term
    return Fraction(numerator, lcm << 2 * n)


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
    so the two halves of the argument are checked together.
    """
    report = CheckReport("check-corollary", {"n_max": n_max})
    for n in range(n_max + 1):
        lhs = weighted_binomial_sum(n)
        rhs = weighted_binomial_closed_form(n)
        report.count_case(lhs == rhs, n=n, lhs=lhs, rhs=rhs)
    prefix = alternating_binomial_sum(0, 0)
    for j in range(n_max // 2 + 1):
        following = alternating_binomial_sum(2 * (j + 1), 0)
        difference = following - prefix / 4
        expected = Fraction(2, 4 ** (j + 1))
        report.count_case(
            difference == expected,
            recurrence_j=j,
            difference=difference,
            expected=expected,
        )
        prefix = following
    return report


@dataclasses.dataclass(init=False, frozen=True)
class HypergeometricParams:
    """Upper parameters a, b and lower parameter c of a 2F1 series at z = 1."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __init__(self, a: Scalar, b: Scalar, c: Scalar) -> None:
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(self, "c", Fraction(c))


def truncation_index(params: HypergeometricParams) -> int | None:
    """Index of the last nonzero series term, or None when nothing truncates.

    The rising factorial (q)_k first vanishes at k = 1 - q for a nonpositive
    integer q, so the last surviving term has index -q; half-integers never
    reach zero.
    """
    candidates = [
        -int(p) for p in (params.a, params.b) if p <= 0 and p.denominator == 1
    ]
    return min(candidates) if candidates else None


def terminating_2f1(params: HypergeometricParams, max_terms: int = 10**6) -> Fraction:
    """Exact finite value of sum_k (a)_k (b)_k / ((c)_k k!) at argument 1.

    The sum runs k = 0..K with K the truncation index.  Term k = 0 is 1 and
    needs no division, so c is never touched when K = 0.  Every factor c + k
    with k < K is checked before the sum starts; a vanishing one is a genuine
    division by zero and raises.  If neither upper parameter truncates the
    series within max_terms the series is not finite and no value exists.

    The series is evaluated by backward Horner,
    1 + r_0 (1 + r_1 (... (1 + r_{K-1}))) with term ratio
    r_k = (a+k)(b+k) / ((c+k)(k+1)), in integers built from the numerators
    and denominators of a, b and c, and reduced by one gcd at the end.  It
    holds for any rational a, b and c.
    """
    last = truncation_index(params)
    if last is None or last >= max_terms:
        raise NonTerminatingSeriesError(
            f"no upper parameter truncates the series within {max_terms} terms"
        )
    c = params.c
    if c <= 0 and c.denominator == 1 and -c < last:
        raise ZeroDivisionError(
            f"lower-parameter factor c + {-c.numerator} vanishes before truncation"
        )
    a_num, a_den = params.a.numerator, params.a.denominator
    b_num, b_den = params.b.numerator, params.b.denominator
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
    rows: list[tuple[int, ...]],
    weights: list[int],
) -> None:
    # rows and weights are _alternating_weights(n), for the literal side.
    # Series form of the literal sum: 2F1(m - n/2, m - n/2 + 1/2; m - n; 1)
    # times (-1)^m / (m! 4^m) * (n - 2m + 1)_m.  Exactly one upper parameter
    # is a nonpositive integer (which one depends on the parity of n), so the
    # series terminates after the term of index n//2 - m: the same number of
    # terms as the literal sum.
    params = HypergeometricParams(
        Fraction(2 * m - n, 2), Fraction(2 * m - n + 1, 2), m - n
    )
    expected_index = n // 2 - m
    index = truncation_index(params)
    report.count_case(
        index == expected_index,
        n=n,
        m=m,
        kind="truncation index",
        index=index,
        expected=expected_index,
    )
    prefactor = Fraction((-1) ** m, math.factorial(m) * 4**m) * pochhammer(n - 2 * m + 1, m)
    series_value = terminating_2f1(params) * prefactor
    literal = Fraction(_alternating_numerator(rows, weights, m), 4 ** (n // 2))
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
    _hypergeometric_case(n, m, report, *_alternating_weights(n))
    return report


def check_hypergeometric_sweep(n_max: int) -> CheckReport:
    """check_hypergeometric_form over every n <= n_max and valid m, with the
    literal side's Pascal rows and weights built once per n."""
    report = CheckReport("check-2f1", {"n_max": n_max})
    for n in range(n_max + 1):
        rows, weights = _alternating_weights(n)
        for m in range(n // 2 + 1):
            _hypergeometric_case(n, m, report, rows, weights)
    return report
