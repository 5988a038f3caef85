"""The terminating Gauss hypergeometric series 2F1(a, b; c; 1), the witness
that ``check-2f1`` in ``identities`` holds against the literal binomial
sums.

The series is only ever evaluated where it terminates, so the Gamma
function never appears.  The module reads nothing of the sums it is held
against: it imports only ``digits``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .digits import _fraction, _pair

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = ["NonTerminatingSeriesError", "truncation_index", "terminating_2f1"]


MAX_TERMS = 10**6
"""A series whose truncation index reaches this bound is refused as too
long, though it is finite."""


class NonTerminatingSeriesError(ArithmeticError):
    """The series is infinite, or finite with a truncation index of MAX_TERMS or more."""


def truncation_index(a: int | Fraction, b: int | Fraction) -> int | None:
    """Index of the last nonzero series term, or None when nothing truncates.

    The rising factorial (q)_k first vanishes at k = 1 - q for a nonpositive
    integer q, so the last surviving term has index -q; half-integers never
    reach zero.  a and b are ``int`` or ``Fraction`` (TypeError otherwise).
    """
    return _truncation_index(_pair(a, "a series parameter"), _pair(b, "a series parameter"))


def _truncation_index(a: tuple[int, int], b: tuple[int, int]) -> int | None:
    """truncation_index on lowest-terms pairs, unchecked, for the sweep."""
    candidates = [-num for num, den in (a, b) if den == 1 and num <= 0]
    return min(candidates) if candidates else None


def terminating_2f1(a: int | Fraction, b: int | Fraction, c: int | Fraction) -> Fraction:
    """Exact finite value of sum_k (a)_k (b)_k / ((c)_k k!) at argument 1.

    The sum runs k = 0..K with K the truncation index.  Term k = 0 is 1 and
    needs no division, so c is never touched when K = 0.  Every factor c + k
    with k < K is checked before the sum starts; a vanishing one is a genuine
    division by zero and raises.  NonTerminatingSeriesError is raised when no
    upper parameter truncates, and for K >= MAX_TERMS, finite but too long.

    The series is evaluated by backward Horner,
    1 + r_0 (1 + r_1 (... (1 + r_{K-1}))) with term ratio
    r_k = (a+k)(b+k) / ((c+k)(k+1)), in integers built from the numerators
    and denominators of a, b and c, and reduced by one gcd at the end.  It
    holds for any rational a, b and c, each an ``int`` or a ``Fraction``
    (TypeError otherwise).
    """
    a, b, c = [_pair(v, "a series parameter") for v in (a, b, c)]
    return _fraction(*_terminating_2f1(a, b, c, _truncation_index(a, b)))


def _terminating_2f1(
    a: tuple[int, int], b: tuple[int, int], c: tuple[int, int], last: int | None
) -> tuple[int, int]:
    """terminating_2f1 on lowest-terms pairs, unchecked, with ``last`` the
    truncation index of a and b, as an unreduced (numerator, denominator)
    pair of ints; the denominator may be negative."""
    if last is None or last >= MAX_TERMS:
        raise NonTerminatingSeriesError(
            f"no upper parameter truncates the series within {MAX_TERMS} terms"
        )
    (a_num, a_den), (b_num, b_den), (c_num, c_den) = a, b, c
    if c_den == 1 and c_num <= 0 and -c_num < last:
        raise ZeroDivisionError(f"lower-parameter factor c + {-c_num} vanishes before truncation")
    # r_k = (a_num + k a_den)(b_num + k b_den) c_den
    #       / ((c_num + k c_den)(k + 1) a_den b_den)
    upper_den = a_den * b_den
    numerator = denominator = 1
    for k in reversed(range(last)):
        up = (a_num + k * a_den) * (b_num + k * b_den) * c_den
        down = (c_num + k * c_den) * (k + 1) * upper_den
        denominator *= down
        numerator = numerator * up + denominator
    return numerator, denominator
