"""Four independent routes to the n-th derivative of arctan, cross-checked
for exact agreement.

* closed: (n-1)! q_{n-1}(x) / (1+x^2)^n with the integer polynomial family q.
* expanded (``prop12``): the alternating-binomial expansion, with the
  literal sums alternating_binomial_sum(n-1, m) as coefficients, taken from
  ``identities._sweep_numerators``; this module keeps no copy of the sum.
* pointwise: chain rule for 1/(1 + x^2) = reciprocal composed with 1 + x^2,
  evaluated at a point through derivative jets.
* oracle: brute-force repeated quotient-rule differentiation, the ground
  truth the other three are measured against.

``crosscheck`` holds each of the first three against the oracle.  All routes
take n = the derivative order of arctan itself (n >= 1).
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction

from .composition import DerivativeJet, _chain_weights, _square_chain_rule, square_chain_rule
from .identities import _sweep_numerators
from .polynomial import ArctanRational, Polynomial, _rational, exact_str
from .reports import CheckReport

__all__ = [
    "DEFAULT_SAMPLE_POINTS",
    "q_polynomial",
    "arctan_derivative_closed",
    "expansion_coefficients",
    "arctan_derivative_expanded",
    "arctan_derivative_pointwise",
    "arctan_derivative_oracle",
    "crosscheck",
]

DEFAULT_SAMPLE_POINTS: tuple[Fraction, ...] = (
    Fraction(0),
    Fraction(1),
    Fraction(-1),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(3, 7),
)


def _require_order(n: int) -> None:
    if n < 1:
        raise ValueError("arctan derivative order must be >= 1 (arctan itself is not rational)")


def q_polynomial(n: int) -> Polynomial:
    """Degree-n integer polynomial q_n with
    arctan^(n+1)(x) = n! q_n(x) / (1+x^2)^(n+1):

        q_n(x) = (-1)^n * sum over even k in [0, n] of
                 C(n+1, k+1) (-1)^(k/2) x^(n-k).

    Only even k contribute, so q_n has parity (-1)^n; the k = 0 term makes the
    leading coefficient (-1)^n (n+1).  Row n+1 of Pascal's triangle is built
    in place by row[j] = row[j-1] (n+2-j) / j, exact at every step, which
    costs far less than one ``math.comb`` call per entry.
    """
    if n < 0:
        raise ValueError("q_polynomial requires n >= 0")
    row = [1] * (n + 2)
    for j in range(1, n + 2):
        row[j] = row[j - 1] * (n + 2 - j) // j
    sign = (-1) ** n
    coeffs = [0] * (n + 1)
    for k in range(0, n + 1, 2):
        coeffs[n - k] = sign * row[k + 1] * (-1) ** (k // 2)
    return Polynomial(coeffs)


def arctan_derivative_closed(n: int) -> ArctanRational:
    """arctan^(n) as (n-1)! q_{n-1}(x) / (1+x^2)^n, n >= 1, with (n-1)!
    passed as the scale, never multiplied into q_{n-1}."""
    _require_order(n)
    return ArctanRational(q_polynomial(n - 1), n, scale=math.factorial(n - 1))


def _expanded(p: int, numerators: list[int]) -> ArctanRational:
    """arctan^(p+1) assembled from the alternating-binomial expansion:

        p! 2^p (-1)^p / (1+x^2)^(p+1) * sum_m c_m x^(p-2m),

    with c_m = alternating_binomial_sum(p, m) = numerators[m] / 4^(p//2).
    Since 2^p / 4^(p//2) = 2^(p&1), the numerator is the integer prefactor
    (-1)^p p! 2^(p&1), passed as the scale, times sum_m numerators[m] x^(p-2m),
    so no Fraction is built and the prefactor is never multiplied in.
    """
    coeffs = [0] * (p + 1)
    coeffs[p::-2] = numerators
    prefactor = (-1) ** p * (math.factorial(p) << (p & 1))
    return ArctanRational(Polynomial(coeffs), p + 1, scale=prefactor)


def _literal_numerators(n: int) -> list[int]:
    """The last row of ``_sweep_numerators(n)``: 4^(n//2) c_m, m = 0..n//2."""
    return deque(_sweep_numerators(n), maxlen=1)[0][1]


def expansion_coefficients(n: int) -> tuple[Fraction, ...]:
    """All expansion coefficients c_m = alternating_binomial_sum(n, m),
    m = 0..n//2, of one expansion order n."""
    if n < 0:
        raise ValueError("expansion_coefficients requires n >= 0")
    denominator = 4 ** (n // 2)
    return tuple(Fraction(numerator, denominator) for numerator in _literal_numerators(n))


def arctan_derivative_expanded(n: int) -> ArctanRational:
    """arctan^(n) assembled by :func:`_expanded` from the literal numerators
    of expansion order n - 1."""
    _require_order(n)
    return _expanded(n - 1, _literal_numerators(n - 1))


def arctan_derivative_pointwise(n: int, x: int | Fraction) -> Fraction:
    """arctan^(n)(x) for one rational x, through derivative jets.

    arctan' = 1/(1 + x^2) is the reciprocal composed with a + x^2 (a = 1), so
    arctan^(n) is the (n-1)-st derivative of that composition: build the jet
    of y -> 1/y at 1 + x^2 and apply the specialized chain rule, a sum on
    the binomial weights C(n-1-k, k) with (n-1)! multiplied in once.
    """
    _require_order(n)
    at = _rational(x, "a point")
    jet = DerivativeJet.of_reciprocal(1 + at * at, n - 1)
    return square_chain_rule(n - 1, at, jet)


def arctan_derivative_oracle(n: int) -> ArctanRational:
    """Brute force: differentiate 1/(1+x^2) through n-1 quotient-rule steps,
    each on the primitive part P, with the content moved into the scale."""
    _require_order(n)
    value = ArctanRational(Polynomial((1,)), 1)
    for _ in range(n - 1):
        value = value.derivative()
    return value


def crosscheck(n_max: int, sample_points=DEFAULT_SAMPLE_POINTS) -> CheckReport:
    """Exact agreement of all four routes for every n <= n_max.

    The closed and expanded forms must equal the quotient-rule oracle
    structurally (same primitive part, exponent and scale); the jet route must
    match the oracle's value at every sample point.  Results are keyed by n,
    so the report does not depend on evaluation order.

    The oracle and the literal numerators (row p = n - 1 of
    ``_sweep_numerators``, O(n) additions per order) are streamed alongside
    the n loop.  The reciprocal jet is built once per sample point, at order
    n_max - 1: a shorter reciprocal jet is a prefix of a longer one, so each
    n gets the value a jet of exactly that order gives.  Every reciprocal
    jet has T_k = (-1)^k, so one row of chain-rule weights per order,
    (-1)^(n-1-k) C(n-1-k, k) from ``composition._chain_weights``, serves all
    the points.

    A pointwise case is decided in integers: the jet route and the oracle
    each give an unreduced (numerator, denominator) pair, from their own
    kernels (``_square_chain_rule`` and ``ArctanRational._evaluate``), and
    the case passes when a d == b c.  Both values become a ``Fraction`` only
    in the context of a mismatch.
    """
    if n_max < 1:
        raise ValueError("crosscheck requires n_max >= 1")
    points = tuple(_rational(p, "a sample point") for p in sample_points)
    report = CheckReport(
        "crosscheck", {"n_max": n_max, "points": [exact_str(p) for p in points]}
    )
    jets = [DerivativeJet.of_reciprocal(1 + x * x, n_max - 1) for x in points]
    oracle = ArctanRational(Polynomial((1,)), 1)
    for p, numerators in _sweep_numerators(n_max - 1):
        n = p + 1
        if n > 1:
            oracle = oracle.derivative()
        closed = arctan_derivative_closed(n)
        expanded = _expanded(p, numerators)
        report.count_case(
            closed == oracle, n=n, pair="closed vs oracle", closed=closed, oracle=oracle
        )
        report.count_case(
            expanded == oracle, n=n, pair="expanded vs oracle", expanded=expanded, oracle=oracle
        )
        weights = list(_chain_weights(n - 1, jets[0].numerators)) if jets else ()
        for x, jet in zip(points, jets):
            top, bottom = _square_chain_rule(n - 1, x.numerator, x.denominator, jet.ratio, weights)
            expected_top, expected_bottom = oracle._evaluate(x.numerator, x.denominator)
            if top * expected_bottom == expected_top * bottom:
                report.count_case(True)
            else:
                report.count_case(
                    False,
                    n=n,
                    pair="pointwise vs oracle",
                    point=x,
                    pointwise=Fraction(top, bottom),
                    oracle=Fraction(expected_top, expected_bottom),
                )
    return report
