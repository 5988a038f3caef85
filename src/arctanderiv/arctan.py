"""Four independent routes to the n-th derivative of arctan, cross-checked
for exact agreement.

* closed: (n-1)! q_{n-1}(x) / (1+x^2)^n with the integer polynomial family q.
* expanded (``prop12``): the alternating-binomial expansion, with the
  literal sums alternating_binomial_sum(n-1, m) as coefficients, streamed
  from ``identities._sweep_numerators`` by ``_prop12_orders``.
* pointwise: chain rule for 1/(1 + x^2) = reciprocal composed with 1 + x^2,
  evaluated at a point through derivative jets, in ints (``_pointwise``).
* oracle: brute-force repeated quotient-rule differentiation, streamed by
  ``_oracle_orders``: the ground truth the other three are measured against.

``crosscheck`` holds the first three against the oracle, order by order on
those streams.  All routes take n = the derivative order of arctan itself (n >= 1).

Only ``digits`` and ``polynomial`` are imported with this module.  A route
imports ``composition`` or ``identities`` when it runs, and reads their
kernels from those modules then, so that ``closed`` and ``oracle`` compile
neither and a rebinding of a kernel in its home module reaches every route.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Iterator

from . import digits
from .digits import _fraction, _ratio_str
from .polynomial import ArctanRational

if TYPE_CHECKING:
    from fractions import Fraction

    from .identities import CheckReport

__all__ = [
    "DEFAULT_SAMPLE_POINTS",
    "q_polynomial",
    "arctan_derivative_closed",
    "arctan_derivative_expanded",
    "arctan_derivative_pointwise",
    "arctan_derivative_oracle",
    "crosscheck",
]

# crosscheck's sample points by default, as lowest-terms (p, q) pairs.
DEFAULT_SAMPLE_POINTS = ((0, 1), (1, 1), (-1, 1), (1, 2), (-1, 2), (3, 7))


def _point(x: int | Fraction | tuple[int, int]) -> tuple[int, int]:
    """A sample point as its lowest-terms pair (p, q), q > 0: from such a
    pair, as the CLI reads it, or from an int or a ``Fraction``."""
    if type(x) is tuple and len(x) == 2 and type(x[0]) is type(x[1]) is int:
        if x[1] < 1 or math.gcd(*x) != 1:
            raise ValueError(f"a sample point pair must be in lowest terms, q > 0: {x!r}")
        return x
    return digits._pair(x, "a sample point")


def _require_order(n: int) -> None:
    if n < 1:
        raise ValueError("arctan derivative order must be >= 1 (arctan itself is not rational)")


def q_polynomial(n: int) -> tuple[int, ...]:
    """The ascending coefficients of the degree-n integer polynomial q_n
    with arctan^(n+1)(x) = n! q_n(x) / (1+x^2)^(n+1):

        q_n(x) = (-1)^n * sum over even k in [0, n] of
                 C(n+1, k+1) (-1)^(k/2) x^(n-k).

    Only even k contribute, so q_n has parity (-1)^n; the k = 0 term makes the
    leading coefficient (-1)^n (n+1).  Each next term down follows by the
    term ratio c_(k+2) / c_k = -(n-k)(n-k-1) / ((k+2)(k+3)), exact at every
    step, so no binomial and no Pascal row is built.
    """
    if n < 0:
        raise ValueError("q_polynomial requires n >= 0")
    coeffs = [0] * (n + 1)
    c = -(n + 1) if n & 1 else n + 1
    for k in range(0, n + 1, 2):
        coeffs[n - k] = c
        c = -c * (n - k) * (n - k - 1) // ((k + 2) * (k + 3))
    return tuple(coeffs)


def arctan_derivative_closed(n: int) -> ArctanRational:
    """arctan^(n) as (n-1)! q_{n-1}(x) / (1+x^2)^n, n >= 1, with (n-1)!
    passed as the scale, never multiplied into q_{n-1}."""
    _require_order(n)
    return ArctanRational(q_polynomial(n - 1), n, scale=math.factorial(n - 1))


def _expanded(n: int, numerators: list[int]) -> ArctanRational:
    """arctan^(n) from the alternating-binomial expansion of order p = n - 1:

        p! 2^p (-1)^p / (1+x^2)^(p+1) * sum_m c_m x^(p-2m),

    with c_m = alternating_binomial_sum(p, m) = numerators[m] / 2^p.  The
    2^p cancels, so the numerator is the integer prefactor (-1)^p p!, passed
    as the scale, times sum_m numerators[m] x^(p-2m): no Fraction is built
    and the prefactor is never multiplied in.  The row sets the degree.
    """
    coeffs = [0] * (2 * len(numerators) - (n & 1))
    coeffs[::-2] = numerators
    return ArctanRational(coeffs, n, scale=(-1) ** (n - 1) * math.factorial(n - 1))


def _prop12_orders(n_max: int) -> Iterator[tuple[int, list[int]]]:
    """(n, row n - 1 of ``identities._sweep_numerators``) for n = 1..n_max."""
    from . import identities

    return ((p + 1, numerators) for p, numerators in identities._sweep_numerators(n_max - 1))


def _order(orders: Iterator[tuple[int, Any]], n: int) -> Any:
    """The value that an order stream labels n, n >= 1, read no further."""
    _require_order(n)
    return next(value for order, value in orders if order == n)


def arctan_derivative_expanded(n: int) -> ArctanRational:
    """arctan^(n) by :func:`_expanded` from order n of :func:`_prop12_orders`."""
    return _expanded(n, _order(_prop12_orders(n), n))


def arctan_derivative_pointwise(n: int, x: int | Fraction) -> Fraction:
    """arctan^(n)(x) at one rational x, through derivative jets, by :func:`_pointwise`."""
    _require_order(n)
    return _fraction(*_pointwise(n, [digits._pair(x, "a point")])[0])


def _pointwise(n: int, points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """arctan^(n), n >= 1, at each lowest-terms pair p/q, q > 0, of
    ``points``, as unreduced (numerator, denominator) int pairs, denominators > 0.

    arctan' = 1/(1 + x^2) is the reciprocal composed with a + x^2 (a = 1), so
    arctan^(n) is the (n-1)-st derivative of that composition: build the jet
    of y -> 1/y at 1 + x^2 and apply the specialized chain rule, a sum on
    the binomial weights C(n-1-k, k) with (n-1)! multiplied in once.  These
    are the int kernels of ``DerivativeJet.of_reciprocal`` and
    ``square_chain_rule``.  The jet's numerators (-1)^k are the same at
    every point, so one row of weights serves all the points: it streams
    for one point, and several points read one list of it.
    """
    from . import composition

    numerators, ratios = composition._reciprocal_square_jets(n - 1, points)
    weights = composition._chain_weights(n - 1, numerators)
    if len(points) > 1:
        weights = list(weights)
    chain_rule = composition._square_chain_rule
    return [chain_rule(n - 1, *x, ratio, weights) for x, ratio in zip(points, ratios)]


def _oracle_orders(n_max: int) -> Iterator[tuple[int, ArctanRational]]:
    """(n, arctan^(n)) for n = 1..n_max, n_max >= 1, by quotient-rule steps from 1/(1+x^2)."""
    value = ArctanRational(1, 1)
    yield 1, value
    for n in range(2, n_max + 1):
        value = value.derivative()
        yield n, value


def arctan_derivative_oracle(n: int) -> ArctanRational:
    """arctan^(n), order n of :func:`_oracle_orders`."""
    return _order(_oracle_orders(n), n)


def crosscheck(n_max: int, sample_points=None) -> CheckReport:
    """Exact agreement of all four routes for every n <= n_max, at
    ``sample_points`` (by default DEFAULT_SAMPLE_POINTS): ints, Fractions
    or lowest-terms (p, q) pairs, q > 0, as the CLI reads them.

    The closed and expanded forms must equal the quotient-rule oracle
    structurally (same primitive part, exponent and scale); the jet route must
    match the oracle's value at every sample point.  Each order comes from
    what ``derive`` prints from: ``_oracle_orders``, ``_prop12_orders`` and ``_pointwise``.
    A stream that stops short is one mismatch of kind "coverage": the last order
    must be n_max and the cases n_max (2 + len(points)).

    A pointwise case is decided in integers: ``_pointwise`` and the oracle's
    ``ArctanRational._evaluate`` each give an unreduced (numerator, denominator)
    pair, and the case passes when a d == b c; a mismatch reports the point and both pairs.
    """
    from . import identities

    if n_max < 1:
        raise ValueError("crosscheck requires n_max >= 1")
    points = list(map(_point, DEFAULT_SAMPLE_POINTS if sample_points is None else sample_points))
    report = identities.CheckReport(
        "crosscheck", {"n_max": n_max, "points": [_ratio_str(*x) for x in points]}
    )
    n = 0
    for (n, oracle), (order, numerators) in zip(_oracle_orders(n_max), _prop12_orders(n_max)):
        closed = arctan_derivative_closed(n)
        expanded = _expanded(order, numerators)
        report.count_case(
            closed == oracle, n=n, pair="closed vs oracle", closed=closed, oracle=oracle
        )
        report.count_case(
            expanded == oracle, n=n, pair="expanded vs oracle", expanded=expanded, oracle=oracle
        )
        for x, (top, bottom) in zip(points, _pointwise(n, points)):
            expected_top, expected_bottom = oracle._evaluate(*x)
            if top * expected_bottom == expected_top * bottom:
                report.count_case(True)
            else:
                report.count_case(
                    False,
                    n=n,
                    pair="pointwise vs oracle",
                    point=x,
                    pointwise=(top, bottom),
                    oracle=(expected_top, expected_bottom),
                )
    cases = n_max * (2 + len(points))
    if n != n_max or report.cases != cases:
        report.count_case(False, n=n, kind="coverage", cases=report.cases, expected=cases)
    return report
