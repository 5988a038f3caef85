"""Four independent routes to the n-th derivative of arctan, cross-checked
for exact agreement.

* closed: (n-1)! q_{n-1}(x) / (1+x^2)^n, streamed by ``_closed_orders``.
* expanded (``prop12``): the alternating-binomial expansion, with the
  literal sums alternating_binomial_sum(n-1, m) as coefficients, streamed
  from ``combinatorics._sweep_numerators`` by ``_prop12_orders``.
* pointwise (``fdb``): chain rule for 1/(1 + x^2) = reciprocal composed with
  1 + x^2, evaluated at a point through derivative jets, in ints (``_pointwise``).
* oracle: brute-force repeated quotient-rule differentiation, streamed by
  ``_oracle_orders``: the ground truth the other three are measured against.

The package root's ``ROUTES`` names them, and ``crosscheck`` holds each
against the oracle order by order.  n is the order of arctan^(n), n >= 1.

Only ``digits`` and ``polynomial`` are imported with this module.  A route
imports ``composition`` or ``combinatorics`` when it runs, and reads their
kernels from those modules then, so that ``closed`` and ``oracle`` compile
neither and a rebinding of a kernel in its home module reaches every route.
``crosscheck`` fills a ``reports.CheckReport`` and compiles no
``identities``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Iterator

from . import digits
from .digits import _fraction, _ratio_str
from .polynomial import ArctanRational

if TYPE_CHECKING:
    from fractions import Fraction

    from .reports import CheckReport

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


def _closed_orders(n_max: int, first: int = 1) -> Iterator[tuple[int, ArctanRational]]:
    """(n, :func:`arctan_derivative_closed` of n) for n = first..n_max."""
    return ((n, arctan_derivative_closed(n)) for n in range(first, n_max + 1))


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


def _prop12_orders(n_max: int, first: int = 1) -> Iterator[tuple[int, ArctanRational]]:
    """(n, :func:`_expanded` of n and row n - 1 of ``combinatorics._sweep_numerators``)
    for n = first..n_max: the rows below are stepped, not expanded."""
    from . import combinatorics

    rows = combinatorics._sweep_numerators(n_max - 1)
    return ((p + 1, _expanded(p + 1, numerators)) for p, numerators in rows if p >= first - 1)


def _order(orders: Callable[[int, int], Iterator], n: int) -> ArctanRational:
    """Order n, n >= 1, of the order stream ``orders``, started at n."""
    _require_order(n)
    [(_, value)] = orders(n, n)
    return value


def arctan_derivative_expanded(n: int) -> ArctanRational:
    """arctan^(n), order n of :func:`_prop12_orders`."""
    return _order(_prop12_orders, n)


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
    the binomial weights C(n-1-k, k) with (n-1)! multiplied in once.
    ``_reciprocal_square_jets`` builds the jets' numerators and ratios
    itself, not by ``DerivativeJet.of_reciprocal``; only the chain rule runs
    the int kernels of ``square_chain_rule``, ``_chain_weights`` and
    ``_square_chain_rule``.  The numerators (-1)^k are the same at every
    point, so one row of weights serves all the points: it streams for one
    point, and several points read one list of it.
    """
    from . import composition

    numerators, ratios = composition._reciprocal_square_jets(n - 1, points)
    weights = composition._chain_weights(n - 1, numerators)
    if len(points) > 1:
        weights = list(weights)
    chain_rule = composition._square_chain_rule
    return [chain_rule(n - 1, *x, ratio, weights) for x, ratio in zip(points, ratios)]


def _oracle_orders(n_max: int, first: int = 1) -> Iterator[tuple[int, ArctanRational]]:
    """(n, arctan^(n)) for n = first..n_max, by quotient-rule steps from 1/(1+x^2)."""
    value = ArctanRational(1, 1)
    for n in range(1, n_max + 1):
        if n > 1:
            value = value.derivative()
        if n >= first:
            yield n, value


def arctan_derivative_oracle(n: int) -> ArctanRational:
    """arctan^(n), order n of :func:`_oracle_orders`."""
    return _order(_oracle_orders, n)


def crosscheck(n_max: int, sample_points=None) -> CheckReport:
    """Exact agreement of every route of ``ROUTES`` with the oracle for every
    n <= n_max, at ``sample_points`` (by default DEFAULT_SAMPLE_POINTS):
    ints, Fractions or lowest-terms (p, q) pairs, q > 0, as the CLI reads them.

    It runs what ``derive`` prints from: each symbolic row's order stream,
    all side by side, and each pointwise row's function.  At each order, in
    table order, a symbolic value must equal the oracle's structurally, then
    a pointwise one the oracle's value at each point.  The report is closed
    at the count that the table declares, so a stream that stops short, or a
    row that the loop does not run, is one mismatch of kind "coverage".

    A context names its row by ``route``, its ``derive --method``; a symbolic
    one holds only ``n`` besides, as its two whole values grow as n^2.  A
    pointwise case is decided in integers: the route and the oracle's
    ``_evaluate`` give unreduced pairs a/b and c/d, and it passes when b and
    d are nonzero and a d == b c; a mismatch keeps the point and both pairs.
    It imports what it runs before its report starts the clock.
    """
    from . import ROUTES, combinatorics, composition, reports

    if n_max < 1:
        raise ValueError("crosscheck requires n_max >= 1")
    points = list(map(_point, DEFAULT_SAMPLE_POINTS if sample_points is None else sample_points))
    parameters = {"n_max": n_max, "points": [_ratio_str(*x) for x in points]}
    rows = {name: (kind, globals()[function]) for name, (kind, function) in ROUTES.items()}
    oracle_orders = rows.pop("oracle")[1]
    symbolic = [(name, run) for name, (kind, run) in rows.items() if kind == "symbolic"]
    pointwise = [(name, run) for name, (kind, run) in rows.items() if kind == "pointwise"]
    cases = sum(len(points) if kind == "pointwise" else 1 for kind, _ in rows.values())
    report = reports.CheckReport("crosscheck", parameters, n_max * cases)
    n = 0
    for (n, oracle), *values in zip(oracle_orders(n_max), *(run(n_max) for _, run in symbolic)):
        for (name, _), (_, value) in zip(symbolic, values):
            report.count_case(value == oracle, n=n, route=name)
        for name, route in pointwise:
            for x, (a, b) in zip(points, route(n, points)):
                c, d = oracle._evaluate(*x)
                if b and d and a * d == c * b:
                    report.count_case(True)
                else:
                    pairs = {"pointwise": (a, b), "oracle": (c, d)}
                    report.count_case(False, n=n, route=name, point=x, **pairs)
    return report.close(n)
