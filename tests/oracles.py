"""Independent brute-force oracles, used only by the tests.

Each one computes its quantity by a route the library never takes, so an
agreement between the two is evidence, not tautology.  ``digit_limit`` sets
the interpreter's int <-> str digit limit for a test's own conversions.
"""

from __future__ import annotations

import contextlib
import sys
from fractions import Fraction
from itertools import zip_longest
from math import comb, factorial
from operator import add
from typing import Sequence

from arctanderiv.composition import DerivativeJet
from arctanderiv.polynomial import ArctanRational, Polynomial

DEFAULT_DIGIT_LIMIT = getattr(sys.int_info, "default_max_str_digits", 0)


def current_digit_limit() -> int:
    """sys.get_int_max_str_digits(), or 0 (no limit) before Python 3.11."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


@contextlib.contextmanager
def digit_limit(limit: int):
    """Run the block with the int <-> str digit limit set to ``limit`` (0
    lifts it) and restore the previous limit in ``finally``.  Before Python
    3.11 there is no limit and this does nothing."""
    previous = current_digit_limit()
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        if hasattr(sys, "set_int_max_str_digits"):
            sys.set_int_max_str_digits(previous)


def euler_partition_count(n: int) -> int:
    """Partition numbers p(n) by the pentagonal-number recurrence."""
    table = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * table[m - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= m:
                total += sign * table[m - g2]
            k += 1
        table[m] = total
    return table[n]


def set_partition_count(n: int) -> int:
    """Bell number B_n by materializing every set partition of {0..n-1}."""

    def walk(element: int, blocks: list[list[int]]) -> int:
        if element == n:
            return 1
        count = 0
        for block in blocks:
            block.append(element)
            count += walk(element + 1, blocks)
            block.pop()
        blocks.append([element])
        count += walk(element + 1, blocks)
        blocks.pop()
        return count

    return walk(0, [])


def difference_quotient_derivative(coefficients: Sequence[int], x: Fraction) -> Fraction:
    """p'(x) through the symbolic difference quotient (p(x+h) - p(x)) / h,
    for p = sum_i coefficients[i] x^i.

    h stays a polynomial variable: p(x+h) is expanded by Horner's scheme in
    x + h on a plain list of Fraction coefficients in h, and p(x) is summed
    term by term.  Dividing by h shifts every coefficient down one power, so
    the constant term must vanish and the h^1 coefficient is the h -> 0 limit
    of the quotient.  Never touches Polynomial.
    """
    in_h = [Fraction(0)]
    for c in reversed(coefficients):
        times_x_plus_h = [a * x for a in in_h] + [Fraction(0)]
        for power, a in enumerate(in_h, 1):
            times_x_plus_h[power] += a
        times_x_plus_h[0] += c
        in_h = times_x_plus_h
    in_h[0] -= sum((c * x**i for i, c in enumerate(coefficients)), Fraction(0))
    assert in_h[0] == 0
    return (in_h + [Fraction(0)])[1]


def gaussian_derivative_value(n: int, x: Fraction) -> Fraction:
    """arctan^(n)(x) from Gaussian integers, for n >= 1.

    1/(1+x^2) = Im(1/(x-i)) gives arctan^(n)(x) =
    (-1)^(n-1) (n-1)! Im((x+i)^n) / (1+x^2)^n.  At x = p/q that is
    (-1)^(n-1) (n-1)! Im((p+iq)^n) q^n / (p^2+q^2)^n, with (p+iq)^n taken by
    binary powering on (real, imaginary) integer pairs: no jets, no
    binomials and no polynomials.
    """
    x = Fraction(x)
    p, q = x.numerator, x.denominator

    def times(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]

    power, base, exponent = (1, 0), (p, q), n
    while exponent:
        if exponent & 1:
            power = times(power, base)
        base = times(base, base)
        exponent >>= 1
    sign = -1 if (n - 1) & 1 else 1
    return Fraction(sign * factorial(n - 1) * power[1] * q**n, (p * p + q * q) ** n)


def arctan_numerator(n: int) -> dict[int, int]:
    """Power -> nonzero coefficient of the numerator of arctan^(n) over
    (1+x^2)^n, for n >= 1, from the same Gaussian-integer identity expanded
    by the binomial theorem with math.comb:

        (-1)^(n-1) (n-1)! Im((x+i)^n)
            = (-1)^(n-1) (n-1)! sum over odd k of C(n, k) (-1)^((k-1)/2) x^(n-k).
    """
    prefactor = (-1) ** (n - 1) * factorial(n - 1)
    return {
        n - k: prefactor * (-1) ** ((k - 1) // 2) * comb(n, k) for k in range(1, n + 1, 2)
    }


def pascal_triangle(rows: int) -> list[list[int]]:
    """Binomial table built purely by neighbor addition."""
    table = [[1]]
    for n in range(1, rows + 1):
        prev = table[-1]
        table.append([1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1])
    return table


def nth_derivative_value(p: Polynomial, n: int, x: Fraction) -> Fraction:
    """Differentiate a polynomial symbolically n times, then evaluate."""
    current = p
    for _ in range(n):
        current = current.derivative()
    return current.evaluate(x)


def alternating_sum_literal(n: int, m: int) -> Fraction:
    """sum_{i=m}^{n//2} (-1)^i 4^(-i) C(i, m) C(n-i, i), term by term in
    Fraction arithmetic with math.comb binomials."""
    return sum(
        (Fraction((-1) ** i * comb(i, m) * comb(n - i, i), 4**i) for i in range(m, n // 2 + 1)),
        Fraction(0),
    )


def taylor_shift_by_one(weights: list[int]) -> list[int]:
    """The coefficients of W(1 + t), where W(t) = sum_i weights[i] t^i, that
    is sum_i C(i, m) weights[i] for every m = 0..len(weights)-1.

    Horner's scheme in 1 + t, highest weight first, one polynomial at a time:
    each step multiplies by 1 + t through Pascal's rule, additions only.
    """
    poly = [weights[-1]]
    for w in reversed(weights[:-1]):
        poly = [w + poly[0], *map(add, poly[1:], poly[:-1]), poly[-1]]
    return poly


def weighted_sum_literal(n: int) -> Fraction:
    """sum_{i=0}^{n} (-1)^i C(2n+1-i, i) / (4^i (n+1-i)), term by term in
    Fraction arithmetic with math.comb binomials."""
    return sum(
        (Fraction((-1) ** i * comb(2 * n + 1 - i, i), 4**i * (n + 1 - i)) for i in range(n + 1)),
        Fraction(0),
    )


def forward_2f1(a: Fraction, b: Fraction, c: Fraction) -> Fraction:
    """sum_k (a)_k (b)_k / ((c)_k k!) at argument 1, summed forward in
    Fraction arithmetic, each term from the previous one by the term ratio.

    The sum stops at the first k where a + k or b + k vanishes, so a or b
    must be a nonpositive integer.  A vanishing c + k before that point
    raises ZeroDivisionError.
    """
    term = total = Fraction(1)
    k = 0
    while (a + k) * (b + k) != 0:
        term = term * (a + k) * (b + k) / ((c + k) * (k + 1))
        total += term
        k += 1
    return total


def times_one_plus_x2(coeffs: Sequence[int], j: int) -> list[int]:
    """The ascending coefficients of P (1+x^2)^j: j passes of c_i + c_(i-2)."""
    for _ in range(j):
        coeffs = list(map(add, [*coeffs, 0, 0], [0, 0, *coeffs]))
    return list(coeffs)


def compose(outer: Sequence[int], inner: Sequence[int]) -> list[int]:
    """The ascending coefficients of outer(inner(x)), by Horner's scheme."""
    result = [0]
    for c in reversed(outer):
        product = [0] * (len(result) + len(inner))
        for i, a in enumerate(result):
            for j, b in enumerate(inner, i):
                product[j] += a * b
        product[0] += c
        result = product
    return result


def rational_sum(r: ArctanRational, s: ArctanRational) -> ArctanRational:
    """r + s over the larger exponent, summed on coefficient lists."""
    k = max(r.exponent, s.exponent)
    a, b = (times_one_plus_x2(v.numerator.coefficients, k - v.exponent) for v in (r, s))
    return ArctanRational(Polynomial(map(sum, zip_longest(a, b, fillvalue=0))), k)


def quotient_rule_step(value: ArctanRational) -> ArctanRational:
    """One quotient-rule step on scale P / (1+x^2)^k, on coefficient lists:
    scale (P'(1+x^2) - 2kxP) / (1+x^2)^(k+1), with P' by the power rule and
    the product by 1+x^2 and the difference taken term by term."""
    p, k = value.primitive.coefficients, value.exponent
    top = times_one_plus_x2([i * c for i, c in enumerate(p)][1:], 1)
    for i, c in enumerate(p, 1):
        top[i] -= 2 * k * c
    return ArctanRational(Polynomial(top), k + 1, value.scale)


def square_chain_rule_unreduced(n: int, x: Fraction, jet: DerivativeJet) -> Fraction:
    """The collapsed chain rule for f(a + x^2) at x = p/q on derivative
    values, summed by Horner's scheme in A = 4p^2 c with the powers of
    B = q^2 d, with no common factor of A and B taken out:

        (2p)^(n&1) c^(n-h+1) sum_{k=0}^{h} w_k N_(n-k) A^(h-k) B^k
            / (d^(n+1) q^n),

    for w_k = n!/(k!(n-2k)!), h = n//2 and the derivative numerators
    N_j = f^(j) / r^(j+1) over the jet's ratio r = c/d.  The jet is read only
    through ``values`` and ``ratio``, so its stored Taylor numerators and the
    library's binomial weights are not used."""
    p, q = x.numerator, x.denominator
    c, d = jet.ratio.numerator, jet.ratio.denominator
    numerators = [value / jet.ratio ** (j + 1) for j, value in enumerate(jet.values)]
    assert all(numerator.denominator == 1 for numerator in numerators)
    half = n // 2
    p_step, q_step = 4 * p * p * c, q * q * d
    total = 0
    weight = 1
    q_power = 1
    for k in range(half + 1):
        total = total * p_step + weight * numerators[n - k].numerator * q_power
        weight = weight * (n - 2 * k) * (n - 2 * k - 1) // (k + 1)
        q_power *= q_step
    total *= c ** (n - half + 1)
    if n & 1:
        total *= 2 * p
    return Fraction(total, d ** (n + 1) * q**n)


def homogeneous_horner(coeffs: Sequence[int], p: int, q: int) -> int:
    """q^d P(p/q) for the d + 1 ascending coefficients of P, by one Horner
    loop in p over all of them, with the matching power of q folded into
    each nonzero coefficient."""
    value = coeffs[-1]
    q_power = 1
    for c in reversed(coeffs[:-1]):
        q_power *= q
        value = value * p + c * q_power if c else value * p
    return value
