"""Higher-order chain rules over exact derivative jets.

A jet is the value sequence (f(y0), f'(y0), ..., f^(n)(y0)) at one point,
stored as Taylor coefficients; composition rules consume jets only, so they
are indifferent to how the underlying functions are represented.  Contents:

* the generic n-th derivative of f(g(x)) as a weighted sum over partition
  multiplicity vectors,
* the specialized closed sum for h(x) = f(a + x^2), whose inner derivatives
  vanish beyond order two: binomial weights C(n-k, k), and n! once,
* the same specialization's coefficient family rebuilt by a differentiation
  recurrence, as an independent derivation of its factorial weights.

The public jets and rules take and return ``Fraction`` values; the kernels
under them, ``_reciprocal_square_jets``, ``_chain_weights`` and
``_square_chain_rule``, run in ints.  ``arctan._pointwise``, the route that
``derive --method=fdb`` prints and ``crosscheck`` checks, runs on those
kernels alone, with one row of ``_chain_weights`` per call for all points.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Iterator

from .digits import _fraction, _pair
from .polynomial import _ints, _Value

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "MultiplicityVector",
    "multiplicity_vectors",
    "DerivativeJet",
    "faa_di_bruno",
    "square_chain_rule",
    "square_chain_coefficients",
]

# Vector (l_1, ..., l_n) with sum(i * l_i) == n: l_i counts the parts of size
# i in one integer partition of n.
MultiplicityVector = tuple[int, ...]


def multiplicity_vectors(n: int) -> list[MultiplicityVector]:
    """All multiplicity vectors of n, in ascending lexicographic order.

    The order is part of the contract so downstream golden outputs stay
    stable.  The list has one entry per integer partition of n.
    """
    if n < 1:
        raise ValueError("multiplicity_vectors requires n >= 1")
    out: list[MultiplicityVector] = []
    vec: list[int] = []

    def extend(part: int, remaining: int) -> None:
        if remaining == 0:
            out.append(tuple(vec) + (0,) * (n - len(vec)))
            return
        if part > n or part > remaining:
            return
        for count in range(remaining // part + 1):
            vec.append(count)
            extend(part + 1, remaining - part * count)
            vec.pop()

    extend(1, n)
    return out


class DerivativeJet(_Value):
    """Derivative values (f(point), f'(point), ..., f^(order)(point)).

    A jet is stored as integer Taylor numerators T_k and one rational ratio r,

        f^(k)(point) / k! = T_k * r^(k+1),

    so the chain rules work in ``int`` throughout; ``values`` multiplies k!
    back in.  ``__init__`` takes this stored form as given, and ``of_values``
    builds one from the values; points, ratios and values are ``int`` or
    ``Fraction`` (TypeError otherwise).  The form is not unique (T_k t^(k+1)
    with r/t stores the same values), so equality and hash compare the point
    and the values, not the stored fields.

    >>> from fractions import Fraction
    >>> DerivativeJet.of_reciprocal(Fraction(-5, 4), 2)
    DerivativeJet(point=Fraction(-5, 4), numerators=(1, -1, 1), ratio=Fraction(-4, 5))
    >>> DerivativeJet.of_values(1, (Fraction(1, 2), Fraction(-1, 3), 1)).numerators
    (3, -12, 108)
    """

    __slots__ = ("point", "numerators", "ratio")
    point: Fraction
    numerators: tuple[int, ...]
    ratio: Fraction

    def __init__(self, point: int | Fraction, numerators: Iterable[int], ratio: int | Fraction):
        numerators = _ints(numerators, "a jet numerator")
        if not numerators:
            raise ValueError("a jet needs at least the order-0 value")
        object.__setattr__(self, "point", _fraction(*_pair(point, "a jet point")))
        object.__setattr__(self, "numerators", tuple(numerators))
        object.__setattr__(self, "ratio", _fraction(*_pair(ratio, "a jet ratio")))

    @classmethod
    def of_values(cls, point: int | Fraction, values: Iterable[int | Fraction]) -> DerivativeJet:
        """The jet with these values, stored over L, the lcm of the
        denominators of F_k = v_k/k!: r = 1/L and T_k = F_k L^(k+1)."""
        pairs = [_pair(v, "a jet value") for v in values]
        taylor = [_fraction(p, q * math.factorial(k)) for k, (p, q) in enumerate(pairs)]
        common = math.lcm(*(f.denominator for f in taylor))
        numerators = [int(f * common ** (k + 1)) for k, f in enumerate(taylor)]
        return cls(point, numerators, _fraction(1, common))

    def _taylor(self) -> list[Fraction]:
        """The Taylor coefficients f^(k)(point)/k! = T_k r^(k+1)."""
        c, d = self.ratio.numerator, self.ratio.denominator
        return [_fraction(t * c ** (k + 1), d ** (k + 1)) for k, t in enumerate(self.numerators)]

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(math.factorial(k) * f for k, f in enumerate(self._taylor()))

    @property
    def order(self) -> int:
        return len(self.numerators) - 1

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.point == other.point and self.values == other.values

    def __hash__(self) -> int:
        return hash((self.point, self.values))

    @classmethod
    def of_reciprocal(cls, point: int | Fraction, order: int) -> DerivativeJet:
        """Jet of y -> 1/y: f^(k)(y0)/k! = (-1)^k / y0^(k+1), stored as
        T_k = (-1)^k and r = 1/y0.  T_k depends on k only and r on y0 only,
        so the order-k jet is the first k+1 values of any longer one."""
        p, q = _pair(point, "a jet point")
        if p == 0:
            raise ZeroDivisionError("reciprocal jet undefined at 0")
        return cls(_fraction(p, q), [-1 if k & 1 else 1 for k in range(order + 1)], _fraction(q, p))


def faa_di_bruno(n: int, f_jet: DerivativeJet, g_jet: DerivativeJet) -> Fraction:
    """n-th derivative of f(g(x)) at g_jet.point, from the two jets alone.

    n! times the n-th Taylor coefficient of f(g(x)): with F_j = f^(j)/j! and
    G_i = g^(i)/i!, the sum over every multiplicity vector l of n of

        |l|!/(l_1! ... l_n!) * F_|l| * prod_i G_i^l_i,   |l| = l_1 + ... + l_n.

    n = 0 returns the plain composed value.  Jets shorter than n, or an f jet
    not anchored at the value of g, are invalid arguments.
    """
    if n < 0:
        raise ValueError("derivative order must be >= 0")
    if f_jet.order < n or g_jet.order < n:
        raise ValueError(f"faa_di_bruno needs jets of order >= {n}")
    f_taylor, g_taylor = f_jet._taylor(), g_jet._taylor()
    if f_jet.point != g_taylor[0]:
        raise ValueError("the f jet must be taken at the value of g")
    if n == 0:
        return f_taylor[0]
    total = 0
    for vec in multiplicity_vectors(n):
        order = sum(vec)
        multinomial = math.factorial(order) // math.prod(map(math.factorial, vec))
        inner = math.prod(g**li for g, li in zip(g_taylor[1:], vec))
        total += multinomial * f_taylor[order] * inner
    return math.factorial(n) * total


def square_chain_rule(n: int, x: int | Fraction, f_jet: DerivativeJet) -> Fraction:
    """n-th derivative at x of h(x) = f(a + x^2), given the jet of f at a + x^2.

    Because the inner function has vanishing derivatives beyond order two, the
    generic composition sum collapses to sum_k w_k (2x)^(n-2k) f^(n-k)(a + x^2),
    w_k = n!/(k!(n-2k)!).  The paper's step w_k (n-k)! = n! C(n-k, k) puts it
    on the Taylor coefficients F_j = f^(j)/j! that the jet stores:

        h^(n)(x) = n! sum_{k=0}^{n//2} C(n-k, k) (2x)^(n-2k) F_(n-k)(a + x^2).

    With x = p/q, h = n//2, F_j = T_j (c/d)^(j+1) and n - 2k = (n&1) + 2(h-k),
    h^(n)(x) times d^(n+1) q^n is

        n! (2p)^(n&1) c^(n-h+1) sum_{k=0}^{h} C(n-k, k) T_(n-k) A^(h-k) B^k,

    with A = 4p^2 c and B = q^2 d.  Each term has total degree h in A and B,
    so with g = gcd(A, B) the sum is g^h times the same sum in A/g and B/g,
    exactly; it is accumulated in ``int`` by Horner's scheme in A/g, and g^h
    and n! are multiplied in once.  For the reciprocal jet of 1 + x^2
    (c = q^2, d = p^2 + q^2), g is q^2 or 2q^2, which halves the width of
    every power and of the running total; at x = 0, A = 0 and g = B.  The
    weights, about n bits each, stream in from :func:`_chain_weights`, and
    the only Fraction built is the result over d^(n+1) q^n.

    The jet is trusted to be anchored at the intended inner value; only its
    order is validated.
    """
    if n < 0:
        raise ValueError("derivative order must be >= 0")
    if f_jet.order < n:
        raise ValueError(f"square_chain_rule needs a jet of order >= {n}")
    p, q = _pair(x, "a point")
    ratio = f_jet.ratio.numerator, f_jet.ratio.denominator
    weights = _chain_weights(n, f_jet.numerators)
    return _fraction(*_square_chain_rule(n, p, q, ratio, weights))


def _chain_weights(n: int, numerators: tuple[int, ...]) -> Iterator[int]:
    """C(n-k, k) T_(n-k) for k = 0..n//2, the point-free factors of the
    order-n sum, by the exact update C(n-k-1, k+1) = C(n-k, k) (n-2k)(n-2k-1)
    / ((k+1)(n-k)), which gives 0 after the last weight (n - k = 0 only at
    n = 0).  The module imports nothing from ``identities`` or
    ``combinatorics``, which hold the binomial rows that the sweeps check:
    this route is checked against the quotient-rule oracle.
    ``arctan._pointwise`` lists one row for all its points; for one point it
    streams the row (a list is about as large as the sum)."""
    binomial = 1
    for k in range(n // 2 + 1):
        yield binomial * numerators[n - k]
        binomial = binomial * (n - 2 * k) * (n - 2 * k - 1) // ((k + 1) * max(n - k, 1))


def _reciprocal_square_jets(
    order: int, points: Iterable[tuple[int, int]]
) -> tuple[tuple[int, ...], list[tuple[int, int]]]:
    """``DerivativeJet.of_reciprocal(1 + x^2, order)`` at each lowest-terms
    x = p/q, q > 0, of ``points``: the numerators (-1)^k once, since they do
    not depend on the point, and each ratio 1/(1 + x^2) as the pair
    (q^2, p^2 + q^2), in lowest terms since gcd(p, q) = 1."""
    numerators = ((1, -1) * (order // 2 + 1))[: order + 1]
    return numerators, [(q * q, p * p + q * q) for p, q in points]


def _square_chain_rule(
    n: int, p: int, q: int, ratio: tuple[int, int], weights: Iterable[int]
) -> tuple[int, int]:
    """square_chain_rule(n, p/q, f_jet) as an unreduced (numerator,
    denominator) pair of ints, for q > 0, the jet's ratio as a (c, d) pair
    with d > 0 and the weights ``_chain_weights(n, f_jet.numerators)``;
    ``crosscheck`` holds it, through ``arctan._pointwise``, against the
    oracle's own kernel, ``ArctanRational._evaluate``."""
    c, d = ratio
    half = n // 2
    p_step, q_step = 4 * p * p * c, q * q * d
    common = math.gcd(p_step, q_step)
    p_step //= common
    q_step //= common
    total = 0
    q_power = 1
    for weight in weights:
        total = total * p_step + weight * q_power
        q_power *= q_step
    total *= common**half * c ** (n - half + 1) * math.factorial(n)
    if n & 1:
        total *= 2 * p
    return total, d ** (n + 1) * q**n


def square_chain_coefficients(n: int) -> list[int]:
    """Coefficients c_k = w_k of the h(x) = f(a + x^2) expansion, for one
    order n, rebuilt purely by the differentiation recurrence.

    The expansion reads h^(n)(x) = sum_k c_k (2x)^(n-2k) f^(n-k)(a + x^2).
    Differentiating the order-m sum term by term sends c_k unchanged into the
    order-(m+1) term k (the chain factor 2x joins the power) and carries
    2*(m-2k)*c_k into term k+1 (the power-rule factor, rewritten on the (2x)
    basis).  Seeded with (1,) at order 1; neither the factorial closed form
    nor the binomials of :func:`_chain_weights` are used here, so this is an
    independent derivation of the same family.
    """
    if n < 1:
        raise ValueError("square_chain_coefficients requires n >= 1")
    coeffs = [1]
    for m in range(1, n):
        padded = [0, *coeffs, 0]
        coeffs = [padded[k + 1] + 2 * (m - 2 * k + 2) * padded[k] for k in range((m + 1) // 2 + 1)]
    return coeffs
