"""The integer polynomials of the routes, the rational-function form
scale * P(x) / (1+x^2)^k in which every arctan derivative lives, and the
exact text form of their numbers at any size.

Coefficients, scales and exponents are ``int`` only (every arctan numerator
is an integer polynomial), so all symbolic work is integer arithmetic and
rationals appear only as values at a rational point.  There is no ring
arithmetic on these values: each route builds its numerator's coefficients
itself, and the classes only store, differentiate, evaluate and print them.
The only divisor ever needed is 1+x^2, which ``ArctanRational`` detects by
P(i) = 0 and removes by synthetic division, with additions only.
"""

from __future__ import annotations

import functools
import math
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact
from fractions import Fraction
from typing import Iterable, Iterator

Term = tuple[int, str]

__all__ = ["Polynomial", "ArctanRational", "exact_str"]

# Exact decimal arithmetic on integers: no rounding at any size (Inexact
# traps if one ever would).
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])

# str() and Decimal() of an int cost time quadratic in its length, and from
# Python 3.11 str() refuses more than sys.get_int_max_str_digits() digits
# (4300 by default, never below 640 when set).  An int of at most this many
# bits (617 digits) is converted directly; a longer one is split in binary.
_DIRECT_BITS = 2048


@functools.lru_cache(maxsize=None)
def _two_power(j: int) -> Decimal:
    """2^(2^j) as an exact Decimal, by repeated squaring."""
    if not j:
        return Decimal(2)
    root = _two_power(j - 1)
    return _EXACT.multiply(root, root)


def _decimal(n: int) -> Decimal:
    """n as an exact Decimal, in time below quadratic in its length.

    Above _DIRECT_BITS bits, n = hi 2^w + lo with w = 2^j the largest power
    of two below the bit length of n, 0 <= lo < 2^w and hi = n >> w (a floor,
    so the sign stays with hi); both halves are converted the same way and
    joined by one exact multiply-add with the cached 2^w.
    """
    bits = n.bit_length()
    if bits <= _DIRECT_BITS:
        return Decimal(n)
    j = (bits - 1).bit_length() - 1
    hi = n >> (1 << j)
    lo = n - (hi << (1 << j))
    return _EXACT.add(_EXACT.multiply(_decimal(hi), _two_power(j)), _decimal(lo))


def exact_str(value: int | Fraction) -> str:
    """str(value) for an int or a Fraction of any size, through _decimal, with
    no int -> str digit limit and no call to sys.set_int_max_str_digits.

    >>> exact_str(Fraction(-3, 4)), exact_str(7)
    ('-3/4', '7')
    >>> exact_str(-(10**5000)) == "-1" + "0" * 5000
    True
    """
    if value.denominator != 1:
        return f"{exact_str(value.numerator)}/{exact_str(value.denominator)}"
    return str(_decimal(value.numerator))


def _repr(value: object) -> str:
    """repr(value), with the ints of an int, tuple or Fraction by exact_str."""
    if type(value) is int:
        return exact_str(value)
    if isinstance(value, Fraction):
        return f"Fraction({exact_str(value.numerator)}, {exact_str(value.denominator)})"
    if type(value) is not tuple:
        return repr(value)
    return f"({', '.join(map(_repr, value))}{',' * (len(value) == 1)})"


def _immutable(self, name, *value):
    raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")


class _Value:
    """Base of the immutable value classes: methods return new objects,
    equality is structural, and instances can be shared freely between
    threads.

    A subclass names its fields in ``__slots__`` and its ``__init__`` fills
    them once through ``object.__setattr__``; ``__setattr__`` and
    ``__delattr__`` raise, so copies and pickles rebuild a value through
    ``__init__`` (``__reduce__``).  Only an instance of the same class can
    be equal, field by field.
    """

    __slots__ = ()
    __setattr__ = __delattr__ = _immutable

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        return self.__class__, self._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={_repr(getattr(self, name))}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


def _ints(values: Iterable[int], what: str) -> list[int]:
    """values as a list of ``int``; any other type, even an integral
    ``Fraction``, raises TypeError."""
    values = list(values)
    wrong = set(map(type, values)) - {int}
    if wrong:
        raise TypeError(f"{what} must be int, not {wrong.pop().__name__}")
    return values


def _rational(value: int | Fraction, what: str) -> Fraction:
    """value as a Fraction; any type but int or Fraction raises TypeError."""
    if type(value) is int or isinstance(value, Fraction):
        return Fraction(value)
    raise TypeError(f"{what} must be int or Fraction, not {type(value).__name__}")


class Polynomial(_Value):
    """Integer coefficients in ascending powers; the zero polynomial is the
    empty tuple.  Routes read its coefficients and its text, and
    ``DerivativeJet.of_polynomial`` its derivative and its exact value at a
    rational point.

    >>> str(Polynomial((-1, 0, 3)))
    '3*x^2 - 1'
    >>> Polynomial((1, 0, 1)).derivative()
    Polynomial((0, 2))
    >>> Polynomial((5,))
    Polynomial((5,))
    """

    __slots__ = ("coefficients",)
    coefficients: tuple[int, ...]

    def __init__(self, coefficients: Iterable[int] = ()):
        coeffs = _ints(coefficients, "a Polynomial coefficient")
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @property
    def degree(self) -> int:
        """Degree of the leading term; -1 stands in for the zero polynomial."""
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    def derivative(self) -> Polynomial:
        return Polynomial(i * c for i, c in enumerate(self.coefficients) if i)

    def evaluate(self, x: int | Fraction) -> Fraction:
        """Exact value at a rational point x = p/q: q^deg P(p/q), computed
        without division, over q^deg as one Fraction."""
        x = _rational(x, "a point")
        if self.is_zero():
            return Fraction(0)
        q = x.denominator
        return Fraction(self._homogeneous(x.numerator, q), q**self.degree)

    def _homogeneous(self, p: int, q: int) -> int:
        """q^deg * P(p/q) = sum c_i p^i q^(deg-i), for a nonzero P.  If
        P(x) = x^(deg&1) R(x^2), as every arctan numerator is, it is p^(deg&1)
        times R's value at p^2/q^2, from half the coefficients."""
        coeffs = self.coefficients
        odd = (len(coeffs) - 1) & 1
        if any(coeffs[1 - odd :: 2]):
            return _homogeneous(coeffs, p, q, {})
        value = _homogeneous(coeffs[odd::2], p * p, q * q, {})
        return value * p if odd else value

    def __repr__(self) -> str:
        return f"Polynomial({_repr(self.coefficients)})"

    def _terms(self, scale: int, powers: Iterable[int]) -> Iterator[Term]:
        """(power, text) for each nonzero coefficient of scale * self, in the
        order of powers.

        The scale is converted to Decimal once, and each coefficient is
        printed as the exact Decimal product, so the product is never formed
        as an int and never converted by the quadratic int -> str.
        """
        factor = _decimal(scale)
        for power in powers:
            c = self.coefficients[power]
            if c and scale:
                yield power, str(_EXACT.multiply(factor, _decimal(c)))

    def terms(self, scale: int = 1) -> Iterator[Term]:
        """(power, text) for each nonzero coefficient of scale * self, in
        ascending powers; the text is an integer (the denominator is 1)."""
        return self._terms(scale, range(len(self.coefficients)))

    def text(self, scale: int = 1) -> Iterator[str]:
        """The text form of scale * self, one piece per term: descending
        powers, exact coefficients.  Joined, the pieces are ``str``."""
        first = True
        for power, numerator in self._terms(scale, range(self.degree, -1, -1)):
            negative = numerator[0] == "-"
            magnitude = numerator[negative:]
            if power:
                variable = "x" if power == 1 else f"x^{power}"
                magnitude = variable if magnitude == "1" else f"{magnitude}*{variable}"
            if first:
                yield f"-{magnitude}" if negative else magnitude
            else:
                yield f" - {magnitude}" if negative else f" + {magnitude}"
            first = False
        if first:
            yield "0"

    def __str__(self) -> str:
        return "".join(self.text())


_LEAF = 64  # the longest coefficient run that _homogeneous sums by Horner's scheme


def _homogeneous(coeffs: tuple[int, ...], p: int, q: int, powers: dict) -> int:
    """q^d P(p/q) for the d + 1 ascending coefficients of P (the last may be
    zero), by Horner's scheme in p up to _LEAF of them.  Above, P = A + x^h B
    with A the first h, and q^d P(p/q) = q^(d-h+1) A_hom + p^h B_hom, where
    A_hom and B_hom are the same form of each half, evaluated the same way.
    The halves at one depth have at most two lengths, so ``powers`` keeps
    (p^h, q^(d-h+1)) per length for the call.  Below quadratic time."""
    size = len(coeffs)
    if size > _LEAF:
        half = size // 2
        if size not in powers:
            powers[size] = p**half, q ** (size - half)
        p_power, q_power = powers[size]
        low = _homogeneous(coeffs[:half], p, q, powers)
        return q_power * low + p_power * _homogeneous(coeffs[half:], p, q, powers)
    value = coeffs[-1]
    q_power = 1
    for c in reversed(coeffs[:-1]):
        q_power *= q
        value = value * p + c * q_power if c else value * p
    return value


class ArctanRational(_Value):
    """scale * P(x) / (1+x^2)^k, stored in the one canonical form:

    * P is a primitive integer polynomial (the gcd of its coefficients is 1)
      with a positive leading coefficient;
    * scale is an int that carries the content and the sign;
    * k is the smallest possible exponent;
    * zero is P = 0, k = 0 and scale = 0.

    ``ArctanRational(p, k, scale)`` is scale * p / (1+x^2)^k for an
    integer polynomial or int p, an int k >= 0 and an int scale (the
    parameters are named after the stored fields, so that the repr is a
    constructor call): construction takes one gcd over p's coefficients and
    moves that content into ``scale``, so a route can pass a factor it
    knows, such as (n-1)!, as ``scale`` and never multiply it in.  The form is unique, so
    mathematically equal values compare equal field by field.
    Exponent 0 is a plain polynomial.  ``numerator`` is the full numerator
    scale * P, built on each read.

    Over the rationals 1+x^2 divides P exactly when P(i) = 0, that is, when
    c_0 - c_2 + c_4 - ... and c_1 - c_3 + c_5 - ... both vanish.  Only then
    is a factor removed, by synthetic division top down,
    q_j = p_(j+2) - q_(j+2), which keeps P primitive (Gauss's lemma).
    No arctan route ever hits a factor: its numerator at x = i is
    (-1)^(n-1) (n-1)! (2i)^(n-1), never 0.

    >>> ArctanRational(Polynomial((0, -2, 0, -2)), 3)
    ArctanRational(primitive=Polynomial((0, 1)), exponent=2, scale=-2)
    """

    __slots__ = ("primitive", "exponent", "scale")
    primitive: Polynomial
    exponent: int
    scale: int

    def __init__(self, primitive: Polynomial | int, exponent: int = 0, scale: int = 1):
        _ints((exponent,), "an ArctanRational exponent")
        _ints((scale,), "an ArctanRational scale")
        if exponent < 0:
            raise ValueError("exponent must be >= 0")
        if not isinstance(primitive, Polynomial):
            primitive = Polynomial((primitive,))
        coeffs = primitive.coefficients
        if not coeffs or not scale:
            coeffs, exponent, scale = (), 0, 0
        else:
            content = math.gcd(*coeffs)
            if coeffs[-1] < 0:
                content = -content
            if content != 1:
                coeffs = [c // content for c in coeffs]
                scale *= content
        c = coeffs
        while exponent and sum(c[0::4]) == sum(c[2::4]) and sum(c[1::4]) == sum(c[3::4]):
            c = list(c[2:])
            for j in range(len(c) - 3, -1, -1):
                c[j] -= c[j + 2]
            exponent -= 1
        object.__setattr__(self, "primitive", Polynomial(c))
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "scale", scale)

    @property
    def numerator(self) -> Polynomial:
        """The full numerator scale * P."""
        return Polynomial(c * self.scale for c in self.primitive.coefficients)

    def derivative(self) -> ArctanRational:
        """Quotient rule on P: scale (P'(1+x^2) - 2kxP) / (1+x^2)^(k+1),
        re-canonicalized.

        Coefficient j of P'(1+x^2) - 2kxP is (j+1) c_(j+1) + (j-1-2k) c_(j-1),
        so the new numerator is one pass over P's coefficients, padded with
        zeros at both ends.
        """
        coeffs, shift = self.primitive.coefficients, 1 + 2 * self.exponent
        padded = (0, *coeffs, 0, 0)
        top = [(j + 1) * padded[j + 2] + (j - shift) * padded[j] for j in range(len(coeffs) + 1)]
        return ArctanRational(Polynomial(top), self.exponent + 1, self.scale)

    def evaluate(self, x: int | Fraction) -> Fraction:
        """Exact value at a rational point; 1+x^2 >= 1 so never a pole.

        At x = p/q the value is scale (q^deg P(p/q)) q^(2k-deg) / (p^2+q^2)^k:
        P is evaluated in int, and the scale is multiplied in once, into the
        one Fraction formed at the end.
        """
        x = _rational(x, "a point")
        return Fraction(*self._evaluate(x.numerator, x.denominator))

    def _evaluate(self, p: int, q: int) -> tuple[int, int]:
        """evaluate(p/q) as an unreduced (numerator, denominator) pair of
        ints, for q > 0."""
        poly, k = self.primitive, self.exponent
        if poly.is_zero():
            return 0, 1
        top, bottom = poly._homogeneous(p, q), (p * p + q * q) ** k
        shift = 2 * k - poly.degree
        if shift >= 0:
            top *= q**shift
        else:
            bottom *= q**-shift
        return self.scale * top, bottom

    def terms(self) -> Iterator[Term]:
        """(power, text) for each nonzero coefficient of the numerator
        scale * P, in ascending powers."""
        return self.primitive.terms(self.scale)

    def text(self) -> Iterator[str]:
        """The text form in pieces; joined, they are ``str``."""
        if self.exponent:
            yield "("
        yield from self.primitive.text(self.scale)
        if self.exponent:
            yield f") / (1+x^2)^{self.exponent}"

    def __str__(self) -> str:
        return "".join(self.text())
