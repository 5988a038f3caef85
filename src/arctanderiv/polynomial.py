"""Dense univariate polynomials over exact rationals, and the rational-function
form P(x) / (1+x^2)^k in which every arctan derivative lives.

Coefficients are stored as ``int`` wherever they are integral and as
``Fraction`` otherwise, so integer polynomials (every arctan numerator) are
computed entirely in integer arithmetic.  There is no general polynomial
division: the only divisor ever needed is 1+x^2, which ``ArctanRational``
detects by P(i) = 0 and removes by synthetic division, with additions only.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[int, Fraction]

__all__ = ["Polynomial", "ArctanRational", "ONE_PLUS_X2"]


def _immutable(self, name, *value):
    raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")


class _Value:
    """Base of the immutable value classes: arithmetic returns new objects,
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
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Polynomial(_Value):
    """Coefficients in ascending powers; the zero polynomial is the empty tuple.

    Integral coefficients, including integral ``Fraction`` inputs, are stored
    as ``int``; the rest as ``Fraction``.

    >>> str(Polynomial((-1, 0, 3)))
    '3*x^2 - 1'
    >>> Polynomial((1, 0, 1)) * Polynomial((1, 0, 1))
    Polynomial((1, 0, 2, 0, 1))
    >>> Polynomial((5,))
    Polynomial((5,))
    """

    __slots__ = ("coefficients",)
    coefficients: tuple[Scalar, ...]

    def __init__(self, coefficients: Iterable[Scalar] = ()):
        coeffs = [c if type(c) is int else _exact(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @property
    def degree(self) -> int:
        """Degree of the leading term; -1 stands in for the zero polynomial."""
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def leading_coefficient(self) -> Scalar:
        if self.is_zero():
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coefficients[-1]

    def __add__(self, other: Polynomial | Scalar) -> Polynomial:
        other = _as_poly(other)
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        summed = list(a)
        for i, c in enumerate(b):
            summed[i] += c
        return Polynomial(summed)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial(-c for c in self.coefficients)

    def __sub__(self, other: Polynomial | Scalar) -> Polynomial:
        return self + (-_as_poly(other))

    def __mul__(self, other: Polynomial | Scalar) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            return Polynomial(c * other for c in self.coefficients)
        prod = [0] * (len(self.coefficients) + len(other.coefficients))
        for i, a in enumerate(self.coefficients):
            if a:
                for j, b in enumerate(other.coefficients, i):
                    if b:
                        prod[j] += a * b
        return Polynomial(prod)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Polynomial:
        if exponent < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = Polynomial((1,))
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def derivative(self) -> Polynomial:
        return Polynomial(i * c for i, c in enumerate(self.coefficients) if i)

    def evaluate(self, x: Scalar) -> Fraction:
        """Exact value at a rational point x = p/q: q^deg P(p/q), computed
        without division, over q^deg as one Fraction."""
        if self.is_zero():
            return Fraction(0)
        x = Fraction(x)
        q = x.denominator
        return Fraction(self._homogeneous(x.numerator, q), q**self.degree)

    def _homogeneous(self, p: int, q: int) -> Scalar:
        """q^deg * P(p/q) = sum c_i p^i q^(deg-i), by Horner's scheme in p
        with the matching power of q folded into each coefficient."""
        coeffs = self.coefficients
        value = coeffs[-1]
        q_power = 1
        for c in reversed(coeffs[:-1]):
            q_power *= q
            value = value * p + c * q_power if c else value * p
        return value

    def compose(self, inner: Polynomial) -> Polynomial:
        """The polynomial self(inner(x))."""
        result = Polynomial()
        for c in reversed(self.coefficients):
            result = result * inner + c
        return result

    def __repr__(self) -> str:
        return f"Polynomial({self.coefficients!r})"

    def __str__(self) -> str:
        """Deterministic text form: descending powers, exact coefficients."""
        if self.is_zero():
            return "0"
        parts: list[str] = []
        for power in range(self.degree, -1, -1):
            c = self.coefficients[power]
            if c == 0:
                continue
            magnitude = abs(c)
            if power == 0:
                body = str(magnitude)
            else:
                variable = "x" if power == 1 else f"x^{power}"
                body = variable if magnitude == 1 else f"{magnitude}*{variable}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts)


def _exact(value) -> Scalar:
    """value as an exact rational: an int when integral, else a Fraction."""
    if not isinstance(value, Fraction):
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _as_poly(value: Polynomial | Scalar) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    return Polynomial((value,))


ONE_PLUS_X2 = Polynomial((1, 0, 1))


class ArctanRational(_Value):
    """P(x) / (1+x^2)^k, stored with the smallest possible exponent k.

    Construction divides out every exact (1+x^2) factor of the numerator, so
    mathematically equal values always compare equal field by field.
    Exponent 0 is a plain polynomial.

    Over the rationals 1+x^2 divides P exactly when P(i) = 0, that is, when
    c_0 - c_2 + c_4 - ... and c_1 - c_3 + c_5 - ... both vanish.  Only then
    is a factor removed, by synthetic division top down,
    q_j = p_(j+2) - q_(j+2); otherwise the given numerator is kept as is.
    No arctan route ever hits a factor: its numerator at x = i is
    (-1)^(n-1) (n-1)! (2i)^(n-1), never 0.

    >>> ArctanRational(Polynomial((0, -2, 0, -2)), 3)
    ArctanRational(numerator=Polynomial((0, -2)), exponent=2)
    """

    __slots__ = ("numerator", "exponent")
    numerator: Polynomial
    exponent: int

    def __init__(self, numerator: Polynomial | Scalar, exponent: int = 0):
        if exponent < 0:
            raise ValueError("exponent must be >= 0")
        poly = _as_poly(numerator)
        while exponent > 0:
            c = poly.coefficients
            if sum(c[0::4]) != sum(c[2::4]) or sum(c[1::4]) != sum(c[3::4]):
                break
            quotient = list(c[2:])
            for j in range(len(quotient) - 3, -1, -1):
                quotient[j] -= quotient[j + 2]
            poly = Polynomial(quotient)
            exponent -= 1
        object.__setattr__(self, "numerator", poly)
        object.__setattr__(self, "exponent", exponent)

    def derivative(self) -> ArctanRational:
        """Quotient rule: (P'(1+x^2) - 2kxP) / (1+x^2)^(k+1), re-canonicalized."""
        p, k = self.numerator, self.exponent
        top = p.derivative() * ONE_PLUS_X2 - Polynomial((0, 2 * k)) * p
        return ArctanRational(top, k + 1)

    def evaluate(self, x: Scalar) -> Fraction:
        """Exact value at a rational point; 1+x^2 >= 1 so never a pole.

        At x = p/q the value is (q^deg P(p/q)) q^(2k-deg) / (p^2+q^2)^k,
        formed as one Fraction.
        """
        poly, k = self.numerator, self.exponent
        if poly.is_zero():
            return Fraction(0)
        x = Fraction(x)
        p, q = x.numerator, x.denominator
        top, bottom = poly._homogeneous(p, q), (p * p + q * q) ** k
        shift = 2 * k - poly.degree
        if shift >= 0:
            top *= q**shift
        else:
            bottom *= q**-shift
        return Fraction(top, bottom)

    def __add__(self, other: ArctanRational) -> ArctanRational:
        k = max(self.exponent, other.exponent)
        left = self.numerator * ONE_PLUS_X2 ** (k - self.exponent)
        right = other.numerator * ONE_PLUS_X2 ** (k - other.exponent)
        return ArctanRational(left + right, k)

    def __str__(self) -> str:
        if self.exponent == 0:
            return str(self.numerator)
        return f"({self.numerator}) / (1+x^2)^{self.exponent}"
