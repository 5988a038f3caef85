"""The rational-function form scale * P(x) / (1+x^2)^k in which every
arctan derivative lives, printed at any size through ``digits``.

Coefficients, scales and exponents are ``int`` only (every arctan numerator
is an integer polynomial), so all symbolic work is integer arithmetic and
rationals appear only as values at a rational point.  There is no ring
arithmetic on these values: each route builds its numerator's coefficients
itself, as a plain list or tuple, and hands them to ``ArctanRational``,
which stores, differentiates, evaluates and prints them; a plain polynomial
is an ``ArctanRational`` at exponent 0.  The only divisor ever needed is
1+x^2, which ``ArctanRational`` detects by P(i) = 0 and removes by
synthetic division, with additions only.  ``evaluate`` reads its point by
``digits._pair`` and computes on that int pair by ``_evaluate``, which the
CLI and ``crosscheck`` call directly.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Iterator

from .digits import _fraction, _pair, _product_strs, exact_str

if TYPE_CHECKING:
    from fractions import Fraction

Term = tuple[int, str]

__all__ = ["ArctanRational"]


def _repr(value: int | tuple | Fraction) -> str:
    """repr(value) of a field, an int, a Fraction or a tuple of them, with
    its ints by exact_str."""
    if type(value) is int:
        return exact_str(value)
    if type(value) is tuple:
        return f"({', '.join(map(_repr, value))}{',' * (len(value) == 1)})"
    return f"Fraction({exact_str(value.numerator)}, {exact_str(value.denominator)})"


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


_LEAF = 64  # the longest coefficient run that _homogeneous sums by Horner's scheme


def _homogeneous(coeffs: tuple[int, ...], p: int, q: int) -> int:
    """q^d P(p/q) for the d + 1 ascending coefficients of P (the last may be
    zero), by Horner's scheme in p up to _LEAF of them.  Above, P = A + x^h B
    with A the first h, and q^d P(p/q) = q^(d-h+1) A_hom + p^h B_hom, where
    A_hom and B_hom are the same form of each half, evaluated the same way.
    Below quadratic time."""
    size = len(coeffs)
    if size > _LEAF:
        half = size // 2
        low = _homogeneous(coeffs[:half], p, q)
        return q ** (size - half) * low + p**half * _homogeneous(coeffs[half:], p, q)
    value = coeffs[-1]
    q_power = 1
    for c in reversed(coeffs[:-1]):
        q_power *= q
        value = value * p + c * q_power
    return value


class ArctanRational(_Value):
    """scale * P(x) / (1+x^2)^k, stored in the one canonical form:

    * P is a primitive integer polynomial (the gcd of its coefficients is 1)
      with a positive leading coefficient, a tuple in ascending powers;
    * scale is an int that carries the content and the sign;
    * k is the smallest possible exponent;
    * zero is P = (), k = 0 and scale = 0.

    ``ArctanRational(p, k, scale)`` is scale * p / (1+x^2)^k for int
    coefficients p in ascending powers (any iterable, or one int), an int
    k >= 0 and an int scale (the parameters are named after the stored
    fields, so that the repr is a constructor call): construction checks the
    coefficients once, takes one gcd over them and moves that content into
    ``scale``, so a route can pass a factor it knows, such as (n-1)!, as
    ``scale`` and never multiply it in.  The form is unique, so
    mathematically equal values compare equal field by field.
    Exponent 0 is a plain polynomial.  ``coefficients`` are those of the
    full numerator scale * P, and ``numerator`` is that polynomial alone.

    Over the rationals 1+x^2 divides P exactly when P(i) = 0, that is, when
    c_0 - c_2 + c_4 - ... and c_1 - c_3 + c_5 - ... both vanish.  Only then
    is a factor removed, by synthetic division top down,
    q_j = p_(j+2) - q_(j+2), which keeps P primitive (Gauss's lemma).
    No arctan route ever hits a factor: its numerator at x = i is
    (-1)^(n-1) (n-1)! (2i)^(n-1), never 0.

    >>> ArctanRational((0, -2, 0, -2), 3)
    ArctanRational(primitive=(0, 1), exponent=2, scale=-2)
    >>> str(ArctanRational((-1, 0, 3)))
    '3*x^2 - 1'
    >>> ArctanRational((1, 0, 1)).derivative()
    ArctanRational(primitive=(0, 1), exponent=0, scale=2)
    """

    __slots__ = ("primitive", "exponent", "scale")
    primitive: tuple[int, ...]
    exponent: int
    scale: int

    def __init__(self, primitive: Iterable[int] | int, exponent: int = 0, scale: int = 1):
        _ints((exponent,), "an ArctanRational exponent")
        _ints((scale,), "an ArctanRational scale")
        if exponent < 0:
            raise ValueError("exponent must be >= 0")
        if not hasattr(primitive, "__iter__"):
            primitive = (primitive,)
        c = _ints(primitive, "an ArctanRational coefficient")
        while c and c[-1] == 0:
            c.pop()
        if not c or not scale:
            c, exponent, scale = [], 0, 0
        else:
            content = math.gcd(*c)
            if c[-1] < 0:
                content = -content
            if content != 1:
                c = [v // content for v in c]
                scale *= content
        while exponent and sum(c[0::4]) == sum(c[2::4]) and sum(c[1::4]) == sum(c[3::4]):
            c = c[2:]
            for j in range(len(c) - 3, -1, -1):
                c[j] -= c[j + 2]
            exponent -= 1
        object.__setattr__(self, "primitive", tuple(c))
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "scale", scale)

    @property
    def coefficients(self) -> tuple[int, ...]:
        """The coefficients scale * c of the full numerator, ascending."""
        return tuple([c * self.scale for c in self.primitive])

    @property
    def numerator(self) -> ArctanRational:
        """The full numerator scale * P, over (1+x^2)^0."""
        return ArctanRational(self.primitive, 0, self.scale)

    def derivative(self) -> ArctanRational:
        """Quotient rule on P: scale (P'(1+x^2) - 2kxP) / (1+x^2)^(k+1),
        re-canonicalized.

        Coefficient j of P'(1+x^2) - 2kxP is (j+1) c_(j+1) + (j-1-2k) c_(j-1),
        so the new numerator is one pass over P's coefficients, padded with
        zeros at both ends.
        """
        coeffs, shift = self.primitive, 1 + 2 * self.exponent
        padded = (0, *coeffs, 0, 0)
        top = [(j + 1) * padded[j + 2] + (j - shift) * padded[j] for j in range(len(coeffs) + 1)]
        return ArctanRational(top, self.exponent + 1, self.scale)

    def evaluate(self, x: int | Fraction) -> Fraction:
        """Exact value at a rational point; 1+x^2 >= 1 so never a pole.

        At x = p/q the value is scale (q^deg P(p/q)) q^(2k-deg) / (p^2+q^2)^k:
        P is evaluated in int, and the scale is multiplied in once, into the
        one Fraction formed at the end.
        """
        return _fraction(*self._evaluate(*_pair(x, "a point")))

    def _evaluate(self, p: int, q: int) -> tuple[int, int]:
        """evaluate(p/q) as an unreduced (numerator, denominator) pair of
        ints, for q > 0.  If P(x) = x^(deg&1) R(x^2), as every arctan
        numerator is, q^deg P(p/q) is p^(deg&1) times R's value at p^2/q^2,
        from half the coefficients."""
        coeffs, k = self.primitive, self.exponent
        if not coeffs:
            return 0, 1
        degree = len(coeffs) - 1
        odd = degree & 1
        if any(coeffs[1 - odd :: 2]):
            top = _homogeneous(coeffs, p, q)
        else:
            top = _homogeneous(coeffs[odd::2], p * p, q * q)
            if odd:
                top *= p
        bottom = (p * p + q * q) ** k
        shift = 2 * k - degree
        if shift >= 0:
            top *= q**shift
        else:
            bottom *= q**-shift
        return self.scale * top, bottom

    def _terms(self, powers: Iterable[int]) -> Iterator[Term]:
        """(power, text) for each nonzero coefficient of the numerator
        scale * P, in the order of powers, printed by ``digits._product_strs``."""
        powers = [power for power in powers if self.primitive[power]]
        yield from zip(powers, _product_strs(self.scale, [self.primitive[j] for j in powers]))

    def terms(self) -> Iterator[Term]:
        """(power, text) for each nonzero coefficient of the numerator
        scale * P, in ascending powers; the text is an integer (the
        denominator is 1)."""
        return self._terms(range(len(self.primitive)))

    def text(self) -> Iterator[str]:
        """The text form in pieces: the numerator in descending powers with
        exact coefficients, in parentheses over (1+x^2)^k when k > 0.
        Joined, the pieces are ``str``."""
        if self.exponent:
            yield "("
        first = True
        for power, numerator in self._terms(range(len(self.primitive) - 1, -1, -1)):
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
        if self.exponent:
            yield f") / (1+x^2)^{self.exponent}"

    def __str__(self) -> str:
        return "".join(self.text())
