"""The package's one number boundary: the exact decimal text of an int, a
``Fraction`` or a lowest-terms (numerator, denominator) pair at any size,
an int read from its text, and the only place a ``Fraction`` is read or built.

Every caller's rational, an int or a ``Fraction``, is read by ``_pair``
into its lowest-terms (numerator, denominator) pair of ints, the form the
kernels take and the checks report, ``_lowest`` reduces any int pair, and
``_fraction`` builds every ``Fraction`` the library returns or stores.  A
``Fraction`` exists only once ``fractions`` is loaded, so ``_pair`` looks
for the class in ``sys.modules`` and never imports it, and ``_fraction``
holds the package's only runtime ``from fractions import Fraction``: a
command that reads and prints ints only never loads ``fractions``.

str() and Decimal() of an int cost time quadratic in its length, and from
Python 3.11 str() and int() refuse more than sys.get_int_max_str_digits()
digits (4300 by default, never below 640 when set).  An int of at most
_DIRECT_BITS bits is printed by str() directly: 2048 bits is at most 617
digits, under any limit.  A longer one is split in binary and joined as an
exact ``Decimal``, so ``decimal`` is imported only when such an int is
converted, and a process that prints only small numbers never loads it.
``_product_strs`` prints every wider int, and a numerator's products
scale * c each from the Decimal of the one before it, in that exact context.
``_integer`` reads an int back from text of any length by int() of halves.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:
    from decimal import Context, Decimal
    from fractions import Fraction

__all__ = ["exact_str"]

_DIRECT_BITS = 2048
_RATIO_BITS = 64  # the widest reduced ratio of coefficients that _product_strs steps by
_DIGIT_RUN = 640  # the lowest int <- str digit limit Python allows


def _pair(value: int | Fraction, what: str) -> tuple[int, int]:
    """value, an int or a ``Fraction``, as its lowest-terms pair (p, q),
    q > 0; any other type, bool included, raises TypeError."""
    if type(value) is int:
        return value, 1
    fractions = sys.modules.get("fractions")
    if fractions and isinstance(value, fractions.Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"{what} must be int or Fraction, not {type(value).__name__}")


def _lowest(p: int, q: int) -> tuple[int, int]:
    """p/q, q != 0, as its lowest-terms pair, the sign on the numerator."""
    g = math.gcd(p, q) if q > 0 else -math.gcd(p, q)
    return p // g, q // g


def _fraction(numerator: int, denominator: int = 1) -> Fraction:
    """Fraction(numerator, denominator), importing ``fractions`` on the first
    call."""
    from fractions import Fraction

    return Fraction(numerator, denominator)


@functools.lru_cache(maxsize=None)
def _exact() -> Context:
    """Exact decimal arithmetic on integers: no rounding at any size
    (Inexact traps if one ever would)."""
    from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Inexact

    return Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])


@functools.lru_cache(maxsize=None)
def _two_power(j: int) -> Decimal:
    """2^(2^j) as an exact Decimal, by repeated squaring."""
    if not j:
        return _decimal(2)
    root = _two_power(j - 1)
    return _exact().multiply(root, root)


def _decimal(n: int) -> Decimal:
    """n as an exact Decimal, in time below quadratic in its length.

    Above _DIRECT_BITS bits, n = hi 2^w + lo with w = 2^j the largest power
    of two below the bit length of n, 0 <= lo < 2^w and hi = n >> w (a floor,
    so the sign stays with hi); both halves are converted the same way and
    joined by one exact multiply-add with the cached 2^w.
    """
    exact = _exact()
    bits = n.bit_length()
    if bits <= _DIRECT_BITS:
        return exact.create_decimal(n)
    j = (bits - 1).bit_length() - 1
    hi = n >> (1 << j)
    lo = n - (hi << (1 << j))
    return exact.add(exact.multiply(_decimal(hi), _two_power(j)), _decimal(lo))


def exact_str(value: int | Fraction) -> str:
    """str(value) for an int or a Fraction of any size, with no int -> str
    digit limit and no call to sys.set_int_max_str_digits: by str() up to
    _DIRECT_BITS bits, through _product_strs above.

    >>> from fractions import Fraction
    >>> exact_str(Fraction(-3, 4)), exact_str(7)
    ('-3/4', '7')
    >>> exact_str(-(10**5000)) == "-1" + "0" * 5000
    True
    """
    return _ratio_str(*_pair(value, "a value"))


def _ratio_str(numerator: int, denominator: int = 1) -> str:
    """exact_str(Fraction(numerator, denominator)) for a lowest-terms pair
    with denominator > 0, without building the Fraction."""
    wide = numerator.bit_length() > _DIRECT_BITS
    text = next(_product_strs(1, (numerator,))) if wide else str(numerator)
    return text if denominator == 1 else f"{text}/{_ratio_str(denominator)}"


def _product_strs(scale: int, row: Sequence[int]) -> Iterator[str]:
    """str(scale * c) for each nonzero int c of row, in its order.

    When the widest product has at most _DIRECT_BITS bits, each is printed
    by str().  Otherwise each is printed from an exact Decimal, never formed
    as an int and never converted by the quadratic int -> str.  The first is
    the product of the Decimals of the scale and c.  Each next one, for c',
    comes from the one before: with g = gcd(c, c'), scale c' = (scale c)
    (c'/g) / (c/g) exactly, one multiply and one exact division by ints,
    each linear in the digits, when both reduced factors have at most
    _RATIO_BITS bits; else the full product again.  Every arctan numerator
    takes the short step: consecutive coefficients of q_(n-1) differ by
    -(n-k-1)(n-k-2) / ((k+2)(k+3)).
    """
    if (scale * max(row, key=abs, default=0)).bit_length() <= _DIRECT_BITS:
        for c in row:
            yield str(scale * c)
        return
    exact, factor, before = _exact(), _decimal(scale), 0
    for c in row:
        g = math.gcd(c, before)
        up, down = c // g, before // g
        if before and max(up.bit_length(), down.bit_length()) <= _RATIO_BITS:
            value = exact.divide_int(exact.multiply(value, up), down)
        else:
            value = exact.multiply(factor, _decimal(c))
        before = c
        yield str(value)


def _integer(text: str) -> int:
    """int(text) for an ASCII integer of any length, with no int <- str
    digit limit: a text of more than _DIGIT_RUN digits is read as two
    halves, hi 10^h + lo."""
    digits = text.lstrip("+-")
    if len(digits) <= _DIGIT_RUN:
        return int(text)
    half = len(digits) // 2
    value = _integer(digits[:-half]) * 10**half + _integer(digits[-half:])
    return -value if text[0] == "-" else value
