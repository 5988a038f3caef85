import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arctanderiv import binomial
from oracles import pascal_triangle


def test_factorial_small_values():
    assert math.factorial(0) == 1
    assert math.factorial(1) == 1
    product = 1
    for i in range(1, 11):
        product *= i
    assert math.factorial(10) == product == 3628800


def test_binomial_against_pascal_oracle():
    table = pascal_triangle(30)
    for n in range(31):
        for k in range(n + 1):
            assert binomial(n, k) == table[n][k]
    assert binomial(5, 3) == 10


def test_binomial_out_of_range_is_zero():
    assert binomial(4, 7) == 0
    assert binomial(4, -1) == 0
    for n in (0, 3, 17):
        assert binomial(n, 0) == 1


def test_binomial_rejects_negative_n():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_pascal_recurrence_up_to_200():
    # Exercises the k = 0 edge through the out-of-range convention.
    for n in range(1, 201):
        for k in range(n + 1):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_binomial_beyond_cache_limit():
    assert binomial(20, 10) == 184756
    assert binomial(200, 100) == math.comb(200, 100)
    # Past n = 1024, where binomial once switched from cached rows to math.comb.
    for n in (1025, 1201, 2000):
        assert [binomial(n, k) for k in range(n + 1)] == [math.comb(n, k) for k in range(n + 1)]
        for k in (-1, -n, n + 1, 2 * n):
            assert binomial(n, k) == 0
    assert binomial(1025, 512) == binomial(1024, 511) + binomial(1024, 512)


@given(
    st.lists(
        st.tuples(
            st.sampled_from("+-*/"),
            st.integers(-50, 50),
            st.integers(1, 50),
        ),
        min_size=1,
        max_size=25,
    )
)
def test_rational_arithmetic_stays_canonical(operations):
    value = Fraction(3, 7)
    for op, a, b in operations:
        other = Fraction(a, b)
        if op == "+":
            value = value + other
        elif op == "-":
            value = value - other
        elif op == "*":
            value = value * other
        elif other != 0:
            value = value / other
    assert value.denominator > 0
    assert math.gcd(abs(value.numerator), value.denominator) == 1


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 0)
    with pytest.raises(ZeroDivisionError):
        Fraction(1) / Fraction(0)
