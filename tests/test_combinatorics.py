import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import pascal_triangle


def test_factorial_small_values():
    assert math.factorial(0) == 1
    assert math.factorial(1) == 1
    product = 1
    for i in range(1, 11):
        product *= i
    assert math.factorial(10) == product == 3628800


# The package has no binomial of its own: its sums read math.comb, or grow
# Pascal rows by addition.  These hold math.comb to the oracle's additions
# and to the conventions those sums rely on.


def test_math_comb_against_pascal_oracle():
    table = pascal_triangle(30)
    for n in range(31):
        for k in range(n + 1):
            assert math.comb(n, k) == table[n][k]
    assert math.comb(5, 3) == 10


def test_math_comb_past_n_is_zero():
    assert math.comb(4, 7) == 0
    assert math.comb(4, 5) == 0
    for n in (0, 3, 17):
        assert math.comb(n, 0) == 1


def test_math_comb_rejects_negative_arguments():
    for n, k in ((-1, 0), (4, -1)):
        with pytest.raises(ValueError):
            math.comb(n, k)


def test_pascal_recurrence_up_to_200():
    # Exercises the k = n edge through math.comb(n - 1, n) = 0.
    for n in range(1, 201):
        for k in range(1, n + 1):
            assert math.comb(n, k) == math.comb(n - 1, k - 1) + math.comb(n - 1, k)


def test_math_comb_rows_past_1024():
    assert math.comb(20, 10) == 184756
    assert math.comb(200, 100) == pascal_triangle(200)[200][100]
    # Each row against the exact term ratio C(n, k+1) = C(n, k) (n-k) / (k+1).
    for n in (1025, 1201, 2000):
        row = [1]
        for k in range(n):
            row.append(row[-1] * (n - k) // (k + 1))
        assert [math.comb(n, k) for k in range(n + 1)] == row
        for k in (n + 1, 2 * n):
            assert math.comb(n, k) == 0
    assert math.comb(1025, 512) == math.comb(1024, 511) + math.comb(1024, 512)


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
