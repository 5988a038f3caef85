import copy
import doctest
import importlib
import math
import pickle
import pkgutil
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import arctanderiv
from arctanderiv import (
    ArctanRational,
    DerivativeJet,
    Polynomial,
    arctan_derivative_closed,
    exact_str,
)
from oracles import (
    DEFAULT_DIGIT_LIMIT,
    difference_quotient_derivative,
    digit_limit,
    homogeneous_horner,
    quotient_rule_step,
    rational_sum,
    times_one_plus_x2,
)

coefficients = st.integers(-80, 80)
rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=8
)
small_polys = st.builds(
    Polynomial, st.lists(coefficients, min_size=0, max_size=9)
)
NAMES = {
    "Polynomial": Polynomial,
    "ArctanRational": ArctanRational,
    "DerivativeJet": DerivativeJet,
    "Fraction": Fraction,
}


def _rebuilt(value):
    """value rebuilt by eval(repr), pickle, copy and deepcopy."""
    return (
        eval(repr(value), NAMES),
        pickle.loads(pickle.dumps(value)),
        copy.copy(value),
        copy.deepcopy(value),
    )


def test_derivative_examples():
    assert Polynomial((5,)).derivative() == Polynomial()
    assert Polynomial((0, 0, 0, 1)).derivative() == Polynomial((0, 0, 3))
    assert Polynomial((-1, 0, 3)).derivative() == Polynomial((0, 6))


def test_evaluate_examples():
    assert Polynomial((4, 1, 9)).evaluate(0) == 4
    assert Polynomial((-1, 0, 3)).evaluate(1) == 2
    assert Polynomial((0, -2)).evaluate(Fraction(1, 2)) == -1
    assert Polynomial().evaluate(Fraction(-7, 3)) == 0


@st.composite
def homogeneous_cases(draw):
    """Coefficients of a length around the leaf size of the split and its
    doublings, with the odd or even ones zeroed or neither, one run of
    zeros, and a point p/q."""
    size = draw(st.sampled_from((1, 2, 63, 64, 65, 127, 128, 129, 255, 256, 257)))
    rng = draw(st.randoms(use_true_random=False))
    coeffs = [rng.choice((-1, 1)) * rng.randint(1, 10**9) for _ in range(size)]
    parity = draw(st.sampled_from((0, 1, None)))
    if parity is not None:
        coeffs[1 - parity :: 2] = [0] * len(coeffs[1 - parity :: 2])
    start = draw(st.integers(0, size))
    stop = draw(st.integers(start, size))
    coeffs[start:stop] = [0] * (stop - start)
    p = draw(st.just(0) | st.integers(-(10**6), 10**6))
    q = draw(st.just(1) | st.integers(1, 10**6))
    return coeffs, p, q


@settings(max_examples=80, deadline=None)
@given(homogeneous_cases())
def test_homogeneous_matches_horner(case):
    # The parity rule and the split by halves give today's Horner value.
    coeffs, p, q = case
    poly = Polynomial(coeffs)
    assume(not poly.is_zero())
    assert poly._homogeneous(p, q) == homogeneous_horner(poly.coefficients, p, q)


def test_trailing_zeros_are_trimmed():
    assert Polynomial((1, 0, 0)) == Polynomial((1,))
    assert Polynomial((0, 0)).is_zero()
    assert Polynomial().degree == -1
    assert Polynomial((0, 0, 4)).degree == 2


# Ints of up to about 60k digits, drawn by bit length so that every size is
# met.
big_ints = st.integers(0, 200_000).flatmap(lambda bits: st.integers(-(1 << bits), 1 << bits))


def _check_exact_str(n, scale):
    with digit_limit(0):
        want, want_scaled = str(n), str(scale * n)
        want_fraction = str(Fraction(n, scale)) if scale else None
    assert exact_str(n) == want
    if scale:
        assert exact_str(Fraction(n, scale)) == want_fraction
    if n:
        assert list(Polynomial((n,)).terms(scale)) == ([(0, want_scaled)] if scale else [])


@settings(max_examples=40, deadline=None)
@given(big_ints, big_ints)
def test_exact_str_matches_str(n, scale):
    _check_exact_str(n, scale)


def test_exact_str_at_split_widths():
    # 0, negative values and powers of two next to each split width: 2048
    # bits and its doublings.
    _check_exact_str(0, 0)
    _check_exact_str(-1, -(10**9000))
    for w in (2048 << j for j in range(7)):
        for n in ((1 << w) - 1, 1 << w, (1 << w) + 1):
            _check_exact_str(n, -3)
            _check_exact_str(-7, -n)


def test_text_rendering():
    assert str(Polynomial((-1, 0, 3))) == "3*x^2 - 1"
    assert str(Polynomial((0, -2))) == "-2*x"
    assert str(Polynomial()) == "0"
    assert str(Polynomial((1, 0, 1))) == "x^2 + 1"


@given(small_polys, st.integers(0, 3))
def test_repr_round_trips(p, k):
    assert eval(repr(p), NAMES) == p
    r = ArctanRational(p, k)
    assert eval(repr(r), NAMES) == r


def test_repr_has_no_digit_limit():
    # Scales of 1999! and jet numerators up to 1700! pass 4300 digits.
    values = (arctan_derivative_closed(2000), DerivativeJet.of_reciprocal(Fraction(5, 4), 1700))
    with digit_limit(DEFAULT_DIGIT_LIMIT):
        texts = [repr(value) for value in values]
    with digit_limit(0):
        for value, text in zip(values, texts):
            assert eval(text, NAMES) == value


def test_module_doctests():
    # Every package module, so that a docstring example anywhere is run.
    attempted = 0
    for info in pkgutil.iter_modules(arctanderiv.__path__):
        module = importlib.import_module(f"arctanderiv.{info.name}")
        results = doctest.testmod(module)
        assert results.failed == 0, info.name
        attempted += results.attempted
    assert attempted >= 1


def test_integral_coefficients_are_ints():
    numerator = ArctanRational(Polynomial((2, 1, 0, -2)), 0, 3).numerator
    assert numerator.coefficients == (6, 3, 0, -6)
    assert all(type(c) is int for c in numerator.coefficients)


@pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(4, 2), 0.5, "1", True], ids=repr)
def test_value_classes_take_ints_only(c):
    # No Fraction coefficient, scale or exponent, even an integral one, and
    # no float, str or bool.
    with pytest.raises(TypeError):
        Polynomial((c,))
    with pytest.raises(TypeError):
        ArctanRational(Polynomial((1,)), 1, c)
    with pytest.raises(TypeError):
        ArctanRational(Polynomial((1,)), c)
    with pytest.raises(TypeError):
        DerivativeJet(0, (c,), 1)


@given(small_polys, rationals)
def test_derivative_matches_difference_quotient(p, x):
    assert p.derivative().evaluate(x) == difference_quotient_derivative(p.coefficients, x)


def test_arctan_rational_canonicalization():
    base = ArctanRational(Polynomial((0, -2)), 2)
    inflated = ArctanRational(Polynomial(times_one_plus_x2((0, -2), 3)), 5)
    assert inflated == base
    assert inflated.exponent == 2
    # Canonicalizing a canonical value is the identity.
    again = ArctanRational(base.numerator, base.exponent)
    assert again == base


def _divisible_by_one_plus_x2(p):
    # 1+x^2 | P exactly when P(i) = 0: both alternating sums vanish.
    even = sum((-1) ** j * c for j, c in enumerate(p.coefficients[0::2]))
    odd = sum((-1) ** j * c for j, c in enumerate(p.coefficients[1::2]))
    return even == 0 and odd == 0


@given(small_polys, st.integers(0, 3), st.integers(0, 4))
def test_canonical_form_is_minimal(p, j, k):
    inflated = Polynomial(times_one_plus_x2(p.coefficients, j))
    r = ArctanRational(inflated, k)
    assert 0 <= r.exponent <= k
    assert Polynomial(times_one_plus_x2(r.numerator.coefficients, k - r.exponent)) == inflated
    if r.exponent > 0:
        assert not _divisible_by_one_plus_x2(r.numerator)


def test_arctan_rational_zero_normalizes_to_exponent_zero():
    zero = ArctanRational(Polynomial(), 5)
    assert zero.exponent == 0
    assert zero.numerator.is_zero()


def test_arctan_rational_rejects_negative_exponent():
    with pytest.raises(ValueError):
        ArctanRational(Polynomial((1,)), -1)


def test_quotient_rule_steps():
    start = ArctanRational(Polynomial((1,)), 1)
    first = start.derivative()
    assert first == ArctanRational(Polynomial((0, -2)), 2)
    second = first.derivative()
    assert second == ArctanRational(Polynomial((-2, 0, 6)), 3)


def test_derivative_of_constant_is_zero():
    assert ArctanRational(Polynomial((9,)), 0).derivative() == ArctanRational(Polynomial(), 0)


def test_evaluate_examples_rational_function():
    assert ArctanRational(Polynomial((1,)), 0).evaluate(Fraction(5, 3)) == 1
    assert ArctanRational(Polynomial((0, -2)), 2).evaluate(1) == Fraction(-1, 2)
    assert ArctanRational(Polynomial((-2, 0, 6)), 0).evaluate(0) == -2


small_ars = st.builds(
    ArctanRational,
    st.lists(coefficients, min_size=0, max_size=5).map(Polynomial),
    st.integers(0, 3),
    coefficients,
)


@given(small_ars, small_ars)
def test_derivative_is_linear(r, s):
    assert rational_sum(r, s).derivative() == rational_sum(r.derivative(), s.derivative())


@settings(max_examples=60, deadline=None)
@given(
    st.lists(coefficients, min_size=0, max_size=41),
    st.integers(0, 40),
    coefficients.filter(bool),
)
def test_derivative_matches_polynomial_quotient_rule(coeffs, exponent, scale):
    # One pass over the padded coefficients is the quotient-rule step taken
    # on plain coefficient lists.
    value = ArctanRational(Polynomial(coeffs), exponent, scale)
    assert value.derivative() == quotient_rule_step(value)


def test_rational_function_rendering():
    assert str(ArctanRational(Polynomial((0, -2)), 2)) == "(-2*x) / (1+x^2)^2"
    assert str(ArctanRational(Polynomial((1,)), 1)) == "(1) / (1+x^2)^1"
    assert str(ArctanRational(Polynomial((3,)), 0)) == "3"


def test_polynomials_are_values():
    a, b = Polynomial((1, 0, 3)), Polynomial([1, 0, 3, 0])
    assert a == b and hash(a) == hash(b)
    assert len({a, b, Polynomial((1, 0, 3))}) == 1
    assert a != Polynomial((1, 0, 4))
    assert Polynomial((1,)) != (1,)
    with pytest.raises(AttributeError):
        a.coefficients = (2,)
    with pytest.raises(AttributeError):
        del a.coefficients
    assert a.coefficients == (1, 0, 3)
    for rebuilt in _rebuilt(a):
        assert type(rebuilt) is Polynomial and rebuilt.coefficients == a.coefficients
    assert repr(Polynomial((1, 0, -3))) == "Polynomial((1, 0, -3))"


def test_rational_functions_are_values():
    a = ArctanRational(Polynomial((0, -2)), 2)
    b = ArctanRational(Polynomial((0, -2, 0, -2)), 3)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, ArctanRational(Polynomial((0, -2)), 2)}) == 1
    assert a != ArctanRational(Polynomial((0, -2)), 1)
    assert ArctanRational(Polynomial((1,)), 1) != Polynomial((1,))
    assert ArctanRational(Polynomial((1,)), 0) != Polynomial((1,))
    for field in ("primitive", "exponent", "scale", "numerator"):
        with pytest.raises(AttributeError):
            setattr(a, field, 0)
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert (a.numerator, a.exponent) == (Polynomial((0, -2)), 2)
    for rebuilt in _rebuilt(a):
        assert type(rebuilt) is ArctanRational
        assert (rebuilt.primitive, rebuilt.exponent, rebuilt.scale) == (a.primitive, 2, -2)
    assert (a.primitive, a.scale) == (Polynomial((0, 1)), -2)
    assert repr(a) == "ArctanRational(primitive=Polynomial((0, 1)), exponent=2, scale=-2)"
    assert repr(ArctanRational(1)) == "ArctanRational(primitive=Polynomial((1,)), exponent=0, scale=1)"


@given(small_ars)
def test_stored_form(r):
    p = r.primitive
    assert all(type(c) is int for c in p.coefficients)
    assert type(r.scale) is int
    if p.is_zero():
        assert (r.exponent, r.scale) == (0, 0)
    else:
        assert math.gcd(*p.coefficients) == 1 and p.coefficients[-1] > 0
    assert r.numerator == Polynomial(r.scale * c for c in p.coefficients)
    # The form is unique: rebuilding from it or from the full numerator
    # gives the same fields.
    assert ArctanRational(p, r.exponent, r.scale) == ArctanRational(r.numerator, r.exponent) == r
    assert all(rebuilt == r for rebuilt in _rebuilt(r))
