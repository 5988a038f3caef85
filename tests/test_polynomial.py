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
    arctan_derivative_closed,
    exact_str,
)
from arctanderiv.digits import _DIGIT_RUN, _DIRECT_BITS, _integer
from oracles import (
    DEFAULT_DIGIT_LIMIT,
    difference_quotient_derivative,
    digit_limit,
    homogeneous_horner,
    power_rule,
    quotient_rule_step,
    rational_sum,
    rendered_rational,
    times_one_plus_x2,
)

coefficients = st.integers(-80, 80)
rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=8
)
small_polys = st.lists(coefficients, min_size=0, max_size=9)
NAMES = {
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


def _plain(*coeffs):
    """The polynomial with these coefficients, as an ArctanRational over
    (1+x^2)^0, which differentiates and evaluates it."""
    return ArctanRational(coeffs)


def test_derivative_examples():
    # At exponent 0 the quotient rule adds one factor 1+x^2 and removes it.
    assert _plain(5).derivative() == _plain()
    assert _plain(0, 0, 0, 1).derivative() == _plain(0, 0, 3)
    assert _plain(-1, 0, 3).derivative() == _plain(0, 6)


def test_evaluate_examples():
    assert _plain(4, 1, 9).evaluate(0) == 4
    assert _plain(-1, 0, 3).evaluate(1) == 2
    assert _plain(0, -2).evaluate(Fraction(1, 2)) == -1
    assert _plain().evaluate(Fraction(-7, 3)) == 0


@st.composite
def homogeneous_cases(draw):
    """Coefficients of a length around the leaf size of the split and its
    doublings, with the odd or even ones zeroed or neither, one run of
    zeros, and a point p/q."""
    size = draw(st.sampled_from((1, 2, 63, 64, 65, 127, 128, 129, 255, 256, 257, 513, 1025)))
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
    # The parity rule and the split by halves give one Horner loop's value.
    coeffs, p, q = case
    value = ArctanRational(coeffs)
    assume(value.primitive)
    expected = homogeneous_horner(value.coefficients, p, q), q ** (len(value.primitive) - 1)
    assert value._evaluate(p, q) == expected


def test_trailing_zeros_are_trimmed():
    assert ArctanRational((1, 0, 0)) == ArctanRational((1,)) == ArctanRational(1)
    assert ArctanRational((0, 0)).primitive == ()
    assert ArctanRational(()).primitive == ()
    assert ArctanRational((0, 0, 4)).primitive == (0, 0, 1)


# Ints of up to about 60k digits, drawn by bit length so that every size is
# met.
big_ints = st.integers(0, 200_000).flatmap(lambda bits: st.integers(-(1 << bits), 1 << bits))


def _check_exact_str(n, scale):
    with digit_limit(0):
        want, want_scaled, want_scale = str(n), str(scale * n), str(scale)
        want_fraction = str(Fraction(n, scale)) if scale else None
    assert exact_str(n) == want
    if scale:
        assert exact_str(Fraction(n, scale)) == want_fraction
    if n:
        # n and 1 are coprime, so n stays a stored coefficient and prints as
        # its exact Decimal product with the scale.
        terms = [(0, want_scaled), (1, want_scale)] if scale else []
        assert list(ArctanRational((n, 1), 0, scale).terms()) == terms


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
    # Up to _DIRECT_BITS bits exact_str is str(): that must hold under the
    # lowest digit limit Python allows, 640, as must the split path above it.
    assert 2**_DIRECT_BITS < 10**640
    with digit_limit(640):
        for bits in (_DIRECT_BITS - 1, _DIRECT_BITS, _DIRECT_BITS + 1):
            for n in ((1 << bits) - 1, 1 << (bits - 1)):
                for signed in (n, -n):
                    assert signed.bit_length() == bits
                    _check_exact_str(signed, -3)
                    _check_exact_str(-7, signed)


def test_printed_digits_read_back():
    # digits._integer shares no code with the printer (test_witnesses), and
    # reads back what it prints under the lowest digit limit: ints next to
    # the printer's split widths, next to the reader's run of 640 digits
    # (built without int() of a text) and past both.
    widths = [(1 << bits) - 1 for bits in (2047, 2048, 2049, 4096, 70000)]
    runs = [v for d in (639, 640, 641, 1281) for v in (10 ** (d - 1), 10**d - 1, 10**d // 7)]
    assert _DIGIT_RUN == 640
    with digit_limit(640):
        read = [(v, _integer(exact_str(v))) for w in (*widths, *runs, 10**9000 + 1) for v in (w, -w)]
    assert all(v == back for v, back in read)
    # arctan^(400)'s coefficients are wider than _DIRECT_BITS, so each text
    # after the first comes by a ratio step of _product_strs.
    closed = arctan_derivative_closed(400)
    coefficients = closed.coefficients
    assert max(c.bit_length() for c in coefficients) > _DIRECT_BITS
    with digit_limit(640):
        read = [(coefficients[power], _integer(text)) for power, text in closed.terms()]
    assert len(read) == sum(1 for c in coefficients if c)
    assert all(c == back for c, back in read)


def test_text_rendering():
    assert str(ArctanRational((-1, 0, 3))) == "3*x^2 - 1"
    assert str(ArctanRational((0, -2))) == "-2*x"
    assert str(ArctanRational(())) == "0"
    assert str(ArctanRational((1, 0, 1))) == "x^2 + 1"


@given(small_polys, st.integers(0, 3))
def test_repr_round_trips(p, k):
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
    value = ArctanRational((2, 1, 0, -2), 0, 3)
    assert value.coefficients == value.numerator.coefficients == (6, 3, 0, -6)
    assert all(type(c) is int for c in value.coefficients)


@pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(4, 2), 0.5, "1", True], ids=repr)
def test_value_classes_take_ints_only(c):
    # No Fraction coefficient, scale or exponent, even an integral one, and
    # no float, str or bool.
    with pytest.raises(TypeError):
        ArctanRational((c,))
    with pytest.raises(TypeError):
        ArctanRational(c)
    with pytest.raises(TypeError):
        ArctanRational(1, 1, c)
    with pytest.raises(TypeError):
        ArctanRational(1, c)
    with pytest.raises(TypeError):
        DerivativeJet(0, (c,), 1)


@given(small_polys, st.integers(0, 3), rationals)
def test_derivative_matches_difference_quotient(q, j, x):
    # P = Q (1+x^2)^j, so that the numerators of both the quotient rule and
    # of P' can carry factors 1+x^2.  At exponent 0 the quotient rule's
    # P'(1+x^2) / (1+x^2) loses exactly that one factor again.
    p = times_one_plus_x2(q, j)
    derivative = ArctanRational(p).derivative()
    assert derivative.exponent == 0
    assert derivative == ArctanRational(power_rule(p))
    assert derivative.evaluate(x) == difference_quotient_derivative(p, x)


def test_arctan_rational_canonicalization():
    base = ArctanRational((0, -2), 2)
    inflated = ArctanRational(times_one_plus_x2((0, -2), 3), 5)
    assert inflated == base
    assert inflated.exponent == 2
    # Canonicalizing a canonical value is the identity.
    again = ArctanRational(base.coefficients, base.exponent)
    assert again == base


def _divisible_by_one_plus_x2(p):
    # 1+x^2 | P exactly when P(i) = 0: both alternating sums vanish.
    even = sum((-1) ** j * c for j, c in enumerate(p[0::2]))
    odd = sum((-1) ** j * c for j, c in enumerate(p[1::2]))
    return even == 0 and odd == 0


@given(small_polys, st.integers(0, 3), st.integers(0, 4))
def test_canonical_form_is_minimal(p, j, k):
    inflated = times_one_plus_x2(p, j)
    r = ArctanRational(inflated, k)
    assert 0 <= r.exponent <= k
    assert ArctanRational(times_one_plus_x2(r.coefficients, k - r.exponent)) == ArctanRational(inflated)
    if r.exponent > 0:
        assert not _divisible_by_one_plus_x2(r.coefficients)


def test_arctan_rational_zero_normalizes_to_exponent_zero():
    zero = ArctanRational((), 5)
    assert zero.exponent == 0
    assert zero.primitive == zero.coefficients == ()


def test_arctan_rational_zero_evaluates_to_zero():
    zero = ArctanRational((), 5)
    for x in (0, 1, Fraction(-47, 53), Fraction(355, 113), Fraction(1, 10**50)):
        assert zero.evaluate(x) == 0


def test_arctan_rational_rejects_negative_exponent():
    with pytest.raises(ValueError):
        ArctanRational((1,), -1)


def test_quotient_rule_steps():
    start = ArctanRational(1, 1)
    first = start.derivative()
    assert first == ArctanRational((0, -2), 2)
    second = first.derivative()
    assert second == ArctanRational((-2, 0, 6), 3)


def test_derivative_of_constant_is_zero():
    assert ArctanRational((9,), 0).derivative() == ArctanRational((), 0)


def test_evaluate_examples_rational_function():
    assert ArctanRational((1,), 0).evaluate(Fraction(5, 3)) == 1
    assert ArctanRational((0, -2), 2).evaluate(1) == Fraction(-1, 2)
    assert ArctanRational((-2, 0, 6), 0).evaluate(0) == -2


small_ars = st.builds(
    ArctanRational,
    st.lists(coefficients, min_size=0, max_size=5),
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
    value = ArctanRational(coeffs, exponent, scale)
    assert value.derivative() == quotient_rule_step(value)


def test_rational_function_rendering():
    assert str(ArctanRational((0, -2), 2)) == "(-2*x) / (1+x^2)^2"
    assert str(ArctanRational(1, 1)) == "(1) / (1+x^2)^1"
    assert str(ArctanRational((3,), 0)) == "3"


_big = st.integers(2040, 7000).flatmap(lambda bits: st.integers(-(1 << bits), 1 << bits))


@st.composite
def _mixed_coefficients(draw):
    """Coefficients with a content above 1 (or 1), a leading coefficient of
    either sign, inner, trailing or all zeros, some of them past the 2048
    bits that ``_decimal`` converts directly, times (1+x^2)^j; an exponent
    in 0..3 and a scale that may be 0."""
    small = st.integers(-9, 9)
    base = draw(st.lists(st.just(0) | small | _big, max_size=6))
    content = draw(st.integers(1, 12) | _big)
    coeffs = times_one_plus_x2([content * c for c in base], draw(st.integers(0, 2)))
    coeffs += [0] * draw(st.integers(0, 2))
    return coeffs, draw(st.integers(0, 3)), draw(st.just(0) | small | _big)


_wide_factor = st.integers(65, 200).flatmap(lambda bits: st.integers(1 << (bits - 1), 1 << bits))
_factor = st.integers(-9, 9).filter(bool) | _wide_factor | _wide_factor.map(lambda c: -c)


@st.composite
def _coefficient_runs(draw):
    """A run of coefficients for the step of ``digits._product_strs`` that prints each one
    from the one before: c_(k+1) / c_k = a_k / b_k, with each factor small
    or, for the full product, past 64 bits, as c_k = base a_0 ... a_(k-1)
    b_k ... b_(K-1).  Zeros may come between them, and a run of one is a lone
    coefficient; the base and the scale put the products past 2048 bits."""
    steps = draw(st.lists(st.tuples(_factor, _factor), max_size=6))
    base = draw(_big.filter(bool))
    coeffs = []
    for k in range(len(steps) + 1):
        coeffs += [0] * draw(st.integers(0, 2))
        c = base
        for j, (a, b) in enumerate(steps):
            c *= a if j < k else b
        coeffs.append(c)
    return coeffs, draw(st.integers(0, 3)), draw(st.integers(-12, 12).filter(bool) | _big)


@st.composite
def _widest_at_the_switch(draw):
    """Coefficients whose widest product scale * c has exactly _DIRECT_BITS
    or _DIRECT_BITS + 1 bits, where ``digits._product_strs`` switches from str() to
    Decimal."""
    bits = draw(st.sampled_from((_DIRECT_BITS, _DIRECT_BITS + 1)))
    scale = draw(st.integers(1, 1 << 40))
    widest = draw(st.integers(-(-(1 << (bits - 1)) // scale), ((1 << bits) - 1) // scale))
    assert (scale * widest).bit_length() == bits
    coeffs = draw(st.lists(st.integers(-widest, widest), max_size=5))
    coeffs.insert(draw(st.integers(0, len(coeffs))), draw(st.sampled_from((widest, -widest))))
    return coeffs, draw(st.integers(0, 3)), draw(st.sampled_from((scale, -scale)))


def rendering_cases():
    """Numerators for the renderer: mixed coefficients, runs with small or
    wide ratios past 2048 bits, and widest products at the switch."""
    return _mixed_coefficients() | _coefficient_runs() | _widest_at_the_switch()


@settings(max_examples=200, deadline=None)
@given(rendering_cases())
def test_rendering_matches_list_oracle(case):
    coeffs, exponent, scale = case
    value = ArctanRational(coeffs, exponent, scale)
    text, terms = rendered_rational(coeffs, exponent, scale)
    assert str(value) == text
    assert list(value.terms()) == terms


def test_polynomials_are_values():
    # A plain polynomial is an ArctanRational at exponent 0.
    a, b = ArctanRational((1, 0, 3)), ArctanRational([1, 0, 3, 0])
    assert a == b and hash(a) == hash(b)
    assert len({a, b, ArctanRational((1, 0, 3))}) == 1
    assert a != ArctanRational((1, 0, 4))
    assert ArctanRational((1,)) != (1,)
    with pytest.raises(AttributeError):
        a.primitive = (2,)
    with pytest.raises(AttributeError):
        del a.primitive
    assert a.primitive == a.coefficients == (1, 0, 3)
    for rebuilt in _rebuilt(a):
        assert type(rebuilt) is ArctanRational and rebuilt.primitive == a.primitive
    assert repr(ArctanRational((1, 0, -3))) == "ArctanRational(primitive=(-1, 0, 3), exponent=0, scale=-1)"


def test_rational_functions_are_values():
    a = ArctanRational((0, -2), 2)
    b = ArctanRational((0, -2, 0, -2), 3)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, ArctanRational((0, -2), 2)}) == 1
    assert a != ArctanRational((0, -2), 1)
    assert ArctanRational(1, 1) != (1,)
    assert ArctanRational((1,), 0) != (1,)
    for field in ("primitive", "exponent", "scale", "numerator", "coefficients"):
        with pytest.raises(AttributeError):
            setattr(a, field, 0)
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert (a.numerator, a.coefficients, a.exponent) == (ArctanRational((0, -2)), (0, -2), 2)
    for rebuilt in _rebuilt(a):
        assert type(rebuilt) is ArctanRational
        assert (rebuilt.primitive, rebuilt.exponent, rebuilt.scale) == (a.primitive, 2, -2)
    assert (a.primitive, a.scale) == ((0, 1), -2)
    assert repr(a) == "ArctanRational(primitive=(0, 1), exponent=2, scale=-2)"
    assert repr(ArctanRational(1)) == "ArctanRational(primitive=(1,), exponent=0, scale=1)"


@given(small_ars)
def test_stored_form(r):
    p = r.primitive
    assert type(p) is tuple and all(type(c) is int for c in p)
    assert type(r.scale) is int
    if not p:
        assert (r.exponent, r.scale) == (0, 0)
    else:
        assert math.gcd(*p) == 1 and p[-1] > 0
    assert r.coefficients == r.numerator.coefficients == tuple(r.scale * c for c in p)
    # The form is unique: rebuilding from it or from the full numerator
    # gives the same fields.
    assert ArctanRational(p, r.exponent, r.scale) == ArctanRational(r.coefficients, r.exponent) == r
    assert all(rebuilt == r for rebuilt in _rebuilt(r))
