import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arctanderiv import (
    NonTerminatingSeriesError,
    alternating_binomial_closed_form,
    alternating_binomial_sum,
    check_binomial_identity,
    check_hypergeometric_form,
    check_hypergeometric_sweep,
    check_weighted_identity,
    identities,
    terminating_2f1,
    truncation_index,
    weighted_binomial_closed_form,
    weighted_binomial_sum,
)
from oracles import (
    alternating_sum_literal,
    forward_2f1,
    taylor_shift_by_one,
    weighted_sum_literal,
)


def test_alternating_sum_values():
    assert alternating_binomial_sum(0, 0) == 1
    assert alternating_binomial_sum(2, 0) == Fraction(3, 4)
    assert alternating_binomial_sum(4, 1) == Fraction(-5, 8)


def test_alternating_sum_matches_literal_oracle():
    for n in range(151):
        for m in range(n // 2 + 1):
            assert alternating_binomial_sum(n, m) == alternating_sum_literal(n, m)


def test_closed_form_values():
    assert alternating_binomial_closed_form(0, 0) == 1
    assert alternating_binomial_closed_form(2, 0) == Fraction(3, 4)
    assert alternating_binomial_closed_form(4, 1) == Fraction(-10, 16)


def test_range_validation():
    for fn in (alternating_binomial_sum, alternating_binomial_closed_form):
        with pytest.raises(ValueError):
            fn(4, 3)
        with pytest.raises(ValueError):
            fn(-1, 0)


def test_identity_sweep_case_counts():
    assert check_binomial_identity(0).cases == 1
    report = check_binomial_identity(4)
    assert report.passed
    assert report.cases == 9


@pytest.mark.parametrize(
    "sweep", [check_binomial_identity, check_weighted_identity, check_hypergeometric_sweep]
)
def test_sweeps_reject_negative_n_max(sweep):
    with pytest.raises(ValueError, match="requires n_max >= 0"):
        sweep(-1)


def test_identity_sweep_wide():
    report = check_binomial_identity(120)
    assert report.passed


def test_weighted_sum_values():
    assert weighted_binomial_sum(0) == 1
    assert weighted_binomial_sum(1) == 0
    assert weighted_binomial_sum(2) == Fraction(1, 48)


def test_weighted_sum_matches_literal_oracle():
    for n in range(301):
        assert weighted_binomial_sum(n) == weighted_sum_literal(n)


def test_weighted_closed_form_values():
    assert weighted_binomial_closed_form(0) == 1
    assert weighted_binomial_closed_form(1) == 0
    assert weighted_binomial_closed_form(2) == Fraction(1, 48)
    assert weighted_binomial_closed_form(7) == 0


def test_weighted_identity_sweep():
    report = check_weighted_identity(100)
    assert report.passed
    # 101 direct comparisons plus 51 recurrence steps.
    assert report.cases == 152


def test_even_prefix_recurrence():
    for j in range(101):
        lhs = alternating_binomial_sum(2 * (j + 1), 0) - alternating_binomial_sum(2 * j, 0) / 4
        assert lhs == Fraction(2, 4 ** (j + 1))


def test_truncation_index():
    assert truncation_index(0, Fraction(1, 2)) == 0
    assert truncation_index(-2, -5) == 2
    assert truncation_index(Fraction(1, 2), Fraction(3, 2)) is None
    assert truncation_index(Fraction(-3, 2), -1) == 1


def test_terminating_series_values():
    for b, c in ((Fraction(5), Fraction(3)), (Fraction(-1, 2), Fraction(7, 2))):
        assert terminating_2f1(0, b, c) == 1
        assert terminating_2f1(-1, b, c) == 1 - b / c
    assert terminating_2f1(-1, Fraction(-3, 2), -2) == Fraction(1, 4)


def test_non_terminating_series_raises():
    with pytest.raises(NonTerminatingSeriesError):
        terminating_2f1(Fraction(1, 2), Fraction(3, 2), 5)
    with pytest.raises(NonTerminatingSeriesError):
        terminating_2f1(-(10**6), Fraction(1, 2), 5)


def test_vanishing_lower_parameter_raises():
    with pytest.raises(ZeroDivisionError):
        terminating_2f1(-5, Fraction(1, 2), -3)


def _outcome(evaluate, *args):
    try:
        return evaluate(*args)
    except (ZeroDivisionError, NonTerminatingSeriesError) as exc:
        return type(exc)


_small_rationals = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 5))


@given(
    truncating=st.integers(-30, 0),
    other=_small_rationals,
    c=st.one_of(_small_rationals, st.integers(-30, -1)),
    swap=st.booleans(),
)
def test_terminating_series_matches_forward_sum(truncating, other, c, swap):
    a, b = (other, truncating) if swap else (truncating, other)
    assert _outcome(terminating_2f1, a, b, c) == _outcome(forward_2f1, a, b, c)


def test_hypergeometric_form_cases():
    for n, m, expected in (
        (2, 1, Fraction(-1, 4)),
        (4, 1, Fraction(-5, 8)),
        (6, 0, Fraction(7, 64)),
    ):
        report = check_hypergeometric_form(n, m)
        assert report.passed, report.failures
        assert alternating_binomial_sum(n, m) == expected
    assert alternating_binomial_closed_form(6, 0) == Fraction(7, 64)


def test_hypergeometric_form_validates_range():
    with pytest.raises(ValueError):
        check_hypergeometric_form(4, 3)


def test_hypergeometric_sweep():
    report = check_hypergeometric_sweep(20)
    assert report.passed
    # Two cases (index pin + value) per (n, m) pair.
    assert report.cases == 2 * sum(n // 2 + 1 for n in range(21))


def test_sweep_values_match_single_calls_and_oracles():
    # At even n = 2j, m = 0 this holds the weight sum s_j = S_{2j}[0] that
    # check-corollary reads against alternating_binomial_sum(2j, 0).
    for n, numerators in identities._sweep_numerators(300):
        assert len(numerators) == n // 2 + 1
        for m, numerator in enumerate(numerators):
            value = Fraction(numerator, 4 ** (n // 2))
            assert value == alternating_binomial_sum(n, m)
            if m in (0, n // 4, n // 2):
                assert value == alternating_sum_literal(n, m)
    assert n == 300
    for n, lcm, moment in identities._weighted_moments(300):
        assert lcm == math.lcm(*range(1, 302))
        value = Fraction(moment, lcm << 2 * n)
        assert value == weighted_binomial_sum(n) == weighted_sum_literal(n)
    assert n == 300


def literal_weights(n):
    """The weights (-1)^i 4^(n//2 - i) C(n-i, i) of the literal sum, from
    math.comb."""
    return [(-1) ** i * 4 ** (n // 2 - i) * math.comb(n - i, i) for i in range(n // 2 + 1)]


def test_sweep_numerators_match_taylor_shift_oracle():
    # The recurrence on shifted polynomials against shifting each n's own
    # weights.
    for n, numerators in identities._sweep_numerators(300):
        assert numerators == taylor_shift_by_one(literal_weights(n))
    assert n == 300


@given(st.lists(st.integers(-(10**30), 10**30), min_size=1, max_size=40))
def test_taylor_shift_matches_literal_binomial_sums(weights):
    numerators = taylor_shift_by_one(weights)
    assert len(numerators) == len(weights)
    for m, numerator in enumerate(numerators):
        assert numerator == sum(math.comb(i, m) * w for i, w in enumerate(weights))


def test_taylor_shift_past_1024():
    # Past n = 1024, where the batch sums once switched from cached rows to
    # math.comb.
    n, numerators = next(itertools.islice(identities._sweep_numerators(1201), 1201, None))
    assert n == 1201
    assert len(numerators) == n // 2 + 1
    for m, numerator in enumerate(numerators):
        value = Fraction(numerator, 4 ** (n // 2))
        assert value == alternating_binomial_closed_form(n, m)
        if m in (0, n // 4, n // 2):
            assert value == alternating_binomial_sum(n, m) == alternating_sum_literal(n, m)
