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
    check_hypergeometric_sweep,
    check_weighted_identity,
    combinatorics,
    crosscheck,
    hypergeometric,
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


def test_each_sweep_closes_at_the_cases_it_visits():
    # A report closes at a count computed from n_max and the point count
    # alone; it must be the number of cases that the sweep's loops visit:
    # one per (n, m) for check-identity, two (index and value) for
    # check-2f1, one per n and one per recurrence step j for check-corollary,
    # and for crosscheck two structural cases and one per point at each order.
    points = (0, Fraction(1, 2), Fraction(-47, 53))
    for n_max in range(41):
        pairs = sum(1 for n in range(n_max + 1) for m in range(n // 2 + 1))
        steps = sum(1 for n in range(n_max + 1)) + sum(1 for j in range(n_max // 2 + 1))
        reports = [
            (check_binomial_identity(n_max), pairs),
            (check_hypergeometric_sweep(n_max), 2 * pairs),
            (check_weighted_identity(n_max), steps),
        ]
        if n_max:
            reports += [
                (crosscheck(n_max, points[:k]), sum(2 + k for n in range(1, n_max + 1)))
                for k in range(len(points) + 1)
            ]
        for report, cases in reports:
            assert (report.expected, report.cases, report.passed) == (cases, cases, True), (
                report.check,
                n_max,
            )


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


def test_a_finite_series_at_the_term_bound_is_refused_as_too_long():
    # The series truncates, so it is finite; its index reaches MAX_TERMS.
    assert truncation_index(-(10**6), 1) == hypergeometric.MAX_TERMS == 10**6
    with pytest.raises(NonTerminatingSeriesError, match="within 1000000 terms"):
        terminating_2f1(-(10**6), 1, 1)


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
        assert alternating_binomial_sum(n, m) == expected
    assert alternating_binomial_closed_form(6, 0) == Fraction(7, 64)
    report = check_hypergeometric_sweep(6)
    assert report.passed, report.failures


def test_hypergeometric_sweep():
    report = check_hypergeometric_sweep(20)
    assert report.passed
    # Two cases (index pin + value) per (n, m) pair.
    assert report.cases == 2 * sum(n // 2 + 1 for n in range(21))


def test_sweep_series_parameters_are_lowest_terms_pairs():
    # The sweep hands the 2F1 kernels (numerator, denominator) pairs, not
    # Fractions; they must be the upper parameters in lowest terms, and the
    # pair kernel must give what the public series gives.
    for n in range(41):
        for m in range(n // 2 + 1):
            a, b = Fraction(2 * m - n, 2), Fraction(2 * m - n + 1, 2)
            pairs = identities._upper_parameters(n, m)
            assert pairs == ((a.numerator, a.denominator), (b.numerator, b.denominator))
            index = hypergeometric._truncation_index(*pairs)
            assert index == truncation_index(a, b) == n // 2 - m
            value = hypergeometric._terminating_2f1(*pairs, (m - n, 1), index)
            assert Fraction(*value) == terminating_2f1(a, b, m - n), (n, m)


def test_sweep_values_match_single_calls_and_oracles():
    # At even n = 2j, m = 0 this holds the weight sum s_j = S_{2j}[0] that
    # check-corollary reads against alternating_binomial_sum(2j, 0).
    for n, numerators in combinatorics._sweep_numerators(300):
        assert len(numerators) == n // 2 + 1
        for m, numerator in enumerate(numerators):
            value = Fraction(numerator, 1 << n)
            assert value == alternating_binomial_sum(n, m)
            if m in (0, n // 4, n // 2):
                assert value == alternating_sum_literal(n, m)
    assert n == 300
    lcm = math.lcm(*range(1, 302))
    for n, moment in identities._weighted_moments(300):
        value = Fraction(moment, lcm << 2 * n)
        assert value == weighted_binomial_sum(n) == weighted_sum_literal(n)
    assert n == 300


def literal_weights(n):
    """The weights (-1)^i 2^(n - 2i) C(n-i, i) of the literal sum times 2^n,
    from math.comb."""
    return [(-1) ** i * 2 ** (n - 2 * i) * math.comb(n - i, i) for i in range(n // 2 + 1)]


def test_cut_rows_are_prefixes_of_full_rows():
    full = list(combinatorics._sweep_numerators(300))
    for width in (1, 2, 3):
        cut = list(combinatorics._sweep_numerators(300, width))
        assert cut == [(n, numerators[:width]) for n, numerators in full], width


def test_sweep_numerators_match_taylor_shift_oracle():
    # The recurrence on shifted polynomials against shifting each n's own
    # weights.
    for n, numerators in combinatorics._sweep_numerators(300):
        assert numerators == taylor_shift_by_one(literal_weights(n))
    assert n == 300


@given(st.lists(st.integers(-(10**30), 10**30), min_size=1, max_size=40))
def test_taylor_shift_matches_literal_binomial_sums(weights):
    numerators = taylor_shift_by_one(weights)
    assert len(numerators) == len(weights)
    for m, numerator in enumerate(numerators):
        assert numerator == sum(math.comb(i, m) * w for i, w in enumerate(weights))


def test_taylor_shift_past_1024():
    # A large odd order, where row n of the recurrence must be the closed
    # form's numerators (-1)^m C(n+1, 2m+1) over 2^n exactly.
    n, numerators = next(itertools.islice(combinatorics._sweep_numerators(1201), 1201, None))
    assert n == 1201
    assert len(numerators) == n // 2 + 1
    for m, numerator in enumerate(numerators):
        value = Fraction(numerator, 1 << n)
        assert value == alternating_binomial_closed_form(n, m)
        if m in (0, n // 4, n // 2):
            assert value == alternating_binomial_sum(n, m) == alternating_sum_literal(n, m)
