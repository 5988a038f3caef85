import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arctanderiv
from arctanderiv import (
    ArctanRational,
    arctan,
    arctan_derivative_closed,
    arctan_derivative_expanded,
    arctan_derivative_oracle,
    arctan_derivative_pointwise,
    composition,
    crosscheck,
    exact_str,
    identities,
    q_polynomial,
)
from oracles import gaussian_derivative_value


def test_q_polynomial_small_cases():
    assert q_polynomial(0) == (1,)
    assert q_polynomial(1) == (0, -2)
    assert q_polynomial(2) == (-1, 0, 3)
    assert q_polynomial(3) == (0, 4, 0, -4)


def test_q_polynomial_rejects_negative():
    with pytest.raises(ValueError):
        q_polynomial(-1)


@pytest.mark.parametrize("n", [1499, 9999])
def test_q_polynomial_matches_binomial_formula_at_large_n(n):
    # q_n = (-1)^n sum over even k of C(n+1, k+1) (-1)^(k/2) x^(n-k), each C
    # from math.comb, as tests/test_cli.py checks qpoly for n <= 80.  At
    # n = 9999, where one math.comb per term would take seconds, every 50th k
    # and the last: q_polynomial steps each term from the one before, so a
    # wrong step shows at the next k checked.
    q = q_polynomial(n)
    assert len(q) == n + 1
    assert not any(q[1 - n % 2 :: 2])
    ks = range(0, n + 1, 2) if n < 2000 else [*range(0, n + 1, 50), n - n % 2]
    for k in ks:
        assert q[n - k] == (-1) ** (n + k // 2) * math.comb(n + 1, k + 1), k


def test_q_polynomial_structure():
    for n in range(101):
        q = q_polynomial(n)
        assert len(q) == n + 1
        assert q[-1] == (-1) ** n * (n + 1)
        # Only powers with the parity of n appear.
        for power, c in enumerate(q):
            if power % 2 != n % 2:
                assert c == 0


def test_closed_form_small_cases():
    assert arctan_derivative_closed(1) == ArctanRational(1, 1)
    assert arctan_derivative_closed(2) == ArctanRational((0, -2), 2)
    assert arctan_derivative_closed(3) == ArctanRational((-2, 0, 6), 3)


def test_order_zero_is_rejected_by_all_routes():
    for route in (
        arctan_derivative_closed,
        arctan_derivative_expanded,
        arctan_derivative_oracle,
    ):
        with pytest.raises(ValueError):
            route(0)
    with pytest.raises(ValueError):
        arctan_derivative_pointwise(0, Fraction(1))


def test_symbolic_routes_have_integer_numerators():
    oracle = arctan_derivative_oracle(1)
    for n in range(1, 41):
        if n > 1:
            oracle = oracle.derivative()
        for route in (arctan_derivative_closed(n), arctan_derivative_expanded(n), oracle):
            assert all(type(c) is int for c in route.coefficients)


def _gaussian_times(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _value_at_i(coeffs):
    """P(i) as a pair (re, im), by Horner's scheme in Gaussian integers."""
    re, im = 0, 0
    for c in reversed(coeffs):
        re, im = c - im, re  # (re + im i) i + c
    return re, im


def _route_numerator_at_i(n):
    """(-1)^(n-1) (n-1)! (2i)^(n-1), the numerator of arctan^(n) at x = i."""
    power = (1, 0)
    for _ in range(n - 1):
        power = _gaussian_times(power, (0, 2))
    scale = (-1) ** (n - 1) * math.factorial(n - 1)
    return (scale * power[0], scale * power[1])


def test_route_numerators_keep_every_factor_of_one_plus_x2():
    # P(i) != 0, so 1+x^2 never divides a route numerator: canonical form
    # never lowers the exponent below n on route traffic.
    oracle = arctan_derivative_oracle(1)
    for n in range(1, 201):
        if 1 < n <= 40:
            oracle = oracle.derivative()
        routes = [arctan_derivative_closed(n), arctan_derivative_expanded(n)]
        if n <= 40:
            routes.append(oracle)
        expected = _route_numerator_at_i(n)
        for route in routes:
            assert route.exponent == n
            assert _value_at_i(route.coefficients) == expected


def test_symbolic_routes_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    atan = sympy.atan(x)
    for n in range(1, 31):
        top, bottom = sympy.fraction(sympy.together(sympy.diff(atan, x, n)))
        top, bottom = sympy.Poly(top, x), sympy.Poly(bottom, x)
        for route in (arctan_derivative_closed(n), arctan_derivative_expanded(n)):
            numerator = sympy.Poly(list(reversed(route.coefficients)), x)
            denominator = sympy.Poly(x**2 + 1, x) ** route.exponent
            assert numerator * bottom == top * denominator


def test_expanded_form_small_cases():
    assert arctan_derivative_expanded(1) == ArctanRational(1, 1)
    assert arctan_derivative_expanded(2) == ArctanRational((0, -2), 2)
    assert arctan_derivative_expanded(3) == ArctanRational((-2, 0, 6), 3)


def test_pointwise_small_cases():
    assert arctan_derivative_pointwise(1, 0) == 1
    assert arctan_derivative_pointwise(3, 0) == -2
    assert arctan_derivative_pointwise(2, 1) == Fraction(-1, 2)


def test_pointwise_matches_gaussian_integer_oracle():
    # Past crosscheck's sizes and at large height, against a route that
    # shares no code with the jets.
    for x in (Fraction(0), Fraction(1, 2), Fraction(-1, 3), Fraction(-47, 53), Fraction(355, 113)):
        for n in (*range(1, 41), 257, 1000):
            assert arctan_derivative_pointwise(n, x) == gaussian_derivative_value(n, x), (n, x)


POINTWISE_POINTS = [(0, 1), (1, 2), (-47, 53), (355, 113), (1, 10**50)]


def test_pointwise_at_many_points_is_pointwise_at_each():
    # One weight row, buffered for several points, gives each point the
    # pair that a row streamed for that point alone gives.
    for n in range(1, 61):
        alone = [arctan._pointwise(n, [x])[0] for x in POINTWISE_POINTS]
        assert arctan._pointwise(n, POINTWISE_POINTS) == alone, n


def test_pointwise_builds_one_weight_row_per_call(monkeypatch):
    # The points share one row: a row per point cost about twice the time
    # of crosscheck's jet side at 8 points.
    calls = []
    chain_weights = composition._chain_weights

    def counted(n, numerators):
        calls.append(n)
        return chain_weights(n, numerators)

    monkeypatch.setattr(composition, "_chain_weights", counted)
    points = [(0, 1), (1, 2), (-47, 53), (355, 113), (1, 3), (-2, 3), (3, 4), (1, 10**50)]
    for count in (1, 3, 8):
        calls.clear()
        assert len(arctan._pointwise(40, points[:count])) == count
        assert calls == [39], count


def test_pointwise_at_no_points_is_empty():
    for n in (1, 2, 17):
        assert arctan._pointwise(n, []) == []
        report = crosscheck(n, [])
        assert report.passed
        assert report.cases == 2 * n


def test_oracle_small_cases():
    assert arctan_derivative_oracle(1) == ArctanRational(1, 1)
    assert arctan_derivative_oracle(2) == ArctanRational((0, -2), 2)
    assert arctan_derivative_oracle(4) == ArctanRational((0, 24, 0, -24), 4)


def test_maclaurin_values_at_zero():
    # arctan(x) = sum (-1)^j x^(2j+1)/(2j+1): the odd derivatives at 0 are
    # (-1)^j (2j)!, the even ones vanish.
    for j in range(21):
        assert arctan_derivative_pointwise(2 * j + 1, 0) == (-1) ** j * math.factorial(2 * j)
        if j >= 1:
            assert arctan_derivative_pointwise(2 * j, 0) == 0


def test_odd_even_symmetry():
    for n in range(1, 13):
        closed = arctan_derivative_closed(n)
        sign = (-1) ** (n + 1)
        for x in (Fraction(1, 2), Fraction(3, 7)):
            assert closed.evaluate(-x) == sign * closed.evaluate(x)
            assert arctan_derivative_pointwise(n, -x) == sign * arctan_derivative_pointwise(n, x)


def test_crosscheck_single_order():
    report = crosscheck(1, (Fraction(0),))
    assert report.passed
    assert report.cases == 3  # two structural comparisons, one sample point


def test_crosscheck_mixed_points():
    points = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(3, 7))
    report = crosscheck(12, points)
    assert report.passed
    assert report.cases == 12 * (2 + len(points))


def test_default_sample_points_are_the_pairs_crosscheck_reads():
    points = arctan.DEFAULT_SAMPLE_POINTS
    assert arctanderiv.DEFAULT_SAMPLE_POINTS is points
    assert points == ((0, 1), (1, 1), (-1, 1), (1, 2), (-1, 2), (3, 7))
    fractions = tuple(Fraction(*x) for x in points)
    for n in (1, 12):
        report = crosscheck(n).to_dict()
        assert report == crosscheck(n, points).to_dict() == crosscheck(n, fractions).to_dict()


def test_crosscheck_without_points():
    report = crosscheck(15, ())
    assert report.passed
    assert report.cases == 2 * 15


def test_crosscheck_wide_sweep_single_point():
    report = crosscheck(50, (Fraction(2, 3),))
    assert report.passed


def test_crosscheck_reports_a_wrong_jet_value(monkeypatch):
    # The jet route must be compared with the oracle, not with itself: one
    # wrong (n, point) value must be the first failure, with that n and point.
    points = (Fraction(1, 3), Fraction(-47, 53), Fraction(3, 4))
    bad_n, bad_point = 9, Fraction(-47, 53)
    square_chain_rule = composition._square_chain_rule

    def wrong_once(order, p, q, ratio, weights):
        top, bottom = square_chain_rule(order, p, q, ratio, weights)
        if (order + 1, Fraction(p, q)) == (bad_n, bad_point):
            top += bottom
        return top, bottom

    monkeypatch.setattr(composition, "_square_chain_rule", wrong_once)
    report = crosscheck(12, points)
    assert report.mismatches == 1
    first = report.failures[0]
    assert (first["n"], first["point"]) == (bad_n, str(bad_point))
    assert first["pair"] == "pointwise vs oracle"


def test_crosscheck_decides_pointwise_cases_by_value(monkeypatch):
    # Both pointwise pairs multiplied through by a factor that changes with
    # the order and sign: the same values, so every case still passes.
    square_chain_rule = composition._square_chain_rule
    evaluate = ArctanRational._evaluate

    def scaled_jet(order, p, q, ratio, weights):
        top, bottom = square_chain_rule(order, p, q, ratio, weights)
        factor = (-3) ** (order % 5) * (order + 2)
        return top * factor, bottom * factor

    def scaled_oracle(value, p, q):
        top, bottom = evaluate(value, p, q)
        factor = 7 ** (value.exponent % 4) * -q
        return top * factor, bottom * factor

    monkeypatch.setattr(composition, "_square_chain_rule", scaled_jet)
    monkeypatch.setattr(ArctanRational, "_evaluate", scaled_oracle)
    points = (Fraction(0), Fraction(1, 3), Fraction(-47, 53), Fraction(3))
    report = crosscheck(30, points)
    assert report.passed
    assert report.cases == 30 * (2 + len(points))


def test_crosscheck_reports_a_wrong_literal_numerator(monkeypatch):
    # The prop12 kernel must be compared with the oracle: one numerator off
    # by one in stream row p must fail exactly the expanded form of n = p + 1.
    # The perturbed row is a copy, so the recurrence carries on from the
    # true numerators.
    bad_p = 9
    numerators_of = identities._sweep_numerators

    def wrong_numerators(n_max):
        for p, numerators in numerators_of(n_max):
            if p == bad_p:
                numerators = list(numerators)
                numerators[2] += 1
            yield p, numerators

    monkeypatch.setattr(identities, "_sweep_numerators", wrong_numerators)
    report = crosscheck(20, (Fraction(1, 3),))
    assert report.mismatches == 1
    first = report.failures[0]
    assert (first["n"], first["pair"]) == (bad_p + 1, "expanded vs oracle")


def counted(monkeypatch, home, name) -> list:
    """Replace ``home.name`` by a wrapper that records each call in the list returned."""
    calls, function = [], getattr(home, name)

    def wrapper(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(home, name, wrapper)
    return calls


def test_printed_routes_build_one_value_per_order_they_step(monkeypatch):
    # The prop12 stream yields rows, not values: an _expanded per order
    # would make arctan_derivative_expanded(400) several times slower.
    expanded = counted(monkeypatch, arctan, "_expanded")
    derivative = counted(monkeypatch, ArctanRational, "derivative")
    arctan_derivative_expanded(50)
    assert (len(expanded), len(derivative)) == (1, 0)
    arctan_derivative_oracle(50)
    assert (len(expanded), len(derivative)) == (1, 49)


def stops_at_order_8(oracle_orders):
    return lambda n_max: oracle_orders(min(n_max, 8))


def drops_the_last_point(pointwise):
    return lambda n, points: pointwise(n, points)[:-1]


@pytest.mark.parametrize(
    "kernel, fault, n, cases",
    [("_oracle_orders", stops_at_order_8, 8, 32), ("_pointwise", drops_the_last_point, 10, 30)],
)
def test_crosscheck_reports_a_short_sweep_as_one_coverage_mismatch(
    monkeypatch, kernel, fault, n, cases
):
    # Every case that a shortened sweep reaches passes; the shortfall must
    # still fail it.
    monkeypatch.setattr(arctan, kernel, fault(getattr(arctan, kernel)))
    report = crosscheck(10, (0, Fraction(1, 2)))
    assert (report.cases, report.mismatches) == (cases + 1, 1)
    assert report.failures == [{"n": n, "kind": "coverage", "cases": cases, "expected": 40}]


def test_expanded_rows_of_one_stream_match_single_orders():
    for n, numerators in arctan._prop12_orders(81):
        assert arctan._expanded(n, numerators) == arctan_derivative_expanded(n), n


def test_crosscheck_renders_points_past_the_digit_limit():
    point = Fraction(10**4400 + 1, 3)
    report = crosscheck(2, [point])
    assert report.passed
    assert report.parameters["points"] == [exact_str(point)]


# Points of small height and of crosscheck's benchmark heights (numerator
# and denominator 40-60), negative points, 0 and a point past the
# int -> str digit limit.
POINTS = (
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
    | st.builds(Fraction, st.integers(40, 60) | st.integers(-60, -40), st.integers(40, 60))
    | st.sampled_from([Fraction(0), Fraction(10**4400 + 1, 3)])
)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.lists(POINTS, max_size=4))
def test_crosscheck_reads_fractions_ints_and_pairs_alike(n, points):
    # The CLI hands crosscheck lowest-terms (p, q) pairs; a library caller
    # may give Fractions or ints.  Every spelling gives the same report.
    if any(x.numerator.bit_length() > 64 for x in points):
        n = min(n, 3)  # each order at a 4400-digit point costs tens of ms
    expected = crosscheck(n, points).to_dict()
    assert expected["passed"], expected
    integral = [x.numerator if x.denominator == 1 else x for x in points]
    pairs = [(x.numerator, x.denominator) for x in points]
    assert crosscheck(n, integral).to_dict() == expected
    assert crosscheck(n, tuple(pairs)).to_dict() == expected


@pytest.mark.parametrize(
    "bad, error",
    [
        (0.5, TypeError),
        ("1/3", TypeError),
        (Decimal("0.5"), TypeError),
        (True, TypeError),
        ((1, 2, 3), TypeError),
        ((1,), TypeError),
        ([1, 2], TypeError),
        ((1.0, 2), TypeError),
        ((True, 2), TypeError),
        ((1, Fraction(2)), TypeError),
        ((1, 0), ValueError),
        ((1, -2), ValueError),
        ((2, 4), ValueError),
        ((0, 2), ValueError),
    ],
    ids=repr,
)
def test_crosscheck_rejects_other_points(bad, error):
    with pytest.raises(error, match="sample point"):
        crosscheck(3, [Fraction(1, 2), bad])


def test_crosscheck_requires_positive_bound():
    with pytest.raises(ValueError):
        crosscheck(0)


def test_crosscheck_report_is_serializable():
    report = crosscheck(3)
    document = report.to_dict()
    assert document["check"] == "crosscheck"
    assert document["n_max"] == 3
    assert document["failures"] == []
    assert document["passed"] is True
