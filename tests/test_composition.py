import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arctanderiv import (
    DerivativeJet,
    faa_di_bruno,
    multiplicity_vectors,
    square_chain_coefficients,
    square_chain_rule,
)
from arctanderiv.composition import _chain_weights, _reciprocal_square_jets, _square_chain_rule
from oracles import (
    euler_partition_count,
    nth_derivative_value,
    polynomial_jet,
    polynomial_value,
    set_partition_count,
    square_chain_rule_unreduced,
)


def test_multiplicity_vectors_small_cases():
    assert multiplicity_vectors(1) == [(1,)]
    assert multiplicity_vectors(2) == [(0, 1), (2, 0)]
    assert multiplicity_vectors(4) == [
        (0, 0, 0, 1),
        (0, 2, 0, 0),
        (1, 0, 1, 0),
        (2, 1, 0, 0),
        (4, 0, 0, 0),
    ]


def test_multiplicity_vectors_rejects_zero():
    with pytest.raises(ValueError):
        multiplicity_vectors(0)


def test_multiplicity_vectors_weight_and_order():
    for n in range(1, 13):
        vectors = multiplicity_vectors(n)
        assert vectors == sorted(vectors)
        assert len(set(vectors)) == len(vectors)
        for vec in vectors:
            assert len(vec) == n
            assert sum(i * li for i, li in enumerate(vec, start=1)) == n


def test_vector_count_matches_partition_numbers():
    for n in range(1, 31):
        assert len(multiplicity_vectors(n)) == euler_partition_count(n)


def test_polynomial_jet():
    jet = polynomial_jet((1, 0, 1), 2, 4)
    assert jet.point == 2
    assert jet.values == (5, 4, 2, 0, 0)


def test_reciprocal_jet_values():
    y0 = Fraction(3, 2)
    jet = DerivativeJet.of_reciprocal(y0, 6)
    for k in range(7):
        assert jet.values[k] == Fraction(math.factorial(k) * (-1) ** k, 1) / y0 ** (k + 1)


def test_jets_are_values():
    a = DerivativeJet.of_reciprocal(Fraction(5, 4), 2)
    b = DerivativeJet.of_values(
        Fraction(10, 8), (Fraction(4, 5), Fraction(-16, 25), Fraction(128, 125))
    )
    # One jet has one stored form, however it is built.
    c = DerivativeJet(Fraction(10, 8), (Fraction(4, 5), Fraction(-16, 25), Fraction(64, 125)))
    assert a.taylor == b.taylor == c.taylor
    assert a == b == c and hash(a) == hash(b) == hash(c)
    assert len({a, b, c, DerivativeJet.of_reciprocal(Fraction(5, 4), 2)}) == 1
    assert a != DerivativeJet.of_reciprocal(Fraction(5, 4), 3)
    assert a != DerivativeJet.of_values(Fraction(5, 4), a.values[:2] + (0,))
    assert a != DerivativeJet.of_values(Fraction(5, 3), a.values)
    assert a != (a.point, a.values)
    for field in ("point", "values"):
        with pytest.raises(AttributeError):
            setattr(a, field, 0)
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert a.point == Fraction(5, 4) and a.order == 2
    assert pickle.loads(pickle.dumps(a)) == copy.copy(a) == copy.deepcopy(a) == a
    assert repr(a) == (
        "DerivativeJet(point=Fraction(5, 4), "
        "taylor=(Fraction(4, 5), Fraction(-16, 25), Fraction(64, 125)))"
    )
    assert repr(DerivativeJet.of_values(0, (1,))) == (
        "DerivativeJet(point=Fraction(0, 1), taylor=(Fraction(1, 1),))"
    )


def test_reciprocal_jet_at_a_negative_point():
    # 1/y0 is negative here, and so is every (-1)^k / y0^(k+1).
    y0 = Fraction(-5, 4)
    jet = DerivativeJet.of_reciprocal(y0, 8)
    assert jet.taylor[0] == Fraction(-4, 5) and max(jet.taylor) < 0
    values = [Fraction(math.factorial(k) * (-1) ** k) / y0 ** (k + 1) for k in range(9)]
    generic = DerivativeJet.of_values(y0, values)
    assert jet.values == generic.values == tuple(values)
    assert jet == generic and hash(jet) == hash(generic)
    for x0 in (Fraction(1, 2), Fraction(-3, 2)):
        for n in range(9):
            g_jet = _square_inner_jet(y0, x0, n)
            expected = faa_di_bruno(n, jet, g_jet)
            assert square_chain_rule(n, x0, jet) == expected
            assert square_chain_rule(n, x0, generic) == expected


def test_of_values_stores_the_taylor_coefficients():
    # v_2 = 1 has the Taylor coefficient 1/2, a denominator no value has.
    jet = DerivativeJet.of_values(0, (1, 1, 1))
    assert jet.taylor == (1, 1, Fraction(1, 2))
    assert all(type(f) is Fraction for f in jet.taylor)
    assert jet.values == (1, 1, 1)
    rng = random.Random(47)
    for order in range(12):
        values = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(order + 1))
        assert DerivativeJet.of_values(Fraction(1, 3), values).values == values


def test_jet_copies_keep_the_stored_form():
    names = {"DerivativeJet": DerivativeJet, "Fraction": Fraction}
    for jet in (
        DerivativeJet.of_reciprocal(Fraction(-5, 4), 3),
        DerivativeJet(Fraction(10, 8), (4, Fraction(-16, 25), 0)),
    ):
        rebuilt = (
            eval(repr(jet), names),
            pickle.loads(pickle.dumps(jet)),
            copy.copy(jet),
            copy.deepcopy(jet),
        )
        for copied in rebuilt:
            assert type(copied) is DerivativeJet
            assert (copied.point, copied.taylor) == (jet.point, jet.taylor)


def test_reciprocal_jet_rejects_zero():
    with pytest.raises(ZeroDivisionError):
        DerivativeJet.of_reciprocal(0, 3)


def test_jet_needs_values():
    with pytest.raises(ValueError):
        DerivativeJet.of_values(0, ())
    with pytest.raises(ValueError):
        DerivativeJet(0, ())


def test_first_order_is_plain_chain_rule():
    rng = random.Random(7)
    for _ in range(20):
        g0, g1, f1 = (Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3))
        f_jet = DerivativeJet.of_values(g0, (Fraction(rng.randint(-9, 9)), f1))
        g_jet = DerivativeJet.of_values(0, (g0, g1))
        assert faa_di_bruno(1, f_jet, g_jet) == f1 * g1


def test_cube_then_square_third_derivative():
    # f(y) = y^2 composed with g(x) = x^3 is x^6; value checked against the
    # differentiate-then-evaluate oracle on x^6 written out.
    f = (0, 0, 1)
    g = (0, 0, 0, 1)
    x0 = Fraction(1)
    f_jet = polynomial_jet(f, polynomial_value(g, x0), 3)
    g_jet = polynomial_jet(g, x0, 3)
    assert faa_di_bruno(3, f_jet, g_jet) == 120
    assert nth_derivative_value((0,) * 6 + (1,), 3, x0) == 120


def test_all_ones_jets_give_bell_numbers():
    for n in range(1, 9):
        f_jet = DerivativeJet.of_values(0, (Fraction(1),) * (n + 1))
        g_jet = DerivativeJet.of_values(0, (Fraction(0),) + (Fraction(1),) * n)
        assert faa_di_bruno(n, f_jet, g_jet) == set_partition_count(n)


def test_order_zero_returns_composed_value():
    f_jet = DerivativeJet.of_values(5, (Fraction(11),))
    g_jet = DerivativeJet.of_values(1, (Fraction(5),))
    assert faa_di_bruno(0, f_jet, g_jet) == 11


def test_jet_order_validation():
    f_jet = DerivativeJet.of_values(0, (1, 1))
    g_jet = DerivativeJet.of_values(0, (0, 1))
    with pytest.raises(ValueError):
        faa_di_bruno(2, f_jet, g_jet)
    with pytest.raises(ValueError):
        square_chain_rule(2, 0, f_jet)


def test_jet_anchor_validation():
    f_jet = DerivativeJet.of_values(3, (1, 1))
    g_jet = DerivativeJet.of_values(0, (2, 1))
    with pytest.raises(ValueError):
        faa_di_bruno(1, f_jet, g_jet)


def _int_form_jet(point, numerators, ratio):
    # The public jet of the kernels' int form: F_k = T_k r^(k+1).
    return DerivativeJet(point, [t * ratio ** (k + 1) for k, t in enumerate(numerators)])


def _random_jet(rng, order):
    return DerivativeJet.of_values(
        Fraction(rng.randint(-5, 5)),
        tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(order + 1)),
    )


def test_square_chain_rule_low_orders():
    rng = random.Random(21)
    for _ in range(20):
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        jet = _random_jet(rng, 2)
        f0, f1, f2 = jet.values
        assert square_chain_rule(1, x, jet) == 2 * x * f1
        assert square_chain_rule(2, x, jet) == 2 * f1 + 4 * x * x * f2
        assert square_chain_rule(0, x, jet) == f0


def test_square_chain_rule_odd_orders_vanish_at_zero():
    rng = random.Random(5)
    for n in (1, 3, 5, 7, 9):
        jet = _random_jet(rng, n)
        assert square_chain_rule(n, 0, jet) == 0


def test_square_chain_rule_parity():
    rng = random.Random(11)
    for n in range(1, 9):
        jet = _random_jet(rng, n)
        x = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        sign = 1 if n % 2 == 0 else -1
        assert square_chain_rule(n, -x, jet) == sign * square_chain_rule(n, x, jet)


def _square_inner_jet(inner, x0, n):
    # Jet of g(x) = a + x^2 at x0, with a chosen so that g(x0) = inner.
    g_values = [inner, 2 * x0, Fraction(2)] + [Fraction(0)] * max(n - 2, 0)
    return DerivativeJet.of_values(x0, g_values[: n + 1])


def test_square_chain_rule_agrees_with_generic_composition():
    # f = reciprocal, g = a + x^2: the collapsed sum and the full partition
    # sum must agree exactly.
    for a, x0 in ((Fraction(1), Fraction(3, 7)), (Fraction(5, 3), Fraction(-1, 2))):
        inner = a + x0 * x0
        for n in range(0, 16):
            f_jet = DerivativeJet.of_reciprocal(inner, n)
            g_jet = _square_inner_jet(inner, x0, n)
            assert faa_di_bruno(n, f_jet, g_jet) == square_chain_rule(n, x0, f_jet)
    # Arbitrary jets with mixed denominators, at zero, a negative point and a
    # point of large height.
    rng = random.Random(17)
    for x0 in (Fraction(0), Fraction(-3, 4), Fraction(355, 113)):
        for n in range(0, 11):
            f_jet = _random_jet(rng, n)
            g_jet = _square_inner_jet(f_jet.point, x0, n)
            assert faa_di_bruno(n, f_jet, g_jet) == square_chain_rule(n, x0, f_jet)


def test_square_chain_rule_reads_a_prefix_of_longer_jets():
    # crosscheck evaluates every order from one reciprocal jet per point, so
    # a jet of order N > n must give the exact-order result.
    rng = random.Random(29)
    for x in (Fraction(0), Fraction(1, 2), Fraction(-47, 53), Fraction(355, 113)):
        long_reciprocal = DerivativeJet.of_reciprocal(1 + x * x, 41)
        long_random = _random_jet(rng, 41)
        for n in range(41):
            exact = DerivativeJet.of_reciprocal(1 + x * x, n)
            assert long_reciprocal.values[: n + 1] == exact.values
            assert square_chain_rule(n, x, long_reciprocal) == square_chain_rule(n, x, exact)
            prefix = DerivativeJet.of_values(long_random.point, long_random.values[: n + 1])
            assert square_chain_rule(n, x, long_random) == square_chain_rule(n, x, prefix)


@pytest.mark.parametrize(
    "x, ratio, common",
    [
        (Fraction(3, 7), Fraction(1, 5), 1),  # gcd(4p^2 c, q^2 d) = 1
        (Fraction(-1, 2), Fraction(4, 5), 4),  # q^2: reciprocal jet, p^2 + q^2 odd
        (Fraction(1, 3), Fraction(9, 10), 18),  # 2q^2: p and q both odd
        (Fraction(0), Fraction(1), 1),  # x = 0: the sum is its k = h term
        (Fraction(3), Fraction(1, 10), 2),  # q = 1
        (Fraction(2), Fraction(1, 5), 1),  # q = 1
        (Fraction(5, 4), Fraction(-16, 41), 16),  # a negative ratio
    ],
)
def test_square_chain_rule_matches_the_unreduced_sum(x, ratio, common):
    # The kernel on int forms built here, against the unreduced sum and the
    # Fraction rule on the same jet.
    rng = random.Random(37)
    c, d = ratio.numerator, ratio.denominator
    p, q = x.numerator, x.denominator
    if p:
        assert math.gcd(4 * p * p * c, q * q * d) == common
    reciprocal = [(-1) ** k for k in range(31)]
    assert _int_form_jet(1 / ratio, reciprocal, ratio) == DerivativeJet.of_reciprocal(1 / ratio, 30)
    for numerators in (reciprocal, [rng.randint(-99, 99) for _ in range(31)]):
        jet = _int_form_jet(x, numerators, ratio)
        for n in range(31):
            kernel = Fraction(*_square_chain_rule(n, p, q, (c, d), _chain_weights(n, numerators)))
            assert kernel == square_chain_rule_unreduced(n, x, numerators, ratio), n
            assert square_chain_rule(n, x, jet) == kernel, n


def test_square_chain_rule_matches_the_derivative_form_oracle():
    # The oracle sums w_k N_(n-k) on derivative numerators N_j = j! T_j; the
    # kernel sums C(n-k, k) T_(n-k) on Taylor numerators and multiplies by n!
    # once, and the Fraction rule sums the same on the jet's coefficients.
    rng = random.Random(53)
    for x in (Fraction(0), Fraction(3), Fraction(-22, 7), Fraction(355, 113)):
        p, q = x.numerator, x.denominator
        reciprocal = ([(-1) ** k for k in range(61)], 1 / (1 + x * x))
        random_form = ([rng.randint(-99, 99) for _ in range(61)], Fraction(rng.randint(1, 9), 7))
        for numerators, ratio in (reciprocal, random_form):
            jet = _int_form_jet(x, numerators, ratio)
            for n in range(61):
                weights = _chain_weights(n, numerators)
                pair = _square_chain_rule(n, p, q, (ratio.numerator, ratio.denominator), weights)
                expected = square_chain_rule_unreduced(n, x, numerators, ratio)
                assert Fraction(*pair) == expected, (x, n)
                assert square_chain_rule(n, x, jet) == expected, (x, n)


def test_chain_weights_are_binomials():
    for n in range(301):
        binomials = [math.comb(n - k, k) for k in range(n // 2 + 1)]
        assert list(_chain_weights(n, (1,) * (n + 1))) == binomials, n
        signs = [(-1) ** j for j in range(n + 1)]
        assert list(_chain_weights(n, signs)) == [
            (-1) ** (n - k) * b for k, b in enumerate(binomials)
        ], n


def test_square_chain_rule_takes_a_weight_row_or_its_stream():
    # arctan._pointwise buffers one row of weights for several points and
    # streams it for one.  Both give the unreduced sum's value.
    rng = random.Random(43)
    randoms = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)]
    cases = []
    for x in randoms:
        ratio = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5))
        cases.append((x, [rng.randint(-99, 99) for _ in range(31)], ratio))
    for x in (Fraction(0), Fraction(-3), Fraction(355, 113)):
        cases.append((x, [(-1) ** k for k in range(31)], 1 / (1 + x * x)))
    for x, numerators, ratio in cases:
        p, q = x.numerator, x.denominator
        ratio_pair = ratio.numerator, ratio.denominator
        for n in range(31):
            row = list(_chain_weights(n, numerators))
            assert len(row) == n // 2 + 1
            pair = _square_chain_rule(n, p, q, ratio_pair, row)
            stream = _chain_weights(n, numerators)
            assert pair == _square_chain_rule(n, p, q, ratio_pair, stream)
            assert Fraction(*pair) == square_chain_rule_unreduced(n, x, numerators, ratio), (x, n)


@given(
    st.lists(
        st.fractions()
        | st.builds(Fraction, st.integers(-(10**300), 10**300), st.integers(1, 10**300))
        | st.just(Fraction(0)),
        min_size=1,
        max_size=4,
    ),
    st.integers(0, 40),
)
def test_reciprocal_square_jets_are_the_reciprocal_jets_in_ints(xs, order):
    # The int jets of y -> 1/y at 1 + x^2, T_k (c/d)^(k+1) with the
    # numerators shared by every point and each ratio in lowest terms, are
    # the public jets' coefficients.
    numerators, ratios = _reciprocal_square_jets(order, [(x.numerator, x.denominator) for x in xs])
    assert len(ratios) == len(xs)
    for x, (c, d) in zip(xs, ratios):
        assert d > 0 and math.gcd(c, d) == 1
        jet = DerivativeJet.of_reciprocal(1 + x * x, order)
        assert _int_form_jet(1 + x * x, numerators, Fraction(c, d)) == jet


def test_coefficient_recurrence_small_cases():
    assert square_chain_coefficients(1) == [1]
    assert square_chain_coefficients(2) == [1, 2]
    assert square_chain_coefficients(4) == [1, 12, 12]


def test_coefficient_recurrence_matches_closed_form():
    for n in range(1, 101):
        coeffs = square_chain_coefficients(n)
        assert len(coeffs) == n // 2 + 1
        for k, c in enumerate(coeffs):
            assert c == math.factorial(n) // (math.factorial(k) * math.factorial(n - 2 * k))
            # The paper's step from Faa di Bruno's formula to the binomial sum.
            assert c * math.factorial(n - k) == math.factorial(n) * math.comb(n - k, k)


def test_coefficient_recurrence_rejects_zero():
    with pytest.raises(ValueError):
        square_chain_coefficients(0)
