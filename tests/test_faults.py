"""A fault matrix: each row is a minimal fault in one kernel, patched in its
home module or class, and the checks expected to catch it.

Every row runs the four sweeps in-process at small sizes and asserts which
of them fail, the mismatches that each failing sweep reports and that the
faulty kernel's output differs from the true one, so that no row is vacuous.
"""

import json
import math

import pytest

from arctanderiv import arctan, composition, identities, polynomial
from arctanderiv.cli import main

SWEEPS = (
    "check-identity 60",
    "check-corollary 60",
    "check-2f1 40",
    "crosscheck 40 --points=0,1/2,-47/53",
)


def last_weight_plus_one_at_order_9(chain_weights):
    def wrong(n, numerators):
        weights = list(chain_weights(n, numerators))
        if n == 9:
            weights[-1] += 1
        return weights

    return wrong


def chain_weights_at_order_9(chain_weights):
    numerators, _ = composition._reciprocal_square_jets(9, [(1, 2)])
    return list(chain_weights(9, numerators))


def ratio_plus_one_at_minus_47_53(reciprocal_square_jets):
    def wrong(order, points):
        numerators, ratios = reciprocal_square_jets(order, points)
        ratios = [(c + 1 if x == (-47, 53) else c, d) for x, (c, d) in zip(points, ratios)]
        return numerators, ratios

    return wrong


def ratio_plus_one_below_order_10(reciprocal_square_jets):
    def wrong(order, points):
        numerators, ratios = reciprocal_square_jets(order, points)
        return numerators, [(c + 1, d) if order < 10 else (c, d) for c, d in ratios]

    return wrong


def one_power_of_d_too_few(square_chain_rule):
    # d^n in the denominator where d^(n+1) belongs: d = p^2 + q^2 is 1 at
    # x = 0, so that point cannot see it.
    def wrong(n, p, q, ratio, weights):
        top, bottom = square_chain_rule(n, p, q, ratio, weights)
        return top, bottom // ratio[1]

    return wrong


def content_not_moved_into_the_scale(init):
    # P is divided by its content, but the scale keeps the value passed.
    def wrong(self, primitive, exponent=0, scale=1):
        init(self, primitive, exponent, scale)
        if self.scale:
            object.__setattr__(self, "scale", scale)

    return wrong


def sign_left_in_p(init):
    # The content divided out is positive, so a negative leading coefficient
    # stays in P: the value is the same, its canonical form is not.
    def wrong(self, primitive, exponent=0, scale=1):
        coeffs = list(primitive) if hasattr(primitive, "__iter__") else [primitive]
        init(self, coeffs, exponent, scale)
        if self.scale and [c for c in coeffs if c][-1] < 0:
            object.__setattr__(self, "primitive", tuple(-c for c in self.primitive))
            object.__setattr__(self, "scale", -self.scale)

    return wrong


def canonical_form(init, *args):
    """The fields that ``init`` stores for ``ArctanRational(*args)``."""
    value = object.__new__(polynomial.ArctanRational)
    init(value, *args)
    return value.primitive, value.exponent, value.scale


def leading_sign_flipped_at_6(q_polynomial):
    def wrong(n):
        coeffs = list(q_polynomial(n))
        if n == 6:
            coeffs[-1] = -coeffs[-1]
        return tuple(coeffs)

    return wrong


def plus_one_for_5_coefficients(homogeneous):
    def wrong(coeffs, p, q):
        value = homogeneous(coeffs, p, q)
        return value + 1 if len(coeffs) == 5 else value

    return wrong


def odd_numerator_without_its_p(evaluate):
    # The parity branch, P = x R(x^2), leaves out the factor p of
    # p R_hom(p^2, q^2): at x = 0/1 the top is then scale R(0), not 0.
    # x = 1/2 cannot see it, since p = 1 there.
    def wrong(self, p, q):
        top, bottom = evaluate(self, p, q)
        coeffs = self.primitive
        if len(coeffs) % 2 or any(coeffs[::2]):
            return top, bottom
        return (top // p if p else self.scale * coeffs[1]), bottom

    return wrong


def constant_plus_one_out_of_exponent_5(derivative):
    def wrong(self):
        value = derivative(self)
        if self.exponent != 5:
            return value
        constant, *rest = value.coefficients
        return polynomial.ArctanRational((constant + 1, *rest), value.exponent)

    return wrong


def one_order_ahead(orders):
    # Order n + 1 labelled n: the labels stay right, the values do not.
    def wrong(n_max):
        return ((n - 1, value) for n, value in orders(n_max + 1) if n > 1)

    return wrong


def two_orders_short(orders):
    def wrong(n_max):
        return orders(n_max - 2)

    return wrong


def entry_1_of_row_20_plus_one(sweep_numerators):
    # On a copy: the yielded row is the recurrence's state, so the rows after
    # it stay right.  Rows cut to width 1 have no entry 1.
    def wrong(n_max, width=None):
        for n, row in sweep_numerators(n_max, width):
            yield n, [row[0], row[1] + 1, *row[2:]] if n == 20 and len(row) > 1 else row

    return wrong


def entry_5_of_row_21_plus_one(pascal_rows):
    def wrong():
        for row in pascal_rows():
            yield row[:5] + (row[5] + 1,) + row[6:] if len(row) == 22 else row

    return wrong


def plus_one_at_20_2(closed_form_numerator):
    # Row n + 1 of Pascal's triangle has n + 2 entries.
    def wrong(row, m):
        value = closed_form_numerator(row, m)
        return value + 1 if (len(row), m) == (22, 2) else value

    return wrong


def moment_plus_one_at_10(weighted_moments):
    def wrong(n_max):
        for n, lcm, moment in weighted_moments(n_max):
            yield n, lcm, moment + 1 if n == 10 else moment

    return wrong


def closed_plus_one_at_10(weighted_closed_numerator):
    def wrong(n, lcm):
        value = weighted_closed_numerator(n, lcm)
        return value + 1 if n == 10 else value

    return wrong


def value_plus_one_at_c_minus_15_index_5(terminating_2f1):
    def wrong(a, b, c, last):
        numerator, denominator = terminating_2f1(a, b, c, last)
        if (c, last) == ((-15, 1), 5):
            numerator += denominator
        return numerator, denominator

    return wrong


def one_past_when_an_upper_parameter_is_minus_5(truncation_index):
    def wrong(a, b):
        index = truncation_index(a, b)
        return index + 1 if (-5, 1) in (a, b) else index

    return wrong


# The fields of a kept mismatch that a row asserts, per sweep; a field that
# a mismatch does not carry reads None.
KEPT = {
    "check-identity": ("n", "m"),
    "check-corollary": ("n",),
    "check-2f1": ("n", "m", "kind"),
    "crosscheck": ("n", "pair", "point"),
}

# The cases of one crosscheck order at SWEEPS' points, by their KEPT fields
# after n.
PAIRS = (
    ("closed vs oracle", None),
    ("expanded vs oracle", None),
    ("pointwise vs oracle", "0"),
    ("pointwise vs oracle", "1/2"),
    ("pointwise vs oracle", "-47/53"),
)

# row: (home module or class, kernel, fault, a probe of the kernel's output,
# and for each sweep of SWEEPS that fails, its mismatch count and its kept
# mismatches by their KEPT fields).  The other sweeps must pass.
# arctan^(10)(0) is 0 whatever the weights, so x = 0 cannot see the
# _chain_weights fault.  The ratio fault below order 10 fails every point at
# n <= 10 but the even n at x = 0, where arctan^(n)(0) = 0.  The _homogeneous
# fault reaches the oracle's value through the 5 coefficients of R in
# q_8 = R(x^2) and q_9 = x R(x^2), and x = 0 sees it at n = 9 only.  The
# _evaluate fault fails every even n, whose numerator is odd, at 0 and at
# -47/53.  The derivative fault adds the even 1/(1+x^2)^6 to the oracle's
# arctan^(6), so it reaches every oracle value from n = 6 on, but at x = 0
# only at even n.  Row 20 of _sweep_numerators is crosscheck's expansion of
# order 21; check-corollary reads its rows cut to width 1.  The 2F1 fault
# hits the cases (n, m) with m - n = -15 and n//2 - m = 5.  The truncation
# fault hits the one case of each n >= 10 whose integer upper parameter,
# m - n/2 or m - n/2 + 1/2, is -5; the extra term it sums carries
# (-5)_6 = 0, so every value still holds.  The two faults in the canonical
# form act on every ArctanRational, so on every route but the jet route.
# With the content left out of the scale, the closed form and the oracle
# still agree at n = 2, where both drop the same content -2, and the
# pointwise cases at x = 0 pass at even n.  The sign left in P changes no
# value, so only a structural case can see it: the expansion passes its sign
# in the scale (-1)^(n-1) (n-1)!, which is negative at even n, while the
# closed form and the oracle keep a positive scale and leave their sign in P.
# A route's order stream one order ahead fails every case that reads it:
# the oracle's fail at x = 0 too, since exactly one of arctan^(n)(0) and
# arctan^(n+1)(0) is 0; the expansion's longer rows, at even n, give a
# numerator of higher degree, not an error.  A stream that stops two orders
# short is one mismatch of kind "coverage" at the last order reached, with
# no pair and no point.
FAULTS = {
    "_chain_weights": (
        composition,
        "_chain_weights",
        last_weight_plus_one_at_order_9,
        chain_weights_at_order_9,
        {
            "crosscheck": (
                2,
                [(10, "pointwise vs oracle", "1/2"), (10, "pointwise vs oracle", "-47/53")],
            ),
        },
    ),
    "_reciprocal_square_jets": (
        composition,
        "_reciprocal_square_jets",
        ratio_plus_one_at_minus_47_53,
        lambda jets: jets(3, [(-47, 53)]),
        {"crosscheck": (40, [(n, "pointwise vs oracle", "-47/53") for n in range(1, 21)])},
    ),
    "_reciprocal_square_jets below order 10": (
        composition,
        "_reciprocal_square_jets",
        ratio_plus_one_below_order_10,
        lambda jets: jets(3, [(1, 2)]),
        {
            "crosscheck": (
                25,
                [
                    (n, "pointwise vs oracle", x)
                    for n in range(1, 9)
                    for x in ("0", "1/2", "-47/53")
                    if n & 1 or x != "0"
                ],
            ),
        },
    ),
    "_square_chain_rule": (
        composition,
        "_square_chain_rule",
        one_power_of_d_too_few,
        lambda rule: rule(1, 1, 2, (4, 5), [-1]),
        {
            "crosscheck": (
                80,
                [(n, "pointwise vs oracle", x) for n in range(1, 11) for x in ("1/2", "-47/53")],
            ),
        },
    ),
    "q_polynomial": (
        arctan,
        "q_polynomial",
        leading_sign_flipped_at_6,
        lambda q_polynomial: q_polynomial(6),
        {"crosscheck": (1, [(7, "closed vs oracle", None)])},
    ),
    "_homogeneous": (
        polynomial,
        "_homogeneous",
        plus_one_for_5_coefficients,
        lambda homogeneous: homogeneous((1, 2, 3, 4, 5), 1, 2),
        {
            "crosscheck": (
                5,
                [
                    (9, "pointwise vs oracle", "0"),
                    (9, "pointwise vs oracle", "1/2"),
                    (9, "pointwise vs oracle", "-47/53"),
                    (10, "pointwise vs oracle", "1/2"),
                    (10, "pointwise vs oracle", "-47/53"),
                ],
            ),
        },
    ),
    "ArctanRational._evaluate": (
        polynomial.ArctanRational,
        "_evaluate",
        odd_numerator_without_its_p,
        lambda evaluate: evaluate(arctan.arctan_derivative_closed(2), 0, 1),
        {
            "crosscheck": (
                40,
                [(n, "pointwise vs oracle", x) for n in range(2, 21, 2) for x in ("0", "-47/53")],
            ),
        },
    ),
    "ArctanRational.derivative": (
        polynomial.ArctanRational,
        "derivative",
        constant_plus_one_out_of_exponent_5,
        lambda derivative: derivative(arctan.arctan_derivative_closed(5)),
        {
            "crosscheck": (
                158,
                [
                    (n, pair, x)
                    for n in range(6, 11)
                    for pair, x in PAIRS
                    if n not in (7, 9) or x != "0"
                ][:20],
            ),
        },
    ),
    "ArctanRational.__init__ content": (
        polynomial.ArctanRational,
        "__init__",
        content_not_moved_into_the_scale,
        lambda init: canonical_form(init, (2, 4), 1),
        {
            "crosscheck": (
                174,
                [
                    (n, pair, x)
                    for n in range(2, 7)
                    for pair, x in PAIRS
                    if (n, pair) != (2, "closed vs oracle") and (n & 1 or x != "0")
                ][:20],
            ),
        },
    ),
    "ArctanRational.__init__ sign": (
        polynomial.ArctanRational,
        "__init__",
        sign_left_in_p,
        lambda init: canonical_form(init, (0, -2), 1),
        {"crosscheck": (20, [(n, "expanded vs oracle", None) for n in range(2, 41, 2)])},
    ),
    "_oracle_orders": (
        arctan,
        "_oracle_orders",
        one_order_ahead,
        lambda orders: list(orders(3)),
        {"crosscheck": (200, [(n, pair, x) for n in range(1, 5) for pair, x in PAIRS])},
    ),
    "_prop12_orders": (
        arctan,
        "_prop12_orders",
        one_order_ahead,
        lambda orders: list(orders(3)),
        {"crosscheck": (40, [(n, "expanded vs oracle", None) for n in range(1, 21)])},
    ),
    "_prop12_orders stopping short": (
        arctan,
        "_prop12_orders",
        two_orders_short,
        lambda orders: list(orders(3)),
        {"crosscheck": (1, [(38, None, None)])},
    ),
    "_sweep_numerators": (
        identities,
        "_sweep_numerators",
        entry_1_of_row_20_plus_one,
        lambda sweep_numerators: list(sweep_numerators(20)),
        {
            "check-identity": (1, [(20, 1)]),
            "check-2f1": (1, [(20, 1, "value")]),
            "crosscheck": (1, [(21, "expanded vs oracle", None)]),
        },
    ),
    "_pascal_rows": (
        identities,
        "_pascal_rows",
        entry_5_of_row_21_plus_one,
        lambda pascal_rows: [row for row, _ in zip(pascal_rows(), range(22))],
        {"check-identity": (1, [(20, 2)])},
    ),
    "_closed_form_numerator": (
        identities,
        "_closed_form_numerator",
        plus_one_at_20_2,
        lambda numerator: numerator([math.comb(21, k) for k in range(22)], 2),
        {"check-identity": (1, [(20, 2)])},
    ),
    "_weighted_moments": (
        identities,
        "_weighted_moments",
        moment_plus_one_at_10,
        lambda weighted_moments: list(weighted_moments(10)),
        {"check-corollary": (1, [(10,)])},
    ),
    "_weighted_closed_numerator": (
        identities,
        "_weighted_closed_numerator",
        closed_plus_one_at_10,
        lambda numerator: numerator(10, math.lcm(*range(1, 12))),
        {"check-corollary": (1, [(10,)])},
    ),
    "_terminating_2f1": (
        identities,
        "_terminating_2f1",
        value_plus_one_at_c_minus_15_index_5,
        lambda terminating_2f1: terminating_2f1((-5, 1), (-9, 2), (-15, 1), 5),
        {"check-2f1": (2, [(19, 4, "value"), (20, 5, "value")])},
    ),
    "_truncation_index": (
        identities,
        "_truncation_index",
        one_past_when_an_upper_parameter_is_minus_5,
        lambda truncation_index: truncation_index((-5, 1), (-9, 2)),
        {"check-2f1": (31, [(n, (n - 10) // 2, "truncation index") for n in range(10, 30)])},
    ),
}


def run(capsys, line):
    code = main(line.split())
    return code, capsys.readouterr().out


def patch(monkeypatch, row):
    home, kernel, fault, probe, *_ = FAULTS[row]
    true = getattr(home, kernel)
    monkeypatch.setattr(home, kernel, fault(true))
    assert probe(getattr(home, kernel)) != probe(true)


@pytest.mark.parametrize("row", FAULTS)
def test_each_fault_is_caught_by_the_checks_of_its_row(capsys, monkeypatch, row):
    *_, caught = FAULTS[row]
    patch(monkeypatch, row)
    reports = {}
    for line in SWEEPS:
        code, out = run(capsys, f"{line} --format=json")
        report = json.loads(out)
        assert code == (not report["passed"]), line
        if code:
            fields = KEPT[report["check"]]
            kept = [tuple(f.get(field) for field in fields) for f in report["failures"]]
            reports[report["check"]] = (report["mismatches"], kept)
    assert reports == caught


def derive_differs(capsys, n, route, x):
    """Whether ``derive n`` by ``route`` prints other than by closed, at x
    or, for x None, symbolically; both exit 0."""
    at = "" if x is None else f" --x={x}"
    closed = run(capsys, f"derive {n} --method=closed{at}")
    other = run(capsys, f"derive {n} --method={route}{at}")
    assert closed[0] == other[0] == 0
    return other[1] != closed[1]


def test_a_wrong_chain_weight_changes_what_fdb_prints_where_crosscheck_sees_it(
    capsys, monkeypatch
):
    patch(monkeypatch, "_chain_weights")
    for x, differs in (("0", False), ("1/2", True), ("-47/53", True)):
        assert derive_differs(capsys, 10, "fdb", x) is differs, x


def test_a_wrong_jet_ratio_changes_what_fdb_prints_at_that_point_only(capsys, monkeypatch):
    # derive --method=fdb prints from the same kernel: its value is wrong at
    # -47/53 and still right at 1/2.
    patch(monkeypatch, "_reciprocal_square_jets")
    for x, differs in (("-47/53", True), ("1/2", False)):
        assert derive_differs(capsys, 12, "fdb", x) is differs, x


def test_a_wrong_q_6_changes_what_closed_prints_where_crosscheck_sees_it(capsys, monkeypatch):
    # q_6(0) = -1 is its constant term, which the fault leaves alone.
    patch(monkeypatch, "q_polynomial")
    for x, differs in ((None, True), ("0", False), ("1/2", True), ("-47/53", True)):
        assert derive_differs(capsys, 7, "oracle", x) is differs, x
