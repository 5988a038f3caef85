"""A fault matrix: each row is a minimal fault in one kernel, patched in its
home module, and the checks expected to catch it.

Every row runs the four sweeps in-process at small sizes and asserts their
exit codes, the mismatches that ``crosscheck`` reports and that the faulty
kernel's output differs from the true one, so that no row is vacuous.
"""

import json

import pytest

from arctanderiv import arctan, composition, polynomial
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


def leading_sign_flipped_at_6(q_polynomial):
    def wrong(n):
        coeffs = list(q_polynomial(n))
        if n == 6:
            coeffs[-1] = -coeffs[-1]
        return tuple(coeffs)

    return wrong


def plus_one_for_5_coefficients(homogeneous):
    def wrong(coeffs, p, q, powers):
        value = homogeneous(coeffs, p, q, powers)
        return value + 1 if len(coeffs) == 5 else value

    return wrong


# row: (home module, kernel, fault, a probe of the kernel's output, the exit
# codes of SWEEPS, crosscheck's mismatch count and its kept mismatches as
# (n, pair, point), the point None for a symbolic pair).  arctan^(10)(0) is
# 0 whatever the weights, so x = 0 cannot see the _chain_weights fault.  The
# ratio fault below order 10 fails every point at n <= 10 but the even n
# at x = 0, where arctan^(n)(0) = 0.  The _homogeneous fault reaches the
# oracle's value through the 5 coefficients of R in q_8 = R(x^2) and
# q_9 = x R(x^2), and x = 0 sees it at n = 9 only.
FAULTS = {
    "_chain_weights": (
        composition,
        "_chain_weights",
        last_weight_plus_one_at_order_9,
        chain_weights_at_order_9,
        (0, 0, 0, 1),
        2,
        [(10, "pointwise vs oracle", "1/2"), (10, "pointwise vs oracle", "-47/53")],
    ),
    "_reciprocal_square_jets": (
        composition,
        "_reciprocal_square_jets",
        ratio_plus_one_at_minus_47_53,
        lambda jets: jets(3, [(-47, 53)]),
        (0, 0, 0, 1),
        40,
        [(n, "pointwise vs oracle", "-47/53") for n in range(1, 21)],
    ),
    "_reciprocal_square_jets below order 10": (
        composition,
        "_reciprocal_square_jets",
        ratio_plus_one_below_order_10,
        lambda jets: jets(3, [(1, 2)]),
        (0, 0, 0, 1),
        25,
        [
            (n, "pointwise vs oracle", x)
            for n in range(1, 9)
            for x in ("0", "1/2", "-47/53")
            if n & 1 or x != "0"
        ],
    ),
    "_square_chain_rule": (
        composition,
        "_square_chain_rule",
        one_power_of_d_too_few,
        lambda rule: rule(1, 1, 2, (4, 5), [-1]),
        (0, 0, 0, 1),
        80,
        [(n, "pointwise vs oracle", x) for n in range(1, 11) for x in ("1/2", "-47/53")],
    ),
    "q_polynomial": (
        arctan,
        "q_polynomial",
        leading_sign_flipped_at_6,
        lambda q_polynomial: q_polynomial(6),
        (0, 0, 0, 1),
        1,
        [(7, "closed vs oracle", None)],
    ),
    "_homogeneous": (
        polynomial,
        "_homogeneous",
        plus_one_for_5_coefficients,
        lambda homogeneous: homogeneous((1, 2, 3, 4, 5), 1, 2, {}),
        (0, 0, 0, 1),
        5,
        [
            (9, "pointwise vs oracle", "0"),
            (9, "pointwise vs oracle", "1/2"),
            (9, "pointwise vs oracle", "-47/53"),
            (10, "pointwise vs oracle", "1/2"),
            (10, "pointwise vs oracle", "-47/53"),
        ],
    ),
}


def run(capsys, line):
    code = main(line.split())
    return code, capsys.readouterr().out


def patch(monkeypatch, row):
    module, kernel, fault, probe, *_ = FAULTS[row]
    true = getattr(module, kernel)
    monkeypatch.setattr(module, kernel, fault(true))
    assert probe(getattr(module, kernel)) != probe(true)


@pytest.mark.parametrize("row", FAULTS)
def test_each_fault_is_caught_by_the_checks_of_its_row(capsys, monkeypatch, row):
    *_, exits, count, mismatches = FAULTS[row]
    patch(monkeypatch, row)
    results = [run(capsys, f"{line} --format=json") for line in SWEEPS]
    assert tuple(code for code, _ in results) == exits
    report = json.loads(results[-1][1])
    assert report["mismatches"] == count
    assert [(f["n"], f["pair"], f.get("point")) for f in report["failures"]] == mismatches


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
