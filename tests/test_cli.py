import contextlib
import csv
import gc
import io
import itertools
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from math import comb, lcm
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import arctanderiv
from arctanderiv import (
    arctan,
    arctan_derivative_closed,
    arctan_derivative_pointwise,
    combinatorics,
    composition,
    hypergeometric,
    identities,
    reports,
)
from arctanderiv.cli import (
    COMMANDS,
    FORMATS,
    _parse,
    _read,
    _resolve,
    build_parser,
    main,
)
from arctanderiv.commands import _emit, _quote
from oracles import (
    DEFAULT_DIGIT_LIMIT,
    arctan_numerator,
    current_digit_limit,
    digit_limit,
    gaussian_derivative_value,
    rendered_rational,
)


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_qpoly_text(capsys):
    code, out, _ = run_cli(capsys, "qpoly", "2")
    assert code == 0
    assert out == "3*x^2 - 1\n"
    code, out, _ = run_cli(capsys, "qpoly", "0")
    assert code == 0
    assert out == "1\n"


def test_qpoly_csv(capsys):
    code, out, _ = run_cli(capsys, "qpoly", "3", "--format=csv")
    assert code == 0
    assert out == "power,numerator,denominator\n1,4,1\n3,-4,1\n"


def test_qpoly_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "qpoly", "3", "--format=json")
    assert code == 0
    document = json.loads(out)
    assert document == {
        "n": 3,
        "terms": [
            {"power": 1, "numerator": 4, "denominator": 1},
            {"power": 3, "numerator": -4, "denominator": 1},
        ],
    }
    assert json.dumps(document, indent=2) == out.rstrip("\n")


@pytest.mark.parametrize("fmt", FORMATS)
def test_qpoly_matches_binomial_formula(capsys, fmt):
    # q_n = (-1)^n sum over even k of C(n+1, k+1) (-1)^(k/2) x^(n-k).  Every
    # odd n has a content above 1 (q_1 = -2x, q_3 = 4x - 4x^3).
    for n in range(81):
        coeffs = [0] * (n + 1)
        for k in range(0, n + 1, 2):
            coeffs[n - k] = (-1) ** (n + k // 2) * comb(n + 1, k + 1)
        terms = [(power, c) for power, c in enumerate(coeffs) if c]
        code, out, _ = run_cli(capsys, "qpoly", str(n), f"--format={fmt}")
        assert code == 0
        if fmt == "text":
            assert out == rendered_rational(coeffs, 0, 1)[0] + "\n"
        elif fmt == "json":
            assert json.loads(out) == {
                "n": n,
                "terms": [{"power": p, "numerator": c, "denominator": 1} for p, c in terms],
            }
        else:
            rows = "".join(f"{p},{c},1\n" for p, c in terms)
            assert out == "power,numerator,denominator\n" + rows


def test_derive_symbolic_text(capsys):
    code, out, _ = run_cli(capsys, "derive", "2", "--method=closed")
    assert code == 0
    assert out == "(-2*x) / (1+x^2)^2\n"
    code, out, _ = run_cli(capsys, "derive", "1", "--method=oracle")
    assert code == 0
    assert out == "(1) / (1+x^2)^1\n"


def test_derive_pointwise_text(capsys):
    code, out, _ = run_cli(capsys, "derive", "3", "--method=fdb", "--x=0")
    assert code == 0
    assert out == "-2\n"


def test_derive_symbolic_with_evaluation(capsys):
    code, out, _ = run_cli(capsys, "derive", "4", "--method=prop12", "--x=1/2")
    assert code == 0
    expected = arctan_derivative_closed(4).evaluate(Fraction(1, 2))
    assert out == f"{expected}\n"


def test_derive_json(capsys):
    code, out, _ = run_cli(capsys, "derive", "2", "--method=closed", "--format=json")
    assert code == 0
    document = json.loads(out)
    assert document == {
        "n": 2,
        "method": "closed",
        "numerator": [{"power": 1, "numerator": -2, "denominator": 1}],
        "denominator_exponent": 2,
    }
    assert json.dumps(document, indent=2) == out.rstrip("\n")


def test_derive_csv(capsys):
    code, out, _ = run_cli(capsys, "derive", "3", "--method=closed", "--format=csv")
    assert code == 0
    assert out == (
        "power,numerator,denominator,denominator_exponent\n"
        "0,-2,1,3\n"
        "2,6,1,3\n"
    )


@pytest.mark.parametrize("method", ["fdb", "prop12"])
def test_derive_value_json_and_csv(capsys, method):
    value = arctan_derivative_closed(7).evaluate(Fraction(-47, 53))
    argv = ("derive", "7", f"--method={method}", "--x=-47/53")
    code, out, _ = run_cli(capsys, *argv, "--format=json")
    assert code == 0
    document = json.loads(out)
    assert document == {"n": 7, "method": method, "x": "-47/53", "value": str(value)}
    assert json.dumps(document, indent=2) == out.rstrip("\n")
    code, out, _ = run_cli(capsys, *argv, "--format=csv")
    assert code == 0
    assert out == f"n,method,x,value\n7,{method},-47/53,{value}\n"


@pytest.mark.parametrize(
    "argv, kernel, call",
    [
        (("--method=closed",), "q_polynomial", (39,)),
        (("--method=closed", "--x=1/3"), "q_polynomial", (39,)),
        (("--method=fdb", "--x=1/3"), "_pointwise", (40, [(1, 3)])),
    ],
)
def test_derive_computes_only_the_order_it_prints(capsys, monkeypatch, argv, kernel, call):
    # closed and fdb compute order n alone: derive must not walk their
    # streams from order 1, as it must for prop12 and the oracle.
    calls, run = [], getattr(arctan, kernel)
    monkeypatch.setattr(arctan, kernel, lambda *args: calls.append(args) or run(*args))
    assert run_cli(capsys, "derive", "40", *argv)[0] == 0
    assert calls == [call]


def test_derive_usage_errors(capsys):
    code, out, err = run_cli(capsys, "derive", "3", "--method=fdb")
    assert code == 2
    assert out == ""
    assert "fdb" in err
    usage = err.split("arctanderiv derive: error:")[0]
    assert usage.startswith("usage: arctanderiv derive ")
    assert "--x X" in usage
    code, _, _ = run_cli(capsys, "derive", "0", "--method=closed")
    assert code == 2
    code, _, _ = run_cli(capsys, "derive", "2", "--method=nope")
    assert code == 2
    code, _, _ = run_cli(capsys, "derive", "2", "--x=2/-3")
    assert code == 2
    code, _, _ = run_cli(capsys, "derive", "2", "--x=1/0")
    assert code == 2


def test_check_identity_pass(capsys):
    code, out, _ = run_cli(capsys, "check-identity", "50")
    assert code == 0
    assert "PASS" in out


def test_check_identity_json(capsys):
    code, out, _ = run_cli(capsys, "check-identity", "30", "--format=json")
    assert code == 0
    document = json.loads(out)
    assert document["n_max"] == 30
    assert document["failures"] == []
    assert document["passed"] is True
    assert document["cases"] == sum(n // 2 + 1 for n in range(31))
    assert json.dumps(document, indent=2) == out.rstrip("\n")


def test_check_identity_csv(capsys):
    code, out, _ = run_cli(capsys, "check-identity", "10", "--format=csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "check,n_max,cases,failures,passed"
    assert lines[1] == "check-identity,10,36,0,True"


@pytest.mark.parametrize(
    "command, row",
    [
        ("check-identity", "check-identity,200,10201,0,True"),
        ("check-corollary", "check-corollary,200,302,0,True"),
        ("check-2f1", "check-2f1,60,1922,0,True"),
        ("crosscheck", "crosscheck,50,400,0,True"),
    ],
)
def test_check_default_n_max_csv(capsys, command, row):
    code, out, _ = run_cli(capsys, command, "--format=csv")
    assert code == 0
    assert out == f"check,n_max,cases,failures,passed\n{row}\n"


def test_crosscheck_json_and_csv(capsys):
    argv = ("crosscheck", "8", "--points=0,1/2")
    code, out, _ = run_cli(capsys, *argv, "--format=json")
    assert code == 0
    document = json.loads(out)
    # Two structural cases per n plus one per point.
    assert document == {
        "check": "crosscheck",
        "n_max": 8,
        "points": ["0", "1/2"],
        "cases": 32,
        "mismatches": 0,
        "failures": [],
        "passed": True,
    }
    assert json.dumps(document, indent=2) == out.rstrip("\n")
    code, out, _ = run_cli(capsys, *argv, "--format=csv")
    assert code == 0
    assert out == "check,n_max,cases,failures,passed\ncrosscheck,8,32,0,True\n"


def test_crosscheck_text_renders_points_in_cli_syntax(capsys):
    code, out, _ = run_cli(capsys, "crosscheck", "8", "--points=0,1/2")
    assert code == 0
    assert out == "crosscheck: n_max=8 points=0,1/2 cases=32 PASS\n"


def test_check_commands_pass(capsys):
    assert run_cli(capsys, "check-corollary", "60")[0] == 0
    assert run_cli(capsys, "check-2f1", "25")[0] == 0
    assert run_cli(capsys, "crosscheck", "8", "--points=0,1,-1,1/2")[0] == 0


def test_mutated_check_exits_one(capsys, monkeypatch):
    # Force a mathematical mismatch to prove failures surface as exit code 1.
    # The sweep decides each case by the closed form's integer numerator; a
    # numerator of 0 is wrong for every (n, m).
    monkeypatch.setattr(identities, "_closed_form_numerator", lambda row, m: 0)
    code, out, _ = run_cli(capsys, "check-identity", "6")
    assert code == 1
    assert "FAIL" in out
    code, out, _ = run_cli(capsys, "check-identity", "6", "--format=json")
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_mismatch_report_is_bounded(capsys, monkeypatch):
    # Every case fails: only the first 20 contexts are kept, all are counted.
    # The sweep decides each case by the closed form's integer numerator; a
    # numerator of 0 is wrong for every (n, m).
    monkeypatch.setattr(identities, "_closed_form_numerator", lambda row, m: 0)
    code, out, _ = run_cli(capsys, "check-identity", "60")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "check-identity: n_max=60 cases=961 FAIL (961 mismatches)"
    assert sum(line.startswith("  MISMATCH ") for line in lines) == 20
    assert lines[-1] == "  ... 941 more mismatches not shown"
    assert len(lines) == 22
    code, out, _ = run_cli(capsys, "check-identity", "60", "--format=json")
    assert code == 1
    document = json.loads(out)
    assert document["mismatches"] == 961
    assert len(document["failures"]) == 20
    assert document["passed"] is False
    code, out, _ = run_cli(capsys, "check-identity", "60", "--format=csv")
    assert code == 1
    assert out.splitlines()[1] == "check-identity,60,961,961,False"


def perturb_sweep_numerator(monkeypatch, wrong_n, wrong_m):
    """Make the literal numerator that the sweeps compare at (wrong_n, wrong_m)
    one too large.  The perturbed row is a copy, so the recurrence behind
    ``_sweep_numerators`` carries on from the true numerators; a row width
    is passed on."""
    numerators_of = combinatorics._sweep_numerators

    def wrong_numerators(n_max, *width):
        for n, numerators in numerators_of(n_max, *width):
            if n == wrong_n:
                numerators = list(numerators)
                numerators[wrong_m] += 1
            yield n, numerators

    monkeypatch.setattr(combinatorics, "_sweep_numerators", wrong_numerators)


# One wrong literal numerator at an odd and at an even order.
WRONG_CASES = pytest.mark.parametrize("wrong_n, wrong_m", [(37, 5), (38, 5)])


@WRONG_CASES
def test_identity_mismatch_context_has_both_exact_values(capsys, monkeypatch, wrong_n, wrong_m):
    # The literal numerator is off by one at (wrong_n, wrong_m) only, and a
    # numerator of order n is worth 1/2^n.
    perturb_sweep_numerator(monkeypatch, wrong_n, wrong_m)
    true = Fraction((-1) ** wrong_m * comb(wrong_n + 1, 2 * wrong_m + 1), 2**wrong_n)
    wrong = true + Fraction(1, 2**wrong_n)
    context = {"n": wrong_n, "m": wrong_m, "lhs": str(wrong), "rhs": str(true)}

    report = identities.check_binomial_identity(60)
    assert report.cases == 961
    assert report.mismatches == 1
    assert report.failures == [context]

    code, out, _ = run_cli(capsys, "check-identity", "60")
    assert code == 1
    assert out.splitlines() == [
        "check-identity: n_max=60 cases=961 FAIL (1 mismatches)",
        f"  MISMATCH n={wrong_n} m={wrong_m} lhs={wrong} rhs={true}",
    ]
    code, out, _ = run_cli(capsys, "check-identity", "60", "--format=json")
    assert code == 1
    assert json.loads(out)["failures"] == [context]
    code, out, _ = run_cli(capsys, "check-identity", "60", "--format=csv")
    assert code == 1
    assert out.splitlines()[1] == "check-identity,60,961,1,False"


def failure_rows(failures):
    """The csv rows that a failing check prints after its summary row:
    ``failure,<i>,<key>,<value>`` for each field of kept context i, from 1."""
    return [
        ["failure", str(i), key, str(value)]
        for i, failure in enumerate(failures, 1)
        for key, value in failure.items()
    ]


def csv_rows(out):
    return list(csv.reader(io.StringIO(out)))


def assert_one_mismatch(capsys, argv, cases, context, text):
    """The sweep ``argv`` fails exactly one of its cases, with this context,
    in every format."""
    check, n_max = argv
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert out.splitlines() == [f"{check}: n_max={n_max} cases={cases} FAIL (1 mismatches)", text]
    assert text.split(" ")[3:] == [f"{key}={value}" for key, value in context.items()]
    code, out, _ = run_cli(capsys, *argv, "--format=json")
    assert code == 1
    assert json.loads(out)["failures"] == [context]
    code, out, _ = run_cli(capsys, *argv, "--format=csv")
    assert code == 1
    summary = [check, n_max, str(cases), "1", "False"]
    assert csv_rows(out)[1:] == [summary, *failure_rows([context])]


@pytest.mark.parametrize(
    "check, kernel, cases, expected",
    [
        ("check-identity", "_sweep_numerators", 0, 256),
        ("check-corollary", "_weighted_moments", 16, 47),
        ("check-2f1", "_sweep_numerators", 0, 512),
    ],
)
def test_a_kernel_that_yields_no_row_fails_by_one_coverage_mismatch(
    capsys, monkeypatch, check, kernel, cases, expected
):
    # No n is reached, so the report closes at n = -1.  check-corollary
    # still runs the 16 recurrence steps, which read no moment.  The
    # coverage mismatch is not a case: the report counts the cases it ran.
    home = combinatorics if kernel == "_sweep_numerators" else identities
    monkeypatch.setattr(home, kernel, lambda *args: iter(()))
    context = {"n": -1, "kind": "coverage", "cases": cases, "expected": expected}
    text = f"  MISMATCH n=-1 kind=coverage cases={cases} expected={expected}"
    assert_one_mismatch(capsys, (check, "30"), cases, context, text)


@WRONG_CASES
def test_2f1_value_mismatch_context(capsys, monkeypatch, wrong_n, wrong_m):
    # The literal numerator is off by one at (wrong_n, wrong_m) only, so the
    # value case fails there and its truncation-index case still passes.
    perturb_sweep_numerator(monkeypatch, wrong_n, wrong_m)
    true = Fraction((-1) ** wrong_m * comb(wrong_n + 1, 2 * wrong_m + 1), 2**wrong_n)
    wrong = true + Fraction(1, 2**wrong_n)
    context = {
        "n": wrong_n, "m": wrong_m, "kind": "value", "series": str(true), "literal": str(wrong)
    }
    text = f"  MISMATCH n={wrong_n} m={wrong_m} kind=value series={true} literal={wrong}"
    assert identities.check_hypergeometric_sweep(60).failures == [context]
    assert_one_mismatch(capsys, ("check-2f1", "60"), 1922, context, text)


def test_2f1_truncation_index_mismatch_context(capsys, monkeypatch):
    # The truncation index at (n, m) = (37, 5), where the upper parameters
    # are -27/2 and b = -13, is one too large.  The series then runs one term
    # further, and that term holds the factor b + 13 = 0, so only the index
    # case fails.  Other cases share those parameters, so the case is found
    # by its place: the sweep to 60 asks for one index per case, 961 in
    # (n, m) order.
    truncation_index = hypergeometric._truncation_index
    place = sum(n // 2 + 1 for n in range(37)) + 5
    calls = itertools.count()

    def wrong_index(a, b):
        index = truncation_index(a, b)
        return index + 1 if next(calls) % 961 == place else index

    monkeypatch.setattr(hypergeometric, "_truncation_index", wrong_index)
    context = {"n": 37, "m": 5, "kind": "truncation", "index": 14, "expected": 13}
    text = "  MISMATCH n=37 m=5 kind=truncation index=14 expected=13"
    assert identities.check_hypergeometric_sweep(60).failures == [context]
    assert_one_mismatch(capsys, ("check-2f1", "60"), 1922, context, text)


def test_corollary_weighted_mismatch_context(capsys, monkeypatch):
    # The weighted sum at n = 8, scaled by 4^8 lcm(1..61), is lcm(1..61)/2520
    # too large; every other n keeps its true value.
    moments_of = identities._weighted_moments
    step = lcm(*range(1, 62)) // 2520

    def wrong_moments(n_max):
        for n, moment in moments_of(n_max):
            yield n, moment + step if n == 8 else moment

    monkeypatch.setattr(identities, "_weighted_moments", wrong_moments)
    true = Fraction(1, 9 * 4**8)
    wrong = true + Fraction(1, 2520 * 4**8)
    context = {"n": 8, "lhs": str(wrong), "rhs": str(true)}
    text = f"  MISMATCH n=8 lhs={wrong} rhs={true}"
    assert identities.check_weighted_identity(60).failures == [context]
    assert_one_mismatch(capsys, ("check-corollary", "60"), 92, context, text)


def test_corollary_recurrence_mismatch_context(capsys, monkeypatch):
    # The weight sum s_31 = 4^31 S_31 = S_62[0] is one too large.  It is the
    # last one check-corollary 60 reads, so only the step from j = 30 fails.
    perturb_sweep_numerator(monkeypatch, 62, 0)
    difference, expected = Fraction(3, 4**31), Fraction(2, 4**31)
    context = {"recurrence_j": 30, "difference": str(difference), "expected": str(expected)}
    text = f"  MISMATCH recurrence_j=30 difference={difference} expected={expected}"
    assert identities.check_weighted_identity(60).failures == [context]
    assert_one_mismatch(capsys, ("check-corollary", "60"), 92, context, text)


def test_mismatch_past_the_digit_limit_exits_one(capsys, monkeypatch):
    # A failing case whose value has 4400 digits still renders exactly.
    huge = Fraction(10**4400 + 1, 3)
    pair = huge.numerator, huge.denominator
    monkeypatch.setattr(composition, "_square_chain_rule", lambda order, p, q, ratio, weights: pair)
    text = "1" + "0" * 4399 + "1/3"
    argv = ("crosscheck", "2", "--points=0")
    code, out, _ = run_at_default_digit_limit(capsys, *argv)
    assert code == 1
    assert out.count(f" pointwise={text} ") == 2
    code, out, _ = run_at_default_digit_limit(capsys, *argv, "--format=json")
    assert code == 1
    assert [failure["pointwise"] for failure in json.loads(out)["failures"]] == [text, text]
    code, out, _ = run_at_default_digit_limit(capsys, *argv, "--format=csv")
    assert code == 1
    assert out.splitlines()[1] == "crosscheck,2,6,2,False"
    assert out.count(f",pointwise,{text}\n") == 2


# A wrong jet value at n = 2 and 4 for x = -47/53: the failure lines that
# crosscheck prints, points and values as p/q in lowest terms.
WRONG_JET_FAILURES = [
    {
        "n": 2,
        "route": "fdb",
        "point": "-47/53",
        "pointwise": "19587381/12590162",
        "oracle": "6997219/12590162",
    },
    {
        "n": 4,
        "route": "fdb",
        "point": "-47/53",
        "pointwise": "21938375442661/39628044796561",
        "oracle": "-17689669353900/39628044796561",
    },
]


def test_crosscheck_prints_a_wrong_jet_value_in_every_format(capsys, monkeypatch):
    square_chain_rule = composition._square_chain_rule

    def wrong(order, p, q, ratio, weights):
        top, bottom = square_chain_rule(order, p, q, ratio, weights)
        return (top + bottom if (order + 1) % 2 == 0 and q == 53 else top), bottom

    monkeypatch.setattr(composition, "_square_chain_rule", wrong)
    argv = ("crosscheck", "4", "--points=0,-47/53")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert out == (
        "crosscheck: n_max=4 points=0,-47/53 cases=16 FAIL (2 mismatches)\n"
        + "".join(
            "  MISMATCH " + " ".join(f"{k}={v}" for k, v in failure.items()) + "\n"
            for failure in WRONG_JET_FAILURES
        )
    )
    code, out, _ = run_cli(capsys, *argv, "--format=json")
    assert code == 1
    document = {
        "check": "crosscheck",
        "n_max": 4,
        "points": ["0", "-47/53"],
        "cases": 16,
        "mismatches": 2,
        "failures": WRONG_JET_FAILURES,
        "passed": False,
    }
    assert out == json.dumps(document, indent=2) + "\n"
    code, out, _ = run_cli(capsys, *argv, "--format=csv")
    assert code == 1
    assert out == "check,n_max,cases,failures,passed\ncrosscheck,4,16,2,False\n" + "".join(
        ",".join(row) + "\n" for row in failure_rows(WRONG_JET_FAILURES)
    )


def test_a_wrong_jet_ratio_fails_that_point_only(capsys, monkeypatch):
    # The int reciprocal jet's ratio off by one at x = -47/53 only: exactly
    # that point's pointwise cases fail, one per order, in the text format,
    # and csv prints json's kept contexts.  tests/test_faults.py holds the
    # json failures, and what derive --method=fdb prints, in the same
    # fault's row.
    reciprocal_jets = composition._reciprocal_square_jets

    def wrong(order, points):
        numerators, ratios = reciprocal_jets(order, points)
        ratios = [(c + 1 if x == (-47, 53) else c, d) for x, (c, d) in zip(points, ratios)]
        return numerators, ratios

    monkeypatch.setattr(composition, "_reciprocal_square_jets", wrong)
    argv = ("crosscheck", "12", "--points=0,1/2,-47/53,3")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "crosscheck: n_max=12 points=0,1/2,-47/53,3 cases=72 FAIL (12 mismatches)"
    assert [line.split()[1:3] for line in lines[1:]] == [
        [f"n={n}", "route=fdb"] for n in range(1, 13)
    ]
    assert all(" point=-47/53 " in line for line in lines[1:])
    code, out, _ = run_cli(capsys, *argv, "--format=json")
    failures = json.loads(out)["failures"]
    assert len(failures) == 12
    code, out, _ = run_cli(capsys, *argv, "--format=csv")
    assert code == 1
    assert csv_rows(out) == [
        ["check", "n_max", "cases", "failures", "passed"],
        ["crosscheck", "12", "72", "12", "False"],
        *failure_rows(failures),
    ]


# No printed line, or csv row, of a kept context may reach this many bytes.
CONTEXT_BYTES = 100


def test_a_high_order_symbolic_fault_prints_bounded_contexts(capsys, monkeypatch):
    # q_polynomial's leading coefficient one too large from n = 30 on fails
    # the closed route from order 31 on.  A symbolic context names n and route
    # only, so no line grows with the values' n^2 digits, and doubling n_max
    # (10 -> 20 kept contexts) less than quadruples every format's output.
    q_polynomial = arctan.q_polynomial

    def wrong(n):
        coeffs = q_polynomial(n)
        return (*coeffs[:-1], coeffs[-1] + 1) if n >= 30 else coeffs

    monkeypatch.setattr(arctan, "q_polynomial", wrong)
    outs = {}
    for n_max in (40, 80):
        for fmt in FORMATS:
            argv = ("crosscheck", str(n_max), "--points=1/2", f"--format={fmt}")
            code, out, _ = run_cli(capsys, *argv)
            assert code == 1
            assert max(map(len, out.splitlines())) < CONTEXT_BYTES
            outs[fmt, n_max] = out
        kept = [{"n": n, "route": "closed"} for n in range(31, min(n_max, 50) + 1)]
        assert json.loads(outs["json", n_max])["failures"] == kept
        assert csv_rows(outs["csv", n_max])[2:] == failure_rows(kept)
    for fmt in FORMATS:
        assert len(outs[fmt, 80]) < 4 * len(outs[fmt, 40]), fmt


@pytest.mark.parametrize(
    "argv",
    [
        ("check-identity", "12"),
        ("check-corollary", "12"),
        ("check-2f1", "6"),
        ("crosscheck", "6", "--points=0,1/2"),
    ],
    ids=lambda argv: argv[0],
)
def test_check_reports_its_cost_on_stderr(capsys, argv):
    # The cost is written in the result's format: a text line, one json
    # object on one line, or a csv header and row.
    elapsed, rate = r"\d+\.\d{3}", r"(\d+|inf)"
    code, out, err = run_cli(capsys, *argv, "--format=text")
    assert code == 0
    assert re.fullmatch(rf"{argv[0]}: elapsed_s={elapsed} cases_per_s={rate}\n", err)
    assert "elapsed" not in out
    code, out, err = run_cli(capsys, *argv, "--format=json")
    assert code == 0
    json_rate = r"(\d+|null)"
    line = rf'\{{"check": "{argv[0]}", "elapsed_s": {elapsed}, "cases_per_s": {json_rate}\}}\n'
    assert re.fullmatch(line, err)
    assert json.loads(err)["check"] == argv[0]
    assert "elapsed" not in out
    code, out, err = run_cli(capsys, *argv, "--format=csv")
    assert code == 0
    assert re.fullmatch(rf"check,elapsed_s,cases_per_s\n{argv[0]},{elapsed},{rate}\n", err)
    assert "elapsed" not in out


def run_fresh(code, *argv):
    """The completed ``python -S -c code argv...`` process, run fresh with
    the package of this tree on its path; -S keeps site-packages from
    importing anything before the package does."""
    env = {**os.environ, "PYTHONPATH": str(Path(arctanderiv.__file__).parent.parent)}
    command = [sys.executable, "-S", "-c", code, *argv]
    return subprocess.run(command, env=env, capture_output=True, text=True)


def test_start_up_imports_no_dataclasses_and_no_output_format():
    probe = (
        "import sys, arctanderiv\n"
        "from arctanderiv import cli\n"
        "cli.build_parser()\n"
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'json', 'csv') if m in sys.modules))"
    )
    result = run_fresh(probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []


def loaded_modules(code, *argv):
    """The package modules in sys.modules after ``code`` runs with ``argv``
    in a fresh ``python -S`` process, named without the package prefix."""
    probe = code + "\nprint(*sorted(m for m in sys.modules if m.startswith('arctanderiv.')))"
    result = run_fresh(probe, *argv)
    assert result.returncode == 0, result.stderr
    return {name.removeprefix("arctanderiv.") for name in result.stdout.splitlines()[-1].split()}


def run_as_main(code):
    """A probe that runs the entry point with its argv and asserts that it
    exits with ``code``."""
    return (
        "import runpy, sys\n"
        "sys.argv[0] = 'arctanderiv'\n"
        "try:\n"
        "    runpy.run_module('arctanderiv', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        f"    assert exc.code == {code}, exc.code"
    )


RUN_AS_MAIN = run_as_main(0)
# Every command runs its handler from ``commands``, which prints through
# its own emitter.  The row kernel of prop12 and the sweeps is in ``combinatorics``,
# and crosscheck fills a ``reports.CheckReport``: neither compiles
# ``identities``.  Only check-2f1 runs the series of ``hypergeometric``.
ROUTE = {"cli", "commands", "digits", "polynomial", "arctan"}
SWEEP = {"cli", "commands", "digits", "identities", "combinatorics", "reports"}


MODULES_RUN = {
    "derive 50": ROUTE,
    "derive 50 --x=1/2": ROUTE,
    "qpoly 3": ROUTE,
    "derive 50 --method=fdb --x=1/2": ROUTE | {"composition"},
    "derive 50 --method=prop12": ROUTE | {"combinatorics"},
    "check-identity 5": SWEEP,
    "check-corollary 5": SWEEP,
    "check-2f1 5": SWEEP | {"hypergeometric"},
    "crosscheck 5": ROUTE | {"composition", "combinatorics", "reports"},
    "bench 2": ROUTE | {"composition", "combinatorics"},
}


@pytest.mark.parametrize("command", MODULES_RUN)
def test_each_command_loads_only_the_modules_it_runs(command):
    assert loaded_modules(RUN_AS_MAIN, *command.split()) == MODULES_RUN[command]


def timed_span_imports(line):
    """The modules that enter sys.modules while the entry point runs
    ``line`` in a fresh process, in the spans that it times: from the
    construction of a check's one ``CheckReport`` to the check's return,
    or each of ``bench``'s calls of ``commands._run``."""
    if line.startswith("bench "):
        home, name = "commands", "_run"
        opening = "    spans.append(set(sys.modules))\n"  # each call is a span of its own
        joined = "assert spans\nspan = set().union(*spans)"
    else:
        home, name = COMMANDS[line.split()[0]][2]["check"]
        opening, joined = "", "[span] = spans"  # the span opens as the report is built
    probe = (
        "import importlib, sys\n"
        "from arctanderiv import reports\n"
        f"home = importlib.import_module('arctanderiv.{home}')\n"
        f"run, init, spans = home.{name}, reports.CheckReport.__init__, []\n"
        "def noting(self, *args):\n"
        "    init(self, *args)\n"
        "    spans.append(set(sys.modules))\n"
        "def timed(*args):\n"
        + opening
        + "    result = run(*args)\n"
        "    spans.append(set(sys.modules) - spans.pop())\n"
        "    return result\n"
        f"reports.CheckReport.__init__, home.{name} = noting, timed\n"
        + RUN_AS_MAIN
        + f"\n{joined}\nprint(*sorted(span))"
    )
    result = run_fresh(probe, *line.split())
    assert result.returncode == 0, result.stderr
    return set(result.stdout.splitlines()[-1].split())


CHECKS = [line for line in MODULES_RUN if "check" in line]


@pytest.mark.parametrize("line", [*CHECKS, "bench 2"], ids=lambda line: line.split()[0])
def test_the_cost_line_times_no_import(line):
    # Each check imports what it runs before it builds its report, whose
    # construction starts the clock of the cost line, and bench imports
    # every route's module before it times the first call.
    assert timed_span_imports(line) == set()


def test_building_the_parser_loads_no_route_module():
    code = "import sys, arctanderiv, arctanderiv.cli as cli\ncli.build_parser()"
    assert loaded_modules(code) == {"cli", "digits"}


@pytest.mark.parametrize("line, code", [("derive --help", 0), ("derive 0", 2)])
def test_help_and_usage_errors_load_no_handler(line, code):
    # Help is written to stdout by ``cli._stdout``; a usage error goes to stderr.
    assert loaded_modules(run_as_main(code), *line.split()) == {"cli", "digits"}


def test_every_handler_and_check_pair_resolves():
    # A renamed handler or sweep fails here, not in a user's command.
    for command, (_, _, defaults) in COMMANDS.items():
        assert callable(_resolve(("commands", defaults["handler"]))), command
        if "check" in defaults:
            assert callable(_resolve(defaults["check"])), command


# The sweeps run on integers: a passing one, in any format, and the parser
# load no rational, no decimal and no polynomial.
RATIONAL_STACK = ("fractions", "decimal", "arctanderiv.polynomial")
SWEEPS = [
    f"{name} 30 --format={fmt}"
    for name in ("check-identity", "check-corollary", "check-2f1")
    for fmt in FORMATS
]


def loaded_of(names, code, *argv):
    """Those of the modules ``names`` in sys.modules after ``code`` runs
    with ``argv`` in a fresh ``python -S`` process."""
    probe = code + f"\nprint(*[m for m in {names!r} if m in sys.modules])"
    result = run_fresh(probe, *argv)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("command", [*SWEEPS, "build_parser"])
def test_sweeps_and_the_parser_load_no_rational_stack(command):
    if command == "build_parser":
        code, argv = "import sys, arctanderiv.cli as cli\ncli.build_parser()", ()
    else:
        code, argv = RUN_AS_MAIN, command.split()
    assert loaded_of(RATIONAL_STACK, code, *argv) == set()


# A command loads ``fractions``, ``decimal`` and ``json`` only for what its
# printed result needs: (modules it loads, modules it does not load).  Every
# route evaluates at --x in ints, a passing crosscheck runs on int pairs,
# bench times the pointwise route at an int pair, a result narrower than
# 2048 bits prints by str(), and no command prints a string that json would
# escape.
OUTPUT_STACK = ("fractions", "decimal", "json")
OUTPUT_STACK_LOADED = {
    "derive 50": ((), OUTPUT_STACK),
    "derive 50 --x=1/2": ((), OUTPUT_STACK),
    "derive 50 --method=oracle --format=json": ((), OUTPUT_STACK),
    "qpoly 3 --format=json": ((), OUTPUT_STACK),
    "derive 1500": (("decimal",), ("fractions", "json")),
    "derive 50 --method=fdb --x=1/2": ((), OUTPUT_STACK),
    **{
        f"{command} --format=json": ((), ("json",))
        for command in ("check-identity 30", "check-corollary 30", "check-2f1 30")
    },
    "crosscheck 5": ((), OUTPUT_STACK),
    "crosscheck 5 --format=json": ((), OUTPUT_STACK),
    **{
        f"crosscheck 40 --points=0,1/2,-47/53 --format={fmt}": ((), OUTPUT_STACK)
        for fmt in FORMATS
    },
    **{f"bench 2 --format={fmt}": ((), OUTPUT_STACK) for fmt in FORMATS},
}


@pytest.mark.parametrize("command", OUTPUT_STACK_LOADED)
def test_each_command_loads_only_the_output_stack_it_needs(command):
    loaded, not_loaded = OUTPUT_STACK_LOADED[command]
    modules = loaded_of(OUTPUT_STACK, RUN_AS_MAIN, *command.split())
    assert set(loaded) <= modules and not modules & set(not_loaded), modules


# A failing sweep reports the int pairs it compared, and its report reduces
# and prints only those it keeps: each sweep, with one of its kernels made
# wrong on every case, exits 1 and loads neither ``fractions`` nor ``json``;
# so does a sweep whose kernel yields no row, which fails by one mismatch of
# kind coverage.  Each entry: the kernel's module and name, its wrong value,
# and the mismatches the sweep counts.
FAILING_SWEEPS = {
    "check-identity 30": ("identities", "_closed_form_numerator", "value + 1", 256),
    "check-corollary 30": ("identities", "_weighted_closed_numerator", "value + 1", 31),
    "check-2f1 30": (
        "hypergeometric",
        "_terminating_2f1",
        "(value[0] + value[1], value[1])",
        256,
    ),
    "crosscheck 40 --points=0,1/2,-47/53": (
        "composition",
        "_square_chain_rule",
        "(value[0] + value[1], value[1])",
        120,
    ),
    "check-2f1 20": ("combinatorics", "_sweep_numerators", "iter(())", 1),
}


@pytest.mark.parametrize("command", FAILING_SWEEPS)
def test_a_failing_sweep_loads_no_fractions_and_no_json(command):
    module, kernel, wrong, mismatches = FAILING_SWEEPS[command]
    probe = (
        "import sys\n"
        f"from arctanderiv import cli, {module}\n"
        f"def wrong(*args, true={module}.{kernel}):\n"
        "    value = true(*args)\n"
        f"    return {wrong}\n"
        f"{module}.{kernel} = wrong\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(code, *[m for m in ('fractions', 'json') if m in sys.modules])"
    )
    result = run_fresh(probe, *command.split(), "--format=json")
    assert result.returncode == 0, result.stderr
    *report, loaded = result.stdout.splitlines()
    assert loaded == "1"
    report = json.loads("\n".join(report))
    assert report["mismatches"] == mismatches
    assert len(report["failures"]) == min(mismatches, reports.FAILURES_KEPT)


# A plain command line is read without argparse, which loads only for help
# and usage errors.  One shape of each benchmark operation, in every format
# as the benchmark writes it, runs through the entry point in one fresh
# process; each prints the argparse modules loaded by then.
ARGPARSE = ("argparse", "gettext", "locale")
PLAIN_SHAPES = [
    command + ("" if fmt == "text" else f" --format={fmt}")
    for command in (
        "derive 50",
        *(
            f"derive 50 --method={method}{x}"
            for method, (kind, _) in arctanderiv.ROUTES.items()
            for x in ("", " --x=1/2")
            if x or kind != "pointwise"
        ),
        "check-identity 30",
        "check-corollary 30",
        "check-2f1 30",
        "crosscheck 40 --points=0,1/2,-47/53",
        "qpoly 3",
        "bench 2",
    )
    for fmt in FORMATS
]
ARGPARSE_PROBE = (
    "import io, runpy, sys\n"
    "lines, sys.stdout = sys.argv[1:], io.StringIO()\n"
    "for line in lines:\n"
    "    sys.argv = ['arctanderiv', *line.split()]\n"
    "    try:\n"
    "        runpy.run_module('arctanderiv', run_name='__main__')\n"
    "    except SystemExit as exc:\n"
    "        code = exc.code\n"
    f"    loaded = [m for m in {ARGPARSE!r} if m in sys.modules]\n"
    "    print(line, code, *loaded, sep=';', file=sys.__stdout__)\n"
)


def argparse_loaded(*lines):
    """(exit code, argparse modules loaded by then) after each command line
    of ``lines`` runs, in turn, in one fresh ``python -S`` process."""
    result = run_fresh(ARGPARSE_PROBE, *lines)
    assert result.returncode == 0, result.stderr
    printed = (line.split(";") for line in result.stdout.splitlines())
    return {line: (int(code), loaded) for line, code, *loaded in printed}


def test_plain_command_lines_load_no_argparse():
    assert argparse_loaded(*PLAIN_SHAPES) == {line: (0, []) for line in PLAIN_SHAPES}


@pytest.mark.parametrize(
    "line, code", [("--help", 0), ("derive 0", 2), ("derive 5 --bogus", 2), ("derive 5 --meth=prop12", 0)]
)
def test_help_and_usage_errors_load_argparse(line, code):
    loaded_code, loaded = argparse_loaded(line)[line]
    assert loaded_code == code and "argparse" in loaded


# Characters that json.dumps escapes: a quote, a backslash, control
# characters, DEL, non-ASCII, a lone surrogate and an astral character.
JSON_ESCAPED = st.sampled_from(
    ['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\xe9", "\u2028", "\ud800", "\U0001f600"]
)


@given(st.text() | st.text(st.characters(max_codepoint=127)), JSON_ESCAPED, st.integers(0, 100))
def test_quote_is_json_dumps(text, escaped, where):
    where %= len(text) + 1
    for value in (text, text[:where] + escaped + text[where:], True, False, None):
        assert _quote(value) == json.dumps(value)


# An atexit handler runs before the interpreter's shutdown collections; this
# one prints whether the collector's objects were frozen by then.
FREEZE_PROBE = (
    "import atexit, gc\n"
    "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
)
RUN_MODULE = (
    "import runpy, sys\n"
    "sys.argv[0] = 'arctanderiv'\n"
    "runpy.run_module('arctanderiv', run_name='__main__')\n"
)
BROKEN_SWEEP = (
    "from arctanderiv import identities\n"
    "def broken(n_max):\n"
    "    raise RuntimeError('sweep broke')\n"
    "identities.check_weighted_identity = broken\n"
)
# A closed-form numerator of 0 is wrong for every (n, m).
WRONG_SWEEP = (
    "from arctanderiv import identities\n"
    "identities._closed_form_numerator = lambda row, m: 0\n"
)


@pytest.mark.parametrize(
    "code, patch, command",
    [
        (0, "", "qpoly 3"),
        (0, "", "--help"),
        (1, WRONG_SWEEP, "check-identity 6"),
        (2, "", "derive 0"),
        (3, BROKEN_SWEEP, "check-corollary 5"),
    ],
    ids=["exit0", "help", "exit1", "exit2", "exit3"],
)
def test_entry_point_freezes_the_collector_on_every_exit(code, patch, command):
    result = run_fresh(FREEZE_PROBE + patch + RUN_MODULE, *command.split())
    assert result.returncode == code, result.stderr
    assert result.stdout.endswith("frozen True\n")
    if code == 3:
        assert result.stderr == "error: RuntimeError: sweep broke\n"


def test_main_leaves_the_collector_alone(capsys):
    frozen = gc.get_freeze_count()
    assert run_cli(capsys, "derive", "3")[0] == 0
    assert run_cli(capsys, "derive", "0")[0] == 2
    assert gc.get_freeze_count() == frozen


def test_console_script_runs_the_entry_point():
    # Read as text: Python 3.10 has no tomllib.
    pyproject = (Path(__file__).parent.parent / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    target = re.search(r'^arctanderiv = "(.*)"$', scripts, re.M)[1]
    assert target == "arctanderiv.__main__:run"
    module, _, name = target.partition(":")
    # What an installer's generated script does with the target.
    script = FREEZE_PROBE + (
        f"import sys\nfrom {module} import {name}\nsys.argv[0] = 'arctanderiv'\nsys.exit({name}())\n"
    )
    result = run_fresh(script, "derive", "3")
    assert (result.returncode, result.stdout) == (0, "(6*x^2 - 2) / (1+x^2)^3\nfrozen True\n")
    result = run_fresh(script, "derive", "0")
    assert (result.returncode, result.stdout) == (2, "frozen True\n")
    assert "argument n: must be >= 1" in result.stderr


def test_unexpected_exception_exits_three(capsys, monkeypatch):
    def broken(n_max):
        raise RuntimeError("sweep broke")

    monkeypatch.setattr(identities, "check_weighted_identity", broken)
    for fmt in ("text", "json", "csv"):
        code, out, err = run_cli(capsys, "check-corollary", "5", f"--format={fmt}")
        assert code == 3
        assert out == ""
        assert err == "error: RuntimeError: sweep broke\n"


def run_entry_point(stdout, *argv, unbuffered, **options):
    """The completed ``python -S [-u] -m arctanderiv argv...`` process with
    its stdout on ``stdout`` and ``subprocess.run``'s other ``options``;
    PYTHONUNBUFFERED is removed from its environment, so only -u makes
    stdout unbuffered."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(arctanderiv.__file__).parent.parent)
    command = [sys.executable, "-S", *(["-u"] if unbuffered else []), "-m", "arctanderiv", *argv]
    return subprocess.run(
        command, env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, **options
    )


# derive 200 prints about 42 kB, past stdout's buffer, so its write fails
# while the command runs; the others fail only when they are flushed.  A
# passing check must exit 3 too, and leave no cost line on stderr.
FAILED_WRITES = ["derive 5", "check-identity 30", "--help", "derive --help", "derive 200"]
BUFFERING = pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])


@BUFFERING
@pytest.mark.parametrize("command", FAILED_WRITES)
def test_a_write_to_a_full_device_exits_three(command, unbuffered):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    with open("/dev/full", "w") as full:
        result = run_entry_point(full, *command.split(), unbuffered=unbuffered)
    assert result.returncode == 3, result.stderr
    assert re.fullmatch(r"error: OSError: \[Errno \d+\] [^\n]*\n", result.stderr)


@BUFFERING
@pytest.mark.parametrize("command", FAILED_WRITES)
def test_a_write_to_a_closed_pipe_exits_three(command, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = run_entry_point(write_end, *command.split(), unbuffered=unbuffered)
    finally:
        os.close(write_end)
    assert result.returncode == 3, result.stderr
    assert re.fullmatch(r"error: BrokenPipeError: \[Errno \d+\] [^\n]*\n", result.stderr)


@pytest.mark.parametrize("command", ["derive 5", "--help", "derive --help", "check-identity 30"])
def test_a_closed_stdout_exits_three(command):
    # Started with fd 1 closed, the interpreter sets sys.stdout to None; the
    # write is refused with the OSError of a closed descriptor, and there is
    # nothing to flush.
    result = run_entry_point(
        None, *command.split(), unbuffered=False, preexec_fn=lambda: os.close(1)
    )
    assert result.returncode == 3, result.stderr
    assert result.stderr == "error: OSError: [Errno 9] stdout is closed\n"


def test_a_usage_error_with_a_closed_stdout_exits_two():
    # The usage message goes to stderr, so a closed stdout changes nothing.
    result = run_entry_point(None, "derive", "0", unbuffered=False, preexec_fn=lambda: os.close(1))
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("usage: arctanderiv derive")


@pytest.mark.parametrize(
    "argv, kind",
    [
        (("qpoly", str(sys.maxsize - 2)), "MemoryError"),
        (("qpoly", str(sys.maxsize)), "OverflowError"),
        (("derive", str(sys.maxsize), "--x=1/2"), "MemoryError"),
    ],
    ids=["qpoly-memory", "qpoly-overflow", "derive-overflow"],
)
def test_orders_the_process_cannot_hold_exit_two(capsys, argv, kind):
    # Each order passes the parser, and q_polynomial's [0] * (n + 1) is
    # refused by its length alone, before anything is allocated: past the
    # memory at sys.maxsize entries (derive's q_(n-1)), past an index above.
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: input too large to compute ({kind})\n"


def test_an_order_past_the_address_space_limit_exits_two():
    pytest.importorskip("resource")
    # q_polynomial(10^9) asks for an 8 GB list; the child's address space is
    # capped at 1 GB first, so the allocation fails instead of swapping.
    limit = (
        "import resource\n"
        "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
        "soft = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (soft, hard))\n"
    )
    result = run_fresh(limit + RUN_MODULE, "qpoly", "1000000000")
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "error: input too large to compute (MemoryError)\n"


def run_at_default_digit_limit(capsys, *argv):
    """run_cli under the interpreter's default int <-> str digit limit,
    checking that the command leaves the limit as it found it."""
    with digit_limit(DEFAULT_DIGIT_LIMIT):
        result = run_cli(capsys, *argv)
        assert current_digit_limit() == DEFAULT_DIGIT_LIMIT
    return result


def _symbolic_outputs(n):
    """The text, json and csv outputs of `derive n` from the math.comb
    numerator; its ints are converted to text once, by json.dumps with the
    digit limit lifted."""
    numerator = sorted(arctan_numerator(n).items())
    assert all(abs(c) > 1 for _, c in numerator)
    document = {
        "n": n,
        "method": None,
        "numerator": [{"power": p, "numerator": c, "denominator": 1} for p, c in numerator],
        "denominator_exponent": n,
    }
    with digit_limit(0):
        json_text = json.dumps(document, indent=2)
    terms = json.loads(json_text, parse_int=str)["numerator"]
    text = ""
    for term in reversed(terms):
        power, c = term["power"], term["numerator"]
        variable = "" if power == "0" else "*x" if power == "1" else f"*x^{power}"
        text += f" {'-' if c[0] == '-' else '+'} {c.lstrip('-')}{variable}"
    text = ("-" if text[1] == "-" else "") + text[3:]
    csv_rows = "".join(f"{t['power']},{t['numerator']},1,{n}\n" for t in terms)
    return {
        "text": f"({text}) / (1+x^2)^{n}\n",
        "json": json_text + "\n",
        "csv": "power,numerator,denominator,denominator_exponent\n" + csv_rows,
    }


def test_symbolic_derive_prints_past_the_digit_limit(capsys):
    # Every coefficient of arctan^(2000) has 5736 to 6333 digits, over
    # the default limit of 4300.
    n = 2000
    expected = _symbolic_outputs(n)
    for method in ("closed", "prop12"):
        for fmt in FORMATS:
            code, out, err = run_at_default_digit_limit(
                capsys, "derive", str(n), f"--method={method}", f"--format={fmt}"
            )
            assert (code, err) == (0, "")
            want = expected[fmt].replace('"method": null', f'"method": "{method}"')
            assert out == want, (method, fmt)


def test_derive_3000_prints_what_the_list_renderer_prints(capsys):
    # Past 2048 bits each coefficient is printed from the one before; the
    # expected output comes from rendered_rational, which shares no code
    # with that path and prints each coefficient by str() with the digit
    # limit lifted.
    n = 3000
    numerator = arctan_numerator(n)
    text, terms = rendered_rational([numerator.get(power, 0) for power in range(n)], n, 1)
    items = ",".join(
        f'\n    {{\n      "power": {power},\n      "numerator": {c},\n'
        '      "denominator": 1\n    }'
        for power, c in terms
    )
    expected = {
        "text": text + "\n",
        "json": f'{{\n  "n": {n},\n  "method": "closed",\n  "numerator": [{items}\n  ],\n'
        f'  "denominator_exponent": {n}\n}}\n',
        "csv": "power,numerator,denominator,denominator_exponent\n"
        + "".join(f"{power},{c},1,{n}\n" for power, c in terms),
    }
    for fmt in FORMATS:
        code, out, err = run_at_default_digit_limit(capsys, "derive", str(n), f"--format={fmt}")
        assert (code, err) == (0, "")
        # Named, so that a failure reports where the outputs part instead of
        # diffing megabytes.
        same = out == expected[fmt]
        assert same, (fmt, len(os.path.commonprefix([out, expected[fmt]])))


@pytest.mark.parametrize("n", [1600, 2000])
def test_derive_values_print_past_the_digit_limit(capsys, n):
    x = Fraction(1, 3)
    with digit_limit(0):
        value = str(gaussian_derivative_value(n, x))
    assert len(value) > DEFAULT_DIGIT_LIMIT
    for method in ("closed", "fdb"):
        expected = {
            "text": value + "\n",
            "json": json.dumps(
                {"n": n, "method": method, "x": "1/3", "value": value}, indent=2
            ) + "\n",
            "csv": f"n,method,x,value\n{n},{method},1/3,{value}\n",
        }
        for fmt in FORMATS:
            code, out, err = run_at_default_digit_limit(
                capsys, "derive", str(n), f"--method={method}", "--x=1/3", f"--format={fmt}"
            )
            assert (code, err) == (0, "")
            assert out == expected[fmt], (method, fmt)


def test_rational_arguments_read_past_the_digit_limit(capsys):
    # 1/10^5000: Fraction() of its text refuses the 5001-digit denominator.
    text = "1/1" + "0" * 5000
    x = Fraction(1, 10**5000)
    expected = arctan_derivative_closed(3).evaluate(x)
    assert expected == arctan_derivative_pointwise(3, x)
    for method in ("closed", "fdb"):
        code, out, err = run_at_default_digit_limit(
            capsys, "derive", "3", f"--method={method}", f"--x={text}", "--format=json"
        )
        assert (code, err) == (0, "")
        document = json.loads(out)
        assert document["x"] == text
        with digit_limit(0):
            assert Fraction(document["value"]) == expected
    code, out, err = run_at_default_digit_limit(capsys, "crosscheck", "3", f"--points=1/2,{text}")
    assert code == 0
    assert out == f"crosscheck: n_max=3 points=1/2,{text} cases=12 PASS\n"


@pytest.mark.parametrize("command", ["qpoly", "derive", "check-identity"])
def test_integer_arguments_past_the_digit_limit_exit_two(capsys, command):
    # No order or sweep size that long can be computed; the message says so
    # and names no parser function.
    code, out, err = run_at_default_digit_limit(capsys, command, "1" + "0" * 5000)
    assert (code, out) == (2, "")
    assert re.search(r"error: argument n(_max)?: more than 4300 digits: too large to compute\n\Z", err)
    assert "invalid" not in err
    # Nor can one past sys.maxsize, the longest list a route could index: it
    # is refused as it is parsed, so a sweep never starts.  (An order between
    # about 10^9 and sys.maxsize allocates before it fails, so only a child
    # with a lowered address-space limit runs one.)
    with pytest.raises(SystemExit) as refused:
        build_parser().parse_args([command, str(10**20)])
    out, err = capsys.readouterr()
    assert (refused.value.code, out) == (2, "")
    assert re.search(rf"error: argument n(_max)?: more than {sys.maxsize}: too large to compute\n\Z", err)


def test_bench_reads_its_n_max_as_every_size_is_read():
    # bench's n_max is a size like any order: up to sys.maxsize, and refused
    # past it by the plain reader and the parser alike.
    assert build_parser().parse_args(["bench", str(sys.maxsize)]).n_max == sys.maxsize
    assert _read(["bench", str(sys.maxsize)]).n_max == sys.maxsize
    assert _read(["bench", str(sys.maxsize + 1)]) is None


def test_integer_arguments_read_under_the_lowest_digit_limit(capsys):
    # 640 is the lowest int <-> str digit limit Python allows.  An order, or
    # bench's n_max, of 640 or 641 digits is read exactly (leading zeros
    # included) and refused past sys.maxsize with the same message.
    expected = run_cli(capsys, "qpoly", "3")
    too_large = f"error: argument n: more than {sys.maxsize}: too large to compute\n"
    with digit_limit(640):
        for digits in (640, 641):
            assert run_cli(capsys, "qpoly", "3".rjust(digits, "0")) == expected
            code, out, err = run_cli(capsys, "qpoly", "1" * digits)
            assert (code, out) == (2, "")
            assert err.endswith(too_large)
            code, out, err = run_cli(capsys, "qpoly", "-" + "1" * digits)
            assert (code, out) == (2, "")
            assert err.endswith("error: argument n: must be >= 0\n")
        # A signed rational numerator past the limit: arctan'(x) = q^2 / (p^2 + q^2).
        p = -(10**700)
        code, out, err = run_cli(capsys, "derive", "1", "--x=-1" + "0" * 700 + "/7", "--format=csv")
        with digit_limit(0):
            assert out == f"n,method,x,value\n1,closed,{p}/7,{Fraction(49, p * p + 49)}\n"
        code, out, err = run_cli(capsys, "bench", "2".rjust(641, "0"), "--format=json")
        assert (code, err) == (0, "")
        assert json.loads(out)["n_max"] == 2


# Usage errors and help that ``main`` must print exactly as the parser
# does.
USAGE_CASES = [
    "derive 5 --bogus",
    "check-identity 5 extra",
    "crosscheck 3 --points=",
    # Refused by the plain reader, then read by the parser.
    "derive 5 --x=1/0",
    "crosscheck 3 --points=1,,",
    "derive 3 --method=fdb",
    "derive --help",
    "--help",
    "",
    "nope",
    *(f"{name} --help" for name in COMMANDS),
]


@pytest.mark.parametrize("argv", USAGE_CASES)
def test_main_prints_what_the_parser_prints(capsys, argv):
    argv = argv.split()
    with pytest.raises(SystemExit) as full:
        _parse(argv)
    expected = (full.value.code, *capsys.readouterr())
    assert run_cli(capsys, *argv) == expected


@pytest.mark.parametrize(
    "argv, message",
    [
        ("derive 0", "argument n: must be >= 1"),
        ("derive 5 --x=1/0", "argument --x: zero denominator: '1/0'"),
        ("crosscheck 3 --points=1,,", "argument --points: expected a comma-separated list of rationals"),
        ("qpoly x", "argument n: not an integer: 'x'"),
        (f"check-2f1 {sys.maxsize + 1}", f"argument n_max: more than {sys.maxsize}: too large to compute"),
    ],
)
def test_a_refused_value_prints_its_reader_message(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err.endswith(f": error: {message}\n")


def full_parse(argv):
    """The full parser's namespace of ``argv`` as a dict without ``parser``,
    or None when it exits for help or a usage error."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = vars(_parse(argv))
        except SystemExit:
            return None
    return {name: value for name, value in args.items() if name != "parser"}


# Pieces of argv: option names spelled in full or abbreviated, written with
# = or with a space; values that the readers take and refuse; -h, --help and
# --.  Options repeat, and positionals go missing or come extra, by chance.
OPTIONS = sorted({name for _, arguments, _ in COMMANDS.values() for name in arguments if name[0] == "-"})
ARGUMENTS = st.sampled_from(
    [
        *("5", "30", "0", "+3", "1/2", "-1/2", "355/113", "2/4", "0,1/2,-47/53", *arctanderiv.ROUTES, *FORMATS),
        *("1/0", "", "x", "1,,", "9" * 4301, str(sys.maxsize + 1), "-h", "--help", "--"),
    ]
)


@st.composite
def option(draw):
    name = draw(st.sampled_from([*OPTIONS, "--format"]))
    if draw(st.booleans()):
        name = name[: draw(st.integers(3, len(name)))]
    value = draw(ARGUMENTS)
    return [f"{name}={value}"] if draw(st.booleans()) else [name, value]


@given(
    st.sampled_from([*COMMANDS, "nope", None]),
    st.lists(ARGUMENTS.map(lambda text: [text]) | option(), max_size=4),
)
def test_the_plain_reader_reads_what_the_full_parser_reads(command, pieces):
    argv = [command] * (command is not None) + [text for piece in pieces for text in piece]
    plain, full = _read(argv), full_parse(argv)
    if plain is not None:
        assert vars(plain) == full
    if full is None:
        assert plain is None


@pytest.mark.parametrize("line", PLAIN_SHAPES)
def test_the_plain_reader_reads_every_benchmark_shape(line):
    plain = _read(line.split())
    assert plain is not None and vars(plain) == full_parse(line.split())


def test_a_missing_or_unknown_command_is_named_command(capsys):
    # argparse names the command argument by its dest; a metavar would
    # replace the name in these two messages.
    code, _, err = run_cli(capsys)
    assert code == 2
    assert err.endswith("arctanderiv: error: the following arguments are required: command\n")
    code, _, err = run_cli(capsys, "nope")
    assert code == 2
    assert "arctanderiv: error: argument command: invalid choice: 'nope'" in err


@pytest.mark.parametrize("argv", ["derive 5 --bogus", "check-identity 5 extra"])
def test_unrecognized_arguments_print_the_usage_of_every_command(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert "{" + ",".join(COMMANDS) + "}" in err


def test_malformed_arguments_exit_two(capsys):
    assert run_cli(capsys, "qpoly", "not-a-number")[0] == 2
    assert run_cli(capsys, "qpoly", "-3")[0] == 2
    assert run_cli(capsys, "crosscheck", "0")[0] == 2
    assert run_cli(capsys, "crosscheck", "5", "--points=1,,")[0] == 2
    assert run_cli(capsys, "no-such-command")[0] == 2
    assert run_cli(capsys, "derive", "3", "--x=\u0661/\u0662")[0] == 2
    assert run_cli(capsys, "qpoly", "1_0")[0] == 2
    assert run_cli(capsys, "qpoly", "\u0663")[0] == 2
    # One integer syntax, [+-]?[0-9]+, for integers and for the integer part
    # of rationals: surrounding whitespace is a usage error in both.
    assert run_cli(capsys, "qpoly", " 3")[0] == 2
    assert run_cli(capsys, "derive", "3 ")[0] == 2
    assert run_cli(capsys, "check-identity", " 4")[0] == 2
    assert run_cli(capsys, "derive", "3", "--x= 1/2")[0] == 2
    assert run_cli(capsys, "qpoly", "+3")[0] == 0


def test_bench_empty_table(capsys):
    code, out, _ = run_cli(capsys, "bench", "0", "--format=csv")
    assert code == 0
    assert out == "method,n,micros\n"


BENCH_METHODS = ["closed"] * 4 + ["prop12"] * 4 + ["oracle"] * 4 + ["fdb"] * 4


def test_bench_rows(capsys):
    code, out, _ = run_cli(capsys, "bench", "10", "--format=csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "method,n,micros"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == BENCH_METHODS
    assert [r[1] for r in rows] == ["1", "2", "5", "10"] * 4
    assert all(int(r[2]) >= 0 for r in rows)


def test_bench_default_n_max(capsys):
    code, out, _ = run_cli(capsys, "bench", "--format=csv")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [r[1] for r in rows] == ["1", "2", "5", "10", "20", "50", "100"] * 4


def _csv_writer_text(rows) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def test_csv_rows_are_what_csv_writer_writes(capsys):
    header = ("plain", "a,b", 'say "hi"', "cr\r,here", "line\nbreak", " leading")
    rows = [
        (1, "x,y", '"', "\r\n", " 2", True),
        ("", "-3/4", 'a"b,c', "\n", "  ", Fraction(-1, 3)),
    ]
    _emit("csv", (), None, header, iter(rows))
    assert capsys.readouterr().out == _csv_writer_text([header, *rows])
    # A lone CR is quoted as well; csv.writer in Python 3.11 quotes only the
    # characters of its lineterminator, "\n" here.
    _emit("csv", (), None, ("cr\rhere", "x"), ())
    assert capsys.readouterr().out == '"cr\rhere",x\n'


@pytest.mark.parametrize(
    "argv",
    [
        ("qpoly", "7"),
        ("derive", "9"),
        ("derive", "9", "--method=prop12", "--x=355/113"),
        ("derive", "9", "--method=fdb", "--x=-47/53"),
        ("check-identity", "12"),
        ("check-corollary", "12"),
        ("check-2f1", "12"),
        ("crosscheck", "6", "--points=0,1/2"),
        ("bench", "10"),
    ],
)
def test_csv_output_is_what_csv_writer_writes(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--format=csv")
    assert code == 0
    assert out == _csv_writer_text(csv.reader(io.StringIO(out)))


def test_bench_json(capsys):
    code, out, _ = run_cli(capsys, "bench", "10", "--format=json")
    assert code == 0
    document = json.loads(out)
    assert document["n_max"] == 10
    rows = document["rows"]
    assert [row["method"] for row in rows] == BENCH_METHODS
    assert [row["n"] for row in rows] == [1, 2, 5, 10] * 4
    assert all(type(row["micros"]) is int and row["micros"] >= 0 for row in rows)
    assert all(set(row) == {"method", "n", "micros"} for row in rows)
    code, out, _ = run_cli(capsys, "bench", "0", "--format=json")
    assert json.loads(out) == {"n_max": 0, "rows": []}


def test_bench_text(capsys):
    code, out, _ = run_cli(capsys, "bench", "10")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 16
    for line, method, n in zip(lines, BENCH_METHODS, [1, 2, 5, 10] * 4):
        assert re.fullmatch(rf"{method} n={n} micros=\d+", line)


@given(st.fractions(max_denominator=10**6))
def test_rational_rendering_is_bijective(value):
    text = str(value)
    assert re.fullmatch(r"-?\d+(/[1-9]\d*)?", text)
    assert Fraction(text) == value
