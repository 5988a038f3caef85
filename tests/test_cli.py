import csv
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import arctanderiv
from arctanderiv import arctan, arctan_derivative_closed, identities
from arctanderiv.cli import FORMATS, _emit, main
from oracles import (
    DEFAULT_DIGIT_LIMIT,
    arctan_numerator,
    current_digit_limit,
    digit_limit,
    gaussian_derivative_value,
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
    ``_sweep_numerators`` carries on from the true numerators."""
    numerators_of = identities._sweep_numerators

    def wrong_numerators(n_max):
        for n, numerators in numerators_of(n_max):
            if n == wrong_n:
                numerators = list(numerators)
                numerators[wrong_m] += 1
            yield n, numerators

    monkeypatch.setattr(identities, "_sweep_numerators", wrong_numerators)


def test_identity_mismatch_context_has_both_exact_values(capsys, monkeypatch):
    # The literal numerator is off by one at (n, m) = (37, 5) only.
    wrong_n, wrong_m = 37, 5
    perturb_sweep_numerator(monkeypatch, wrong_n, wrong_m)
    true = Fraction((-1) ** wrong_m * comb(wrong_n + 1, 2 * wrong_m + 1), 2**wrong_n)
    wrong = true + Fraction(1, 4 ** (wrong_n // 2))
    context = {"n": wrong_n, "m": wrong_m, "lhs": str(wrong), "rhs": str(true)}

    report = identities.check_binomial_identity(60)
    assert report.cases == 961
    assert report.mismatches == 1
    assert report.failures == [context]

    code, out, _ = run_cli(capsys, "check-identity", "60")
    assert code == 1
    assert out.splitlines() == [
        "check-identity: n_max=60 cases=961 FAIL (1 mismatches)",
        f"  MISMATCH n=37 m=5 lhs={wrong} rhs={true}",
    ]
    code, out, _ = run_cli(capsys, "check-identity", "60", "--format=json")
    assert code == 1
    assert json.loads(out)["failures"] == [context]
    code, out, _ = run_cli(capsys, "check-identity", "60", "--format=csv")
    assert code == 1
    assert out.splitlines()[1] == "check-identity,60,961,1,False"


def assert_one_mismatch(capsys, argv, cases, context, text):
    """The sweep ``argv`` fails exactly one of its cases, with this context,
    in every format."""
    check, n_max = argv
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert out.splitlines() == [f"{check}: n_max={n_max} cases={cases} FAIL (1 mismatches)", text]
    code, out, _ = run_cli(capsys, *argv, "--format=json")
    assert code == 1
    assert json.loads(out)["failures"] == [context]
    code, out, _ = run_cli(capsys, *argv, "--format=csv")
    assert code == 1
    assert out.splitlines()[1] == f"{check},{n_max},{cases},1,False"


def test_2f1_value_mismatch_context(capsys, monkeypatch):
    # The literal numerator is off by one at (n, m) = (37, 5) only, so the
    # value case fails there and its truncation-index case still passes.
    perturb_sweep_numerator(monkeypatch, 37, 5)
    true = Fraction(-(comb(38, 11)), 2**37)
    wrong = true + Fraction(1, 4**18)
    context = {"n": 37, "m": 5, "kind": "value", "series": str(true), "literal": str(wrong)}
    text = f"  MISMATCH n=37 m=5 kind=value series={true} literal={wrong}"
    assert identities.check_hypergeometric_sweep(60).failures == [context]
    assert_one_mismatch(capsys, ("check-2f1", "60"), 1922, context, text)


def test_corollary_weighted_mismatch_context(capsys, monkeypatch):
    # The weighted sum at n = 8, scaled by 4^8 lcm(1..61), is lcm(1..61)/2520
    # too large; every other n keeps its true value.
    moments_of = identities._weighted_moments

    def wrong_moments(n_max):
        for n, lcm, moment in moments_of(n_max):
            yield n, lcm, moment + lcm // 2520 if n == 8 else moment

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
    monkeypatch.setattr(arctan, "_square_chain_rule", lambda order, p, q, ratio, weights: pair)
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
    for fmt in FORMATS:
        code, out, err = run_cli(capsys, *argv, f"--format={fmt}")
        assert code == 0
        assert re.fullmatch(rf"{argv[0]}: elapsed_s=\d+\.\d{{3}} cases_per_s=(\d+|inf)\n", err)
        assert "elapsed" not in out


def test_start_up_imports_no_dataclasses_and_no_output_format():
    # -S keeps site-packages from importing anything before the package does.
    probe = (
        "import sys, arctanderiv\n"
        "from arctanderiv import cli\n"
        "cli.build_parser()\n"
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'json', 'csv') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(arctanderiv.__file__).parent.parent)}
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.split() == []


def test_unexpected_exception_exits_three(capsys, monkeypatch):
    def broken(n_max):
        raise RuntimeError("sweep broke")

    monkeypatch.setattr(identities, "check_weighted_identity", broken)
    for fmt in ("text", "json", "csv"):
        code, out, err = run_cli(capsys, "check-corollary", "5", f"--format={fmt}")
        assert code == 3
        assert out == ""
        assert err == "error: RuntimeError: sweep broke\n"


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
