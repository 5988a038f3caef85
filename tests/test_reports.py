import csv
import io
import json
from fractions import Fraction

import pytest

from arctanderiv import CheckReport, identities
from arctanderiv.cli import main
from arctanderiv.reports import FAILURES_KEPT
from oracles import DEFAULT_DIGIT_LIMIT, digit_limit


def test_failure_contexts_are_bounded():
    report = CheckReport("sweep", {"n_max": 3}, 50)
    for i in range(50):
        report.count_case(i % 2 == 0, i=i)
    assert report.cases == 50
    assert report.mismatches == 25
    assert [f["i"] for f in report.failures] == list(range(1, 2 * FAILURES_KEPT, 2))
    assert not report.passed
    assert next(report.text()) == "sweep: n_max=3 cases=50 FAIL (25 mismatches)"
    assert report.to_dict()["mismatches"] == 25


def test_passing_report_has_no_mismatches():
    report = CheckReport("sweep", {}, 1)
    report.count_case(True)
    assert report.passed
    assert report.to_dict() == {
        "check": "sweep",
        "cases": 1,
        "mismatches": 0,
        "failures": [],
        "passed": True,
    }


def test_failure_context_renders_past_the_digit_limit():
    # 4401 digits over 3: str() would raise under the default digit limit.
    report = CheckReport("crosscheck", {"n_max": 1}, 1)
    with digit_limit(DEFAULT_DIGIT_LIMIT):
        report.count_case(False, n=1, pointwise=(10**4400 + 1, 3))
    assert report.failures == [{"n": 1, "pointwise": "1" + "0" * 4399 + "1/3"}]


def test_a_kept_int_pair_renders_in_lowest_terms_and_any_other_value_by_str():
    # A pair over 0 has no lowest terms: it prints as it is.
    report = CheckReport("sweep", {}, 3)
    report.count_case(False, a=(6, -4), b=(0, -5), c=(12, 4), d=Fraction(-3, 2), e=(1, 2, 3))
    report.count_case(False, a=(True, 2), b=(1.5, 2), c=[1, 2])
    report.count_case(False, a=(0, 0), b=(5, 0))
    assert report.failures == [
        {"a": "-3/2", "b": "0", "c": "3", "d": "-3/2", "e": "(1, 2, 3)"},
        {"a": "(True, 2)", "b": "(1.5, 2)", "c": "[1, 2]"},
        {"a": "0/0", "b": "5/0"},
    ]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, _ = capsys.readouterr()
    return code, out


def test_a_report_renders_what_the_cli_prints(capsys, monkeypatch):
    # FAILURES_KEPT + 5 mismatches, the first a pair of 4401 digits over 3:
    # each format prints the report's own rendering, the text one with the
    # count of the 5 contexts not kept.
    report = CheckReport("check-identity", {"n_max": 4}, FAILURES_KEPT + 6)
    report.count_case(True)
    with digit_limit(DEFAULT_DIGIT_LIMIT):
        report.count_case(False, n=0, m=0, lhs=(10**4400 + 1, 3), rhs=(1, 3))
    for i in range(1, FAILURES_KEPT + 5):
        report.count_case(False, n=i, m=0, lhs=(i, 1), rhs=(0, 1))
    monkeypatch.setattr(identities, "check_binomial_identity", lambda n_max: report)
    with digit_limit(DEFAULT_DIGIT_LIMIT):
        text, document, table = (
            run_cli(capsys, "check-identity", "4", f"--format={fmt}")
            for fmt in ("text", "json", "csv")
        )
    assert text == (1, "".join(report.text()) + "\n")
    assert text[1].endswith("\n  ... 5 more mismatches not shown\n")
    assert document[0] == 1 and json.loads(document[1]) == report.to_dict()
    rows = [[str(value) for value in row] for row in [CheckReport.HEADER, *report.rows()]]
    assert table[0] == 1 and list(csv.reader(io.StringIO(table[1]))) == rows
    assert len(rows) == 2 + 4 * FAILURES_KEPT


@pytest.mark.parametrize("method, formats", [("text", ("json", "csv")), ("rows", ("text", "json"))])
def test_only_the_requested_format_is_rendered(capsys, monkeypatch, method, formats):
    # The stub raises once it is iterated: a format that renders another
    # format's payload fails its command.
    def refused(self):
        raise AssertionError(f"CheckReport.{method} rendered")
        yield

    monkeypatch.setattr(CheckReport, method, refused)
    document = {
        "check": "check-identity",
        "n_max": 20,
        "cases": 121,
        "mismatches": 0,
        "failures": [],
        "passed": True,
    }
    printed = {
        "text": "check-identity: n_max=20 cases=121 PASS\n",
        "json": json.dumps(document, indent=2) + "\n",
        "csv": "check,n_max,cases,failures,passed\ncheck-identity,20,121,0,True\n",
    }
    for fmt in formats:
        assert run_cli(capsys, "check-identity", "20", f"--format={fmt}") == (0, printed[fmt])


def passed_cases(count):
    report = CheckReport("sweep", {"n_max": 3}, 3)
    for _ in range(count):
        report.count_case(True)
    return report


def test_close_passes_a_sweep_that_reached_n_max_with_its_count():
    report = passed_cases(3).close(3)
    assert (report.passed, report.cases) == (True, 3)


@pytest.mark.parametrize("n, cases", [(3, 2), (2, 3)])
def test_close_fails_a_short_sweep_by_one_coverage_mismatch(n, cases):
    # A last n short of n_max, or a case count other than the expected one,
    # fails the sweep even when every case it ran passed.  The coverage
    # mismatch is not a case: the report still counts the cases it ran.
    report = passed_cases(cases).close(n)
    failure = {"n": n, "kind": "coverage", "cases": cases, "expected": 3}
    assert (report.failures, report.mismatches, report.cases) == ([failure], 1, cases)
