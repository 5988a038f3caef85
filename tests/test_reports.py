from fractions import Fraction

import pytest

from arctanderiv import CheckReport
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
    assert report.summary() == "sweep: n_max=3 cases=50 FAIL (25 mismatches)"
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
