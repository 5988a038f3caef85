from fractions import Fraction

from arctanderiv import CheckReport
from arctanderiv.reports import FAILURES_KEPT
from oracles import DEFAULT_DIGIT_LIMIT, digit_limit


def test_failure_contexts_are_bounded():
    report = CheckReport("sweep", {"n_max": 3})
    for i in range(50):
        report.count_case(i % 2 == 0, i=i)
    assert report.cases == 50
    assert report.mismatches == 25
    assert [f["i"] for f in report.failures] == list(range(1, 2 * FAILURES_KEPT, 2))
    assert not report.passed
    assert report.summary() == "sweep: n_max=3 cases=50 FAIL (25 mismatches)"
    assert report.to_dict()["mismatches"] == 25


def test_passing_report_has_no_mismatches():
    report = CheckReport("sweep", {})
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
    report = CheckReport("crosscheck", {"n_max": 1})
    with digit_limit(DEFAULT_DIGIT_LIMIT):
        report.count_case(False, n=1, pointwise=Fraction(10**4400 + 1, 3))
    assert report.failures == [{"n": 1, "pointwise": "1" + "0" * 4399 + "1/3"}]
