"""Self-tests of the benchmark: its reference outputs, its op generator and
its failure accounting.

    python3 -m pytest perfbench/test_perfbench.py
"""

import contextlib
import io
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from arctanderiv import arctan, cli, identities  # noqa: E402

POINTS = [Fraction(0), Fraction(1), Fraction(-1, 3), Fraction(355, 113), Fraction(-22, 7)]


def cli_stdout(args) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli.main(list(args)) == 0
    return buffer.getvalue()


@pytest.mark.parametrize("n", range(1, 31))
def test_reference_matches_every_route(n):
    numerator = workloads.derivative_numerator(n)
    for route in (
        arctan.arctan_derivative_closed,
        arctan.arctan_derivative_expanded,
        arctan.arctan_derivative_oracle,
    ):
        result = route(n)
        assert result.exponent == n
        assert {p: c for p, c in enumerate(result.numerator.coefficients) if c} == {
            p: c for p, c in numerator.items() if c
        }
    assert workloads.render_polynomial(numerator) == str(arctan.arctan_derivative_closed(n).numerator)
    for x in POINTS:
        value = workloads.derivative_value(n, x)
        assert value == arctan.arctan_derivative_pointwise(n, x)
        assert value == arctan.arctan_derivative_closed(n).evaluate(x)


@pytest.mark.parametrize("fmt", workloads.FORMATS)
@pytest.mark.parametrize("method,x", [("closed", None), ("oracle", None), ("prop12", "-22/7"), ("fdb", "1/2")])
def test_derive_checks_accept_the_cli_output(fmt, method, x):
    op = workloads.derive_op(12, method, fmt, x)
    assert op.check(cli_stdout(op.args)) == ""
    wrong = workloads.derive_op(13, method, fmt, x)
    assert wrong.check(cli_stdout(op.args)) != ""


@pytest.mark.parametrize("fmt", workloads.FORMATS)
def test_report_checks_accept_the_cli_output(fmt):
    ops = [workloads.sweep_op(check, 21, fmt) for check in ("check-identity", "check-corollary", "check-2f1")]
    ops.append(workloads.crosscheck_op(9, ["1/2", "-3", "355/113"], fmt))
    for op in ops:
        assert op.check(cli_stdout(op.args)) == "", op.args


@pytest.mark.parametrize("n_max", [0, 1, 2, 7, 30])
def test_case_counts_match_the_sweeps(n_max):
    assert workloads.sweep_cases("check-identity", n_max) == identities.check_binomial_identity(n_max).cases
    assert workloads.sweep_cases("check-corollary", n_max) == identities.check_weighted_identity(n_max).cases
    assert workloads.sweep_cases("check-2f1", n_max) == identities.check_hypergeometric_sweep(n_max).cases


@pytest.fixture
def no_digit_limit():
    """References at the largest sizes render integers past the default
    int->str limit, which the benchmark lifts in its own process."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(previous)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_seeded(workload, no_digit_limit):
    def args(seed, index=0):
        return [op.args for op in workloads.make_pass(workload, seed, index)]

    assert args(1) == args(1)
    assert args(1) != args(2)
    assert args(1, 0) != args(1, 1)


def test_failed_ops_are_counted():
    op = workloads.sweep_op("check-identity", 3, "text")
    right = cli_stdout(op.args)
    tally = run.Tally()
    assert tally.add(op, run.Child(0, 0.1, 1, right, ""))
    assert not tally.add(op, run.Child(0, 0.1, 1, right.replace("cases=", "cases=1"), ""))
    assert not tally.add(op, run.Child(2, 0.1, 1, "", "usage: ..."))
    crash = "Traceback (most recent call last):\n  ...\nValueError: Exceeds the limit\n"
    assert not tally.add(op, run.Child(1, 0.1, 1, "", crash))
    assert (tally.attempted, tally.failed, tally.mismatches) == (4, 3, 1)
    assert [list(f)[1] for f in tally.failures] == ["mismatch", "error", "error"]
    assert tally.failures[2]["error"] == "ValueError"
    assert run.percentile_ms(tally, 0.25) == pytest.approx(100)
    assert run.percentile_ms(tally, 0.5) is None


def test_launcher_reports_a_crashing_child(tmp_path):
    launcher = run.Launcher(run.child_env(), tmp_path)
    try:
        child = launcher.run([sys.executable, "-c", "print('partial'); raise ValueError('boom')"])
    finally:
        launcher.close()
    assert child.status == 1
    assert child.stdout == "partial\n"
    assert child.maxrss_kb > 0 and child.seconds > 0
    assert run.classify(child, lambda stdout: "") == ("error", "ValueError")
