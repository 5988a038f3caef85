"""End-to-end acceptance suite.

One test per contract criterion; each prints a single pass/fail line (visible
with ``pytest -s`` or in captured output) and then asserts.  Every comparison
is exact equality; the two long sweeps also pin their wall-clock budgets.
"""

import json
import math
import random
import time
from fractions import Fraction

from arctanderiv import (
    ArctanRational,
    DerivativeJet,
    Polynomial,
    arctan_derivative_closed,
    arctan_derivative_expanded,
    arctan_derivative_oracle,
    arctan_derivative_pointwise,
    check_binomial_identity,
    check_hypergeometric_sweep,
    check_weighted_identity,
    crosscheck,
    faa_di_bruno,
    identities,
    multiplicity_vectors,
    q_polynomial,
    square_chain_coefficients,
)
from arctanderiv.cli import main as cli_main
from oracles import compose, euler_partition_count, nth_derivative_value, set_partition_count


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")


def test_criterion_1_four_route_crosscheck():
    points = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(3, 7))
    start = time.perf_counter()
    report = crosscheck(50, points)
    elapsed = time.perf_counter() - start
    ok = report.passed and elapsed < 10.0
    _verdict("1 four-route crosscheck n<=50", ok, f"{report.cases} cases, {elapsed:.2f}s")
    assert report.passed, report.failures[:3]
    assert elapsed < 10.0


def test_criterion_2_first_derivatives_golden():
    golden = {
        1: ArctanRational(Polynomial((1,)), 1),
        2: ArctanRational(Polynomial((0, -2)), 2),
        3: ArctanRational(Polynomial((-2, 0, 6)), 3),
        4: ArctanRational(Polynomial((0, 24, 0, -24)), 4),
    }
    ok = True
    for n, expected in golden.items():
        for route in (arctan_derivative_closed, arctan_derivative_expanded, arctan_derivative_oracle):
            ok = ok and route(n) == expected
    _verdict("2 first-derivatives golden n=1..4", ok)
    assert ok


def test_criterion_3_binomial_identity_sweep():
    start = time.perf_counter()
    report = check_binomial_identity(200)
    elapsed = time.perf_counter() - start
    ok = report.passed and report.cases == 10201 and elapsed < 5.0
    _verdict("3 binomial identity n<=200", ok, f"{report.cases} cases, {elapsed:.2f}s")
    assert report.passed, report.failures[:3]
    assert report.cases == 10201
    assert elapsed < 5.0


def test_criterion_4_weighted_identity_and_recurrence():
    report = check_weighted_identity(200)
    # 201 parity-split comparisons plus the recurrence for j = 0..100.
    ok = report.passed and report.cases == 302
    _verdict("4 weighted identity n<=200 + recurrence", ok, f"{report.cases} cases")
    assert ok, report.failures[:3]


def test_criterion_5_hypergeometric_representation():
    report = check_hypergeometric_sweep(60)
    expected_cases = 2 * sum(n // 2 + 1 for n in range(61))
    ok = report.passed and report.cases == expected_cases
    _verdict("5 terminating-series form n<=60", ok, f"{report.cases} cases")
    assert ok, report.failures[:3]


def test_criterion_6_coefficient_recurrence():
    ok = True
    for n in range(1, 101):
        coeffs = square_chain_coefficients(n)
        for k, c in enumerate(coeffs):
            ok = ok and c == math.factorial(n) // (math.factorial(k) * math.factorial(n - 2 * k))
    _verdict("6 coefficient recurrence n<=100", ok)
    assert ok


def _random_polynomial(rng: random.Random) -> tuple[Polynomial, int]:
    """A random polynomial with rational coefficients, as an integer
    polynomial P and a common denominator d: the drawn polynomial is P/d."""
    degree = rng.randint(1, 5)
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(degree)]
    coeffs.append(Fraction(rng.choice((-3, -2, -1, 1, 2, 3))))
    d = math.lcm(*(c.denominator for c in coeffs))
    return Polynomial(int(c * d) for c in coeffs), d


def _jet(poly: Polynomial, d: int, point: Fraction, order: int) -> DerivativeJet:
    """The jet of poly/d at point, built from its values."""
    values = []
    for _ in range(order + 1):
        values.append(poly.evaluate(point) / d)
        poly = poly.derivative()
    return DerivativeJet.of_values(point, values)


def test_criterion_7_generic_composition():
    rng = random.Random(20240817)
    ok = True
    for _ in range(200):
        f, a = _random_polynomial(rng)
        g, b = _random_polynomial(rng)
        x0 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        # (f/a)(g/b) = H / (a b^deg f), H = sum_i f_i b^(deg f - i) g^i.
        top = f.degree
        scaled = Polynomial(c * b ** (top - i) for i, c in enumerate(f.coefficients))
        composed = Polynomial(compose(scaled.coefficients, g.coefficients))
        denominator = a * b**top
        f_jet = _jet(f, a, g.evaluate(x0) / b, 10)
        g_jet = _jet(g, b, x0, 10)
        for n in range(1, 11):
            expected = nth_derivative_value(composed, n, x0) / denominator
            ok = ok and faa_di_bruno(n, f_jet, g_jet) == expected
    counts_ok = all(
        len(multiplicity_vectors(n)) == euler_partition_count(n) for n in range(1, 31)
    )
    bell_ok = True
    for n in range(1, 9):
        f_jet = DerivativeJet.of_values(0, (Fraction(1),) * (n + 1))
        g_jet = DerivativeJet.of_values(0, (Fraction(0),) + (Fraction(1),) * n)
        bell_ok = bell_ok and faa_di_bruno(n, f_jet, g_jet) == set_partition_count(n)
    _verdict(
        "7 generic composition",
        ok and counts_ok and bell_ok,
        "200 random pairs, partition counts n<=30, set-partition counts n<=8",
    )
    assert ok
    assert counts_ok
    assert bell_ok


def test_criterion_8_structural_properties():
    q_ok = True
    for n in range(101):
        q = q_polynomial(n)
        q_ok = q_ok and q.degree == n and q.coefficients[-1] == (-1) ** n * (n + 1)
        q_ok = q_ok and all(
            c == 0 for power, c in enumerate(q.coefficients) if power % 2 != n % 2
        )
    symmetry_ok = True
    oracle = ArctanRational(Polynomial((1,)), 1)
    for n in range(1, 51):
        if n > 1:
            oracle = oracle.derivative()
        sign = (-1) ** (n + 1)
        for x in (Fraction(1, 2), Fraction(3, 7)):
            symmetry_ok = symmetry_ok and oracle.evaluate(-x) == sign * oracle.evaluate(x)
            symmetry_ok = symmetry_ok and arctan_derivative_pointwise(n, -x) == sign * arctan_derivative_pointwise(n, x)
    maclaurin_ok = True
    for j in range(21):
        maclaurin_ok = maclaurin_ok and arctan_derivative_pointwise(2 * j + 1, 0) == (-1) ** j * math.factorial(2 * j)
        if j >= 1:
            maclaurin_ok = maclaurin_ok and arctan_derivative_pointwise(2 * j, 0) == 0
    ok = q_ok and symmetry_ok and maclaurin_ok
    _verdict("8 structural properties", ok, "q family n<=100, symmetry n<=50, series values j<=20")
    assert q_ok
    assert symmetry_ok
    assert maclaurin_ok


def test_criterion_9_cli_exit_codes(capsys, monkeypatch):
    def run(*argv):
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr()

    pass_code, captured = run("check-identity", "40", "--format=json")
    pass_ok = pass_code == 0 and json.loads(captured.out)["passed"] is True

    usage_code, _ = run("derive", "2", "--x=banana")
    usage_ok = usage_code == 2

    with monkeypatch.context() as patch:
        patch.setattr(identities, "_closed_form_numerator", lambda row, m: 0)
        fail_code, captured = run("check-identity", "6")
        fail_ok = fail_code == 1 and "FAIL" in captured.out

    ok = pass_ok and usage_ok and fail_ok
    _verdict("9 cli exit codes 0/1/2", ok)
    assert pass_ok
    assert fail_ok
    assert usage_ok
