"""Seeded CLI operations for each workload, with the expected result of each.

The expected results come from code that shares nothing with the package:
derivatives use the Gaussian-integer form

    arctan^(n)(x) = (-1)^(n-1) (n-1)! Im((x+i)^n) / (1+x^2)^n,

with the numerator polynomial built from ``math.comb`` and values at x = p/q
from binary powering of p + iq; sweep case counts come from closed counts of
the index ranges each sweep visits.  Rendering big integers needs the
int->str digit limit lifted; only the benchmark's own process does that.

A workload is a stream of passes.  In each pass, every kind of operation
runs at a fixed number of log-spaced sizes, each moved a little by the seed,
so every pass costs about the same whatever the seed; the seed also picks
the x values and sample points, and the order of the operations.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import random
import re
from fractions import Fraction
from typing import Callable

FORMATS = ("text", "json", "csv")

# x values for `derive --x`: two of small height and two of larger height.
SMALL_X = ("1/2", "-1/3")
LARGE_X = ("355/113", "-22/7")


@dataclasses.dataclass(frozen=True)
class Op:
    """One CLI invocation: its arguments after ``python -m arctanderiv``, a
    check of its stdout that returns an error description (empty when the
    output is right), and the number of check cases a correct run reports."""

    args: tuple[str, ...]
    check: Callable[[str], str]
    cases: int


# ---------------------------------------------------------------- reference


def gaussian_power(re_part: int, im_part: int, n: int) -> tuple[int, int]:
    """(re + i*im)^n by binary powering."""
    acc_re, acc_im = 1, 0
    while n:
        if n & 1:
            acc_re, acc_im = (
                acc_re * re_part - acc_im * im_part,
                acc_re * im_part + acc_im * re_part,
            )
        re_part, im_part = re_part * re_part - im_part * im_part, 2 * re_part * im_part
        n >>= 1
    return acc_re, acc_im


def derivative_value(n: int, x: Fraction) -> Fraction:
    """arctan^(n)(p/q) = (-1)^(n-1) (n-1)! Im((p+iq)^n) q^n / (p^2+q^2)^n."""
    p, q = x.numerator, x.denominator
    _, im_part = gaussian_power(p, q, n)
    sign = -1 if n % 2 == 0 else 1
    return Fraction(sign * math.factorial(n - 1) * im_part * q**n, (p * p + q * q) ** n)


def derivative_numerator(n: int) -> dict[int, int]:
    """Power -> coefficient of the numerator over (1+x^2)^n: the expansion
    Im((x+i)^n) = sum_k (-1)^k C(n, 2k+1) x^(n-1-2k), times (-1)^(n-1) (n-1)!.
    It is coprime to 1+x^2 (its value at x = i is nonzero), so the exponent
    stays n."""
    scale = (-1 if n % 2 == 0 else 1) * math.factorial(n - 1)
    return {
        n - 1 - 2 * k: scale * (-1 if k % 2 else 1) * math.comb(n, 2 * k + 1)
        for k in range((n - 1) // 2 + 1)
    }


def render_polynomial(coefficients: dict[int, int]) -> str:
    """Text form of the CLI: descending powers, `c*x^k` terms joined by + / -."""
    parts: list[str] = []
    for power in sorted(coefficients, reverse=True):
        c = coefficients[power]
        if c == 0:
            continue
        magnitude = abs(c)
        if power == 0:
            body = str(magnitude)
        else:
            variable = "x" if power == 1 else f"x^{power}"
            body = variable if magnitude == 1 else f"{magnitude}*{variable}"
        if parts:
            parts.append((" + " if c > 0 else " - ") + body)
        else:
            parts.append(body if c > 0 else "-" + body)
    return "".join(parts) or "0"


def identity_cases(n_max: int) -> int:
    """check-identity visits every n <= n_max and 0 <= m <= n//2."""
    return sum(n // 2 + 1 for n in range(n_max + 1))


def sweep_cases(check: str, n_max: int) -> int:
    if check == "check-identity":
        return identity_cases(n_max)
    if check == "check-corollary":
        # One case per n <= n_max, plus the recurrence for j <= n_max//2.
        return (n_max + 1) + (n_max // 2 + 1)
    if check == "check-2f1":
        # Truncation index and value for every (n, m) pair.
        return 2 * identity_cases(n_max)
    raise ValueError(f"unknown sweep {check}")


# ------------------------------------------------------------------ checks


def _json(stdout: str) -> dict:
    document = json.loads(stdout)
    if not isinstance(document, dict):
        raise ValueError("not a JSON object")
    return document


def _csv(stdout: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(stdout)))


def _fields(document: dict, want: dict) -> dict:
    """The fields of `document` named in `want`; other fields may be added
    to the CLI's output without failing the check."""
    return {k: document.get(k) for k in want}


def _differs(name: str, got: object, want: object) -> str:
    return "" if got == want else f"{name} differs"


def check_symbolic(n: int, method: str, fmt: str) -> Callable[[str], str]:
    coefficients = derivative_numerator(n)
    if fmt == "text":
        want = f"({render_polynomial(coefficients)}) / (1+x^2)^{n}\n"
        return lambda stdout: _differs("text", stdout, want)
    ascending = sorted((p, c) for p, c in coefficients.items() if c)
    if fmt == "json":
        terms = [{"power": p, "numerator": c, "denominator": 1} for p, c in ascending]
        want = {"n": n, "method": method, "numerator": terms, "denominator_exponent": n}
        return lambda stdout: _differs("document", _fields(_json(stdout), want), want)
    rows = [
        {"power": str(p), "numerator": str(c), "denominator": "1", "denominator_exponent": str(n)}
        for p, c in ascending
    ]
    return lambda stdout: _differs("rows", _csv(stdout), rows)


def check_value(n: int, method: str, x: str, fmt: str) -> Callable[[str], str]:
    value = str(derivative_value(n, Fraction(x)))
    if fmt == "text":
        return lambda stdout: _differs("value", stdout, value + "\n")
    want = {"n": n, "method": method, "x": x, "value": value}
    if fmt == "json":
        return lambda stdout: _differs("document", _fields(_json(stdout), want), want)
    row = {k: str(v) for k, v in want.items()}
    return lambda stdout: _differs("rows", _csv(stdout), [row])


def check_report(check: str, n_max: int, cases: int, fmt: str, points=None) -> Callable[[str], str]:
    """A passing report of `check` over n_max with exactly `cases` cases."""
    if fmt == "text":
        summary = re.compile(
            rf"{re.escape(check)}: n_max={n_max}\b.* cases={cases} PASS\n\Z"
        )
        return lambda stdout: "" if summary.match(stdout) else "summary differs"
    if fmt == "json":
        want = {"check": check, "n_max": n_max, "cases": cases, "failures": [], "passed": True}
        if points is not None:
            want["points"] = points
        return lambda stdout: _differs("report", _fields(_json(stdout), want), want)
    want_row = {
        "check": check,
        "n_max": str(n_max),
        "cases": str(cases),
        "failures": "0",
        "passed": "True",
    }

    def check_csv(stdout: str) -> str:
        rows = _csv(stdout)
        if len(rows) != 1:
            return "expected one csv row"
        return _differs("row", _fields(rows[0], want_row), want_row)

    return check_csv


# --------------------------------------------------------------- generators


def grid_sizes(rng: random.Random, lo: int, hi: int, count: int, jitter: float) -> list[int]:
    """`count` sizes log-spaced from lo to hi inclusive, each moved by a
    seeded share of up to +-jitter of itself, within [lo, hi].

    The jitter is small because a pass holds few costly operations and many
    cost about n^3: the cost of a pass and the order of its operations by
    cost then hardly depend on the seed, so throughput and percentiles
    measure the program, not the draw.
    """
    ratio = (hi / lo) ** (1 / (count - 1))
    return [
        min(hi, max(lo, round(lo * ratio**j * (1 + jitter * (2 * rng.random() - 1)))))
        for j in range(count)
    ]


def _formats(first: int, count: int) -> list[str]:
    # Rotated by pass, not by seed, so that the largest size of each kind
    # meets every format within three passes whatever the seed.
    return [FORMATS[(first + j) % len(FORMATS)] for j in range(count)]


def _format_args(fmt: str) -> tuple[str, ...]:
    return () if fmt == "text" else (f"--format={fmt}",)


def derive_op(n: int, method: str, fmt: str, x: str | None) -> Op:
    args = ("derive", str(n), f"--method={method}")
    if x is None:
        return Op(args + _format_args(fmt), check_symbolic(n, method, fmt), 1)
    return Op(args + (f"--x={x}",) + _format_args(fmt), check_value(n, method, x, fmt), 1)


X_VALUES = {"small": SMALL_X, "large": LARGE_X, "any": SMALL_X + LARGE_X}

# (method, lo, hi, sizes, x per operation): None prints the rational
# function, otherwise the x for `--x` is of the given height class.  Each
# size runs len(x per operation) / sizes times.  prop12 and oracle are
# O(n^3), hence their smaller ranges.  oracle runs twice at each of its four
# sizes, both symbolic at the largest, so that the slowest successful
# operations of a pass are two of equal cost and p90 lands between them
# rather than on the edge of a group.
# At the parent commit, exactly the largest size of the first three kinds
# fails at the int->str digit limit: symbolic output from n = 1425,
# small-height x from n = 1346 and large-height x from n = 647.  The x
# classes are placed so that no other size crosses those limits.
DERIVE_KINDS = (
    ("closed", 50, 1500, 8, (None,) * 8),
    ("closed", 50, 1500, 8, ("small", "large") * 4),
    ("fdb", 50, 1500, 8, ("small", "large") * 3 + ("small", "small")),
    ("prop12", 30, 400, 8, (None, "any") * 4),
    ("oracle", 20, 200, 4, (None, "any") * 3 + (None, None)),
)
DERIVE_JITTER = 0.02


def derive_pass(rng: random.Random, index: int) -> list[Op]:
    ops = []
    for kind, (method, lo, hi, count, heights) in enumerate(DERIVE_KINDS):
        repeat = len(heights) // count
        sizes = [n for n in grid_sizes(rng, lo, hi, count, DERIVE_JITTER) for _ in range(repeat)]
        formats = _formats(index + kind, len(heights))
        for n, fmt, height in zip(sizes, formats, heights):
            x = None if height is None else rng.choice(X_VALUES[height])
            ops.append(derive_op(n, method, fmt, x))
    return ops


# (check, lo, hi), five sizes each.  The middle sizes of the three kinds
# cost about the same, so p50 lands among them; the top two differ in cost,
# so p90 does not sit between two operations of nearly equal cost.
SWEEP_SIZES = 5
SWEEP_KINDS = (
    ("check-identity", 75, 400),
    ("check-corollary", 123, 560),
    ("check-2f1", 35, 120),
)
SWEEP_JITTER = 0.02


def sweep_op(check: str, n_max: int, fmt: str) -> Op:
    cases = sweep_cases(check, n_max)
    return Op((check, str(n_max)) + _format_args(fmt), check_report(check, n_max, cases, fmt), cases)


def sweep_pass(rng: random.Random, index: int) -> list[Op]:
    ops = []
    for kind, (check, lo, hi) in enumerate(SWEEP_KINDS):
        sizes = grid_sizes(rng, lo, hi, SWEEP_SIZES, SWEEP_JITTER)
        formats = _formats(index + kind, SWEEP_SIZES)
        ops.extend(sweep_op(check, n, fmt) for n, fmt in zip(sizes, formats))
    return ops


CROSSCHECK_RANGE = (40, 150)
# Sample points per size.  With five sizes, each fifth of the operations by
# cost is one size, so p50 and p90 fall in the middle of one size's
# operations rather than between two sizes.
CROSSCHECK_POINTS = (3, 4, 6, 7, 8)
CROSSCHECK_JITTER = 0.025


def sample_points(rng: random.Random, count: int) -> list[str]:
    """`count` distinct nonzero rationals in lowest terms: half with
    numerator and denominator at most 4, half with both from 40 to 60."""
    points: list[Fraction] = []
    while len(points) < count:
        small = len(points) < (count + 1) // 2
        p, q = (rng.randint(1, 4), rng.randint(1, 4)) if small else (rng.randint(40, 60), rng.randint(40, 60))
        x = Fraction(rng.choice((-1, 1)) * p, q)
        if x.denominator == q and x not in points:
            points.append(x)
    return [str(x) for x in points]


def crosscheck_op(n_max: int, points: list[str], fmt: str) -> Op:
    cases = n_max * (2 + len(points))
    args = ("crosscheck", str(n_max), "--points=" + ",".join(points))
    return Op(args + _format_args(fmt), check_report("crosscheck", n_max, cases, fmt, points), cases)


def crosscheck_pass(rng: random.Random, index: int) -> list[Op]:
    lo, hi = CROSSCHECK_RANGE
    count = len(CROSSCHECK_POINTS)
    sizes = grid_sizes(rng, lo, hi, count, CROSSCHECK_JITTER)
    formats = _formats(index, count)
    return [
        crosscheck_op(n, sample_points(rng, points), fmt)
        for n, points, fmt in zip(sizes, CROSSCHECK_POINTS, formats)
    ]


WORKLOADS = {"derive": derive_pass, "sweep": sweep_pass, "crosscheck": crosscheck_pass}


def make_pass(workload: str, seed: int, index: int) -> list[Op]:
    """Pass `index` of `workload` for `seed`, in a seeded order."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    ops = WORKLOADS[workload](rng, index)
    rng.shuffle(ops)
    return ops
