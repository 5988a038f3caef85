"""Command-line surface: polynomial queries, derivatives by any route, exact
verification sweeps, and a timing table.

Exit codes: 0 when everything succeeds (checks all pass), 1 when a
verification sweep finds a mismatch, 2 for usage or argument-parse errors,
3 when the command raised an unexpected exception (reported on one stderr
line, without a traceback).  Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
import time
from fractions import Fraction
from typing import Callable, Sequence

from . import arctan, identities
from .polynomial import ArctanRational, Polynomial
from .reports import CheckReport

__all__ = ["main", "build_parser"]

FORMATS = ("text", "json", "csv")

_RATIONAL_RE = re.compile(r"[+-]?\d+(/\d+)?\Z")


def _rational(text: str) -> Fraction:
    """CLI rational syntax: integer p or p/q, sign allowed on p only."""
    if not _RATIONAL_RE.match(text):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r} (expected p or p/q)")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator: {text!r}") from None


def _rational_list(text: str) -> tuple[Fraction, ...]:
    pieces = text.split(",")
    if any(not piece for piece in pieces):
        raise argparse.ArgumentTypeError("expected a comma-separated list of rationals")
    return tuple(_rational(piece) for piece in pieces)


def _natural(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _positive(text: str) -> int:
    value = _natural(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _poly_terms(poly: Polynomial) -> list[dict[str, int]]:
    # Ascending power order, nonzero coefficients only.
    return [
        {"power": power, "numerator": c.numerator, "denominator": c.denominator}
        for power, c in enumerate(poly.coefficients)
        if c != 0
    ]


def _print_json(document: dict) -> None:
    print(json.dumps(document, indent=2))


def _print_csv(header: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(buffer.getvalue())


def _emit_polynomial(poly: Polynomial, fmt: str, document: dict) -> None:
    if fmt == "text":
        print(poly)
    elif fmt == "json":
        document["terms"] = _poly_terms(poly)
        _print_json(document)
    else:
        rows = [
            (term["power"], term["numerator"], term["denominator"])
            for term in _poly_terms(poly)
        ]
        _print_csv(("power", "numerator", "denominator"), rows)


def cmd_qpoly(args: argparse.Namespace) -> int:
    _emit_polynomial(arctan.q_polynomial(args.n), args.format, {"n": args.n})
    return 0


SYMBOLIC_METHODS: dict[str, Callable[[int], ArctanRational]] = {
    "closed": arctan.arctan_derivative_closed,
    "prop12": arctan.arctan_derivative_expanded,
    "oracle": arctan.arctan_derivative_oracle,
}


def _emit_value(args: argparse.Namespace, value: Fraction) -> None:
    if args.format == "text":
        print(value)
    elif args.format == "json":
        _print_json(
            {"n": args.n, "method": args.method, "x": str(args.x), "value": str(value)}
        )
    else:
        _print_csv(("n", "method", "x", "value"), [(args.n, args.method, args.x, value)])


def cmd_derive(args: argparse.Namespace) -> int:
    if args.method == "fdb":
        if args.x is None:
            raise _UsageError("--method=fdb evaluates pointwise and needs --x")
        _emit_value(args, arctan.arctan_derivative_pointwise(args.n, args.x))
        return 0
    result = SYMBOLIC_METHODS[args.method](args.n)
    if args.x is not None:
        _emit_value(args, result.evaluate(args.x))
        return 0
    if args.format == "text":
        print(result)
    elif args.format == "json":
        _print_json(
            {
                "n": args.n,
                "method": args.method,
                "numerator": _poly_terms(result.numerator),
                "denominator_exponent": result.exponent,
            }
        )
    else:
        rows = [
            (term["power"], term["numerator"], term["denominator"], result.exponent)
            for term in _poly_terms(result.numerator)
        ]
        _print_csv(("power", "numerator", "denominator", "denominator_exponent"), rows)
    return 0


def _emit_report(report: CheckReport, fmt: str) -> int:
    if fmt == "text":
        print(report.summary())
        for failure in report.failures:
            detail = " ".join(f"{k}={v}" for k, v in failure.items())
            print(f"  MISMATCH {detail}")
        hidden = report.mismatches - len(report.failures)
        if hidden:
            print(f"  ... {hidden} more mismatches not shown")
    elif fmt == "json":
        _print_json(report.to_dict())
    else:
        _print_csv(
            ("check", "n_max", "cases", "failures", "passed"),
            [
                (
                    report.check,
                    report.parameters.get("n_max", ""),
                    report.cases,
                    report.mismatches,
                    report.passed,
                )
            ],
        )
    return 0 if report.passed else 1


def cmd_check_identity(args: argparse.Namespace) -> int:
    return _emit_report(identities.check_binomial_identity(args.n_max), args.format)


def cmd_check_corollary(args: argparse.Namespace) -> int:
    return _emit_report(identities.check_weighted_identity(args.n_max), args.format)


def cmd_check_2f1(args: argparse.Namespace) -> int:
    return _emit_report(identities.check_hypergeometric_sweep(args.n_max), args.format)


def cmd_crosscheck(args: argparse.Namespace) -> int:
    return _emit_report(arctan.crosscheck(args.n_max, args.points), args.format)


BENCH_BUCKETS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)
BENCH_POINT = Fraction(1, 2)


def _bench_methods() -> dict[str, Callable[[int], object]]:
    methods: dict[str, Callable[[int], object]] = dict(SYMBOLIC_METHODS)
    methods["fdb"] = lambda n: arctan.arctan_derivative_pointwise(n, BENCH_POINT)
    return methods


def cmd_bench(args: argparse.Namespace) -> int:
    rows = []
    buckets = [n for n in BENCH_BUCKETS if n <= args.n_max]
    for name, method in _bench_methods().items():
        for n in buckets:
            start = time.perf_counter()
            method(n)
            elapsed = time.perf_counter() - start
            rows.append((name, n, int(elapsed * 1_000_000)))
    _print_csv(("method", "n", "micros"), rows)
    return 0


class _UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arctanderiv",
        description="Exact arctan derivatives by four methods, with exact identity sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=FORMATS, default="text")

    p = sub.add_parser("qpoly", help="print the numerator polynomial family member q_n")
    p.add_argument("n", type=_natural)
    add_format(p)
    p.set_defaults(func=cmd_qpoly)

    p = sub.add_parser("derive", help="compute the n-th derivative of arctan")
    p.add_argument("n", type=_positive)
    p.add_argument("--method", choices=(*SYMBOLIC_METHODS, "fdb"), default="closed")
    p.add_argument("--x", type=_rational, default=None, help="evaluate at x = p/q")
    add_format(p)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("check-identity", help="alternating binomial sum vs closed form")
    p.add_argument("n_max", type=_natural, nargs="?", default=200)
    add_format(p)
    p.set_defaults(func=cmd_check_identity)

    p = sub.add_parser("check-corollary", help="weighted binomial sum vs parity closed form")
    p.add_argument("n_max", type=_natural, nargs="?", default=200)
    add_format(p)
    p.set_defaults(func=cmd_check_corollary)

    p = sub.add_parser("check-2f1", help="literal sums vs terminating hypergeometric form")
    p.add_argument("n_max", type=_natural, nargs="?", default=60)
    add_format(p)
    p.set_defaults(func=cmd_check_2f1)

    p = sub.add_parser("crosscheck", help="all four derivative routes against each other")
    p.add_argument("n_max", type=_positive, nargs="?", default=50)
    p.add_argument(
        "--points",
        type=_rational_list,
        default=arctan.DEFAULT_SAMPLE_POINTS,
        help="comma-separated rational sample points",
    )
    add_format(p)
    p.set_defaults(func=cmd_crosscheck)

    p = sub.add_parser("bench", help="wall-clock timing table (csv) per method and n")
    p.add_argument("n_max", type=_natural, nargs="?", default=100)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Exit 1 is reserved for a mathematical mismatch.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
