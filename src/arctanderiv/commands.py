"""The command handlers, which ``cli.COMMANDS`` names and ``cli.main``
resolves when a command runs: help, usage errors and building the parser
never compile this module.  Each handler imports the module it runs,
prints through ``emit._emit`` and returns the exit code.
"""

from __future__ import annotations

import sys
import time
from typing import TYPE_CHECKING

from .cli import METHODS, POINTWISE_METHODS, _resolve
from .digits import _lowest, _ratio_str
from .emit import TERM_HEADER, _emit, _quote, _term_dicts

if TYPE_CHECKING:
    from argparse import Namespace


def cmd_qpoly(args: Namespace) -> int:
    from . import arctan
    from .polynomial import ArctanRational

    poly = ArctanRational(arctan.q_polynomial(args.n))
    _emit(
        args.format,
        poly.text(),
        {"n": args.n, "terms": _term_dicts(poly.terms())},
        TERM_HEADER,
        ((power, numerator, 1) for power, numerator in poly.terms()),
    )
    return 0


def cmd_derive(args: Namespace) -> int:
    """Print a route's symbolic result, or its value at --x: the pointwise
    route's from its int kernel, the others' by ``ArctanRational._evaluate``,
    each an unreduced pair whose denominator is positive."""
    from . import arctan

    route = getattr(arctan, METHODS[args.method])
    if args.method in POINTWISE_METHODS:
        top, bottom = route(args.n, [args.x])[0]
    else:
        result = route(args.n)
        if args.x is None:
            _emit(
                args.format,
                result.text(),
                {
                    "n": args.n,
                    "method": args.method,
                    "numerator": _term_dicts(result.terms()),
                    "denominator_exponent": result.exponent,
                },
                (*TERM_HEADER, "denominator_exponent"),
                ((power, numerator, 1, result.exponent) for power, numerator in result.terms()),
            )
            return 0
        top, bottom = result._evaluate(*args.x)
    value = _ratio_str(*_lowest(top, bottom))
    x = _ratio_str(*args.x)
    _emit(
        args.format,
        (value,),
        {"n": args.n, "method": args.method, "x": x, "value": value},
        ("n", "method", "x", "value"),
        [(args.n, args.method, x, value)],
    )
    return 0


def cmd_check(args: Namespace) -> int:
    """Run the sweep that the subcommand names in ``args.check``, a (module,
    function) pair, with its cost on stderr so that stdout repeats exactly;
    exit 1 on a mismatch.  Every format prints the kept contexts: a text
    MISMATCH line, json's ``failures`` or, after csv's summary row, a row
    ``failure,<i>,<key>,<value>`` per field of context i (from 1).  The
    cost is timed from the report's construction, after the check's
    imports, and written in the result's format: a text line, one json
    object on one line (a rate over no elapsed time is null) or a csv
    header and row.  It follows the written result, so a result that could
    not be written leaves only its error on stderr."""
    check = _resolve(args.check)
    points = () if getattr(args, "points", None) is None else (args.points,)
    report = check(args.n_max, *points)
    elapsed = time.perf_counter() - report.started
    lines = [report.summary()]
    rows = [(report.check, args.n_max, report.cases, report.mismatches, report.passed)]
    for i, failure in enumerate(report.failures, 1):
        lines.append("  MISMATCH " + " ".join(f"{k}={v}" for k, v in failure.items()))
        rows += (("failure", i, *field) for field in failure.items())
    hidden = report.mismatches - len(report.failures)
    if hidden:
        lines.append(f"  ... {hidden} more mismatches not shown")
    _emit(
        args.format,
        ("\n".join(lines),),
        report.to_dict(),
        ("check", "n_max", "cases", "failures", "passed"),
        rows,
    )
    elapsed_s = f"{elapsed:.3f}"
    rate = f"{report.cases / elapsed:.0f}" if elapsed > 0 else None
    if args.format == "json":
        cost = (
            f'{{"check": {_quote(report.check)}, "elapsed_s": {elapsed_s}, '
            f'"cases_per_s": {rate or "null"}}}'
        )
    elif args.format == "csv":
        cost = f"check,elapsed_s,cases_per_s\n{report.check},{elapsed_s},{rate or 'inf'}"
    else:
        cost = f"{report.check}: elapsed_s={elapsed_s} cases_per_s={rate or 'inf'}"
    print(cost, file=sys.stderr)
    return 0 if report.passed else 1


BENCH_BUCKETS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)
BENCH_POINT = (1, 2)  # the pointwise routes' x = 1/2, as (numerator, denominator)
BENCH_HEADER = ("method", "n", "micros")


def cmd_bench(args: Namespace) -> int:
    from . import arctan

    rows = []
    buckets = [n for n in BENCH_BUCKETS if n <= args.n_max]
    for name, function in METHODS.items():
        route = getattr(arctan, function)
        point = ([BENCH_POINT],) if name in POINTWISE_METHODS else ()
        for n in buckets:
            start = time.perf_counter()
            route(n, *point)
            elapsed = time.perf_counter() - start
            rows.append((name, n, int(elapsed * 1_000_000)))
    _emit(
        args.format,
        ("\n".join(f"{name} n={n} micros={micros}" for name, n, micros in rows),),
        {"n_max": args.n_max, "rows": (dict(zip(BENCH_HEADER, row)) for row in rows)},
        BENCH_HEADER,
        rows,
    )
    return 0
