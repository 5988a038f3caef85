"""Command-line surface: polynomial queries, derivatives by any route, exact
verification sweeps, and a timing table.

Every result is printed by one emitter, ``_emit``, as text, a json document
or a csv table, streamed to stdout term by term, with every number rendered
at any size by ``exact_str`` (no int -> str digit limit).  The four sweeps (``check-identity``, ``check-corollary``,
``check-2f1`` and ``crosscheck``) share one command, ``cmd_check``, which runs
the check function its subparser stored.

Exit codes: 0 when everything succeeds (checks all pass), 1 when a
verification sweep finds a mismatch, 2 for usage or argument-parse errors,
3 when the command raised an unexpected exception (reported on one stderr
line, without a traceback).  Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from . import arctan, identities
from .polynomial import ArctanRational, Term, exact_str

__all__ = ["main", "build_parser"]

FORMATS = ("text", "json", "csv")

# One ASCII integer syntax for every numeric argument; int() and Fraction()
# alone would also take surrounding whitespace, underscores and non-ASCII
# digits.
_INTEGER = r"[+-]?[0-9]+"
_INTEGER_RE = re.compile(_INTEGER + r"\Z")
_RATIONAL_RE = re.compile(_INTEGER + r"(/[0-9]+)?\Z")


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
    if not _INTEGER_RE.match(text):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _positive(text: str) -> int:
    value = _natural(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


TERM_HEADER = ("power", "numerator", "denominator")


class _Number(str):
    """The text of an integer, written to json as a number."""


def _term_dicts(terms: Iterable[Term]) -> Iterator[dict[str, object]]:
    """json term dicts from (power, text) pairs: every term is an integer."""
    for power, numerator in terms:
        yield {"power": power, "numerator": _Number(numerator), "denominator": 1}


def _json(value: object, indent: str, quote: Callable[[object], str]) -> Iterator[str]:
    """json.dumps(value, indent=2) in pieces, for dicts, lists and iterators
    of them, strings, ints, ``_Number`` texts, bools and None.  Ints are
    rendered by ``exact_str``, so they have no digit limit, and an iterator
    is written as a list while it is consumed."""
    if isinstance(value, _Number):
        yield value
    elif type(value) is int:
        yield exact_str(value)
    elif isinstance(value, (dict, list, Iterator)):
        if isinstance(value, dict):
            opening, closing = "{", "}"
            items = ((quote(key) + ": ", item) for key, item in value.items())
        else:
            opening, closing = "[", "]"
            items = (("", item) for item in value)
        inner = indent + "  "
        before = opening
        for prefix, item in items:
            yield f"{before}\n{inner}{prefix}"
            yield from _json(item, inner, quote)
            before = ","
        yield opening + closing if before == opening else f"\n{indent}{closing}"
    else:
        yield quote(value)


def _csv_field(value: object) -> str:
    """str(value), quoted and its quotes doubled if it holds , " CR or LF."""
    text = str(value)
    if any(special in text for special in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _emit(
    fmt: str,
    text: Iterable[str],
    document: Callable[[], dict] | None,
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> None:
    """Print one result as text, as a json document or as a csv table,
    streamed to stdout piece by piece, term by term or row by row.

    Only the requested format's payload is rendered: the text pieces are
    written, ``document`` is called and ``rows`` is iterated only for their
    own format, so a large value is converted once and never held whole as
    one output string.
    """
    write = sys.stdout.write
    if fmt == "csv":
        write(",".join(map(_csv_field, header)) + "\n")
        for row in rows:
            write(",".join(map(_csv_field, row)) + "\n")
        return
    if fmt == "json":
        import json
        text = _json(document(), "", json.dumps)
    for piece in text:
        write(piece)
    write("\n")


def cmd_qpoly(args: argparse.Namespace) -> int:
    poly = arctan.q_polynomial(args.n)
    _emit(
        args.format,
        poly.text(),
        lambda: {"n": args.n, "terms": _term_dicts(poly.terms())},
        TERM_HEADER,
        ((power, numerator, 1) for power, numerator in poly.terms()),
    )
    return 0


SYMBOLIC_METHODS: dict[str, Callable[[int], ArctanRational]] = {
    "closed": arctan.arctan_derivative_closed,
    "prop12": arctan.arctan_derivative_expanded,
    "oracle": arctan.arctan_derivative_oracle,
}


def cmd_derive(args: argparse.Namespace) -> int:
    if args.method == "fdb":
        value = arctan.arctan_derivative_pointwise(args.n, args.x)
    else:
        result = SYMBOLIC_METHODS[args.method](args.n)
        if args.x is None:
            _emit(
                args.format,
                result.text(),
                lambda: {
                    "n": args.n,
                    "method": args.method,
                    "numerator": _term_dicts(result.terms()),
                    "denominator_exponent": result.exponent,
                },
                (*TERM_HEADER, "denominator_exponent"),
                ((power, numerator, 1, result.exponent) for power, numerator in result.terms()),
            )
            return 0
        value = result.evaluate(args.x)
    x, value = exact_str(args.x), exact_str(value)
    _emit(
        args.format,
        (value,),
        lambda: {"n": args.n, "method": args.method, "x": x, "value": value},
        ("n", "method", "x", "value"),
        [(args.n, args.method, x, value)],
    )
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """Run the sweep the subcommand stored in ``args.check``, with its cost on
    stderr so that stdout repeats exactly; exit 1 on a mismatch."""
    points = (args.points,) if "points" in args else ()
    start = time.perf_counter()
    report = args.check(args.n_max, *points)
    elapsed = time.perf_counter() - start
    rate = f"{report.cases / elapsed:.0f}" if elapsed > 0 else "inf"
    print(f"{report.check}: elapsed_s={elapsed:.3f} cases_per_s={rate}", file=sys.stderr)
    lines = [report.summary()]
    for failure in report.failures:
        lines.append("  MISMATCH " + " ".join(f"{k}={v}" for k, v in failure.items()))
    hidden = report.mismatches - len(report.failures)
    if hidden:
        lines.append(f"  ... {hidden} more mismatches not shown")
    _emit(
        args.format,
        ("\n".join(lines),),
        report.to_dict,
        ("check", "n_max", "cases", "failures", "passed"),
        [(report.check, args.n_max, report.cases, report.mismatches, report.passed)],
    )
    return 0 if report.passed else 1


BENCH_BUCKETS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)
BENCH_POINT = Fraction(1, 2)
BENCH_HEADER = ("method", "n", "micros")


def cmd_bench(args: argparse.Namespace) -> int:
    methods = {
        **SYMBOLIC_METHODS,
        "fdb": lambda n: arctan.arctan_derivative_pointwise(n, BENCH_POINT),
    }
    rows = []
    buckets = [n for n in BENCH_BUCKETS if n <= args.n_max]
    for name, method in methods.items():
        for n in buckets:
            start = time.perf_counter()
            method(n)
            elapsed = time.perf_counter() - start
            rows.append((name, n, int(elapsed * 1_000_000)))
    _emit(
        args.format,
        ("\n".join(f"{name} n={n} micros={micros}" for name, n, micros in rows),),
        lambda: {"n_max": args.n_max, "rows": [dict(zip(BENCH_HEADER, row)) for row in rows]},
        BENCH_HEADER,
        rows,
    )
    return 0


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
    p.set_defaults(func=cmd_derive, parser=p)

    # The check functions are read here, when the parser is built, so that a
    # rebinding of the module attribute before main() runs takes effect.
    for name, help_text, default, check in (
        ("check-identity", "alternating binomial sum vs closed form", 200,
         identities.check_binomial_identity),
        ("check-corollary", "weighted binomial sum vs parity closed form", 200,
         identities.check_weighted_identity),
        ("check-2f1", "literal sums vs terminating hypergeometric form", 60,
         identities.check_hypergeometric_sweep),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("n_max", type=_natural, nargs="?", default=default)
        add_format(p)
        p.set_defaults(func=cmd_check, check=check)

    p = sub.add_parser("crosscheck", help="all four derivative routes against each other")
    p.add_argument("n_max", type=_positive, nargs="?", default=50)
    p.add_argument(
        "--points",
        type=_rational_list,
        default=arctan.DEFAULT_SAMPLE_POINTS,
        help="comma-separated rational sample points",
    )
    add_format(p)
    p.set_defaults(func=cmd_check, check=arctan.crosscheck)

    p = sub.add_parser("bench", help="wall-clock timing table per method and n")
    p.add_argument("n_max", type=_natural, nargs="?", default=100)
    add_format(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "derive" and args.method == "fdb" and args.x is None:
        args.parser.error("--method=fdb evaluates pointwise and needs --x")
    try:
        return args.func(args)
    except Exception as exc:
        # Exit 1 is reserved for a mathematical mismatch.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
