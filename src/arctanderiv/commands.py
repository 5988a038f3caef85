"""The command handlers, which ``cli.COMMANDS`` names and ``cli.main``
resolves when a command runs, and the one emitter they print through: help,
usage errors and building the parser never compile this module.  Each
handler imports the module it runs, prints through ``_emit`` and returns
the exit code; ``derive`` and ``bench`` run the routes by ``_run``.

``_emit`` prints every result as text, a json document or a csv table,
streamed to stdout term by term, with every number rendered at any size by
``exact_str`` (no int -> str digit limit).  json and csv are written here,
without the stdlib modules: ``json`` loads only to quote a string that
holds a character json escapes (``_quote``), which no command prints, and
csv rows follow csv's QUOTE_MINIMAL rule (``_csv_field``).
"""

from __future__ import annotations

import sys
import time
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from . import ROUTES
from .cli import _resolve, _stdout
from .digits import _lowest, _ratio_str, exact_str

if TYPE_CHECKING:
    from argparse import Namespace

    from .polynomial import Term


TERM_HEADER = ("power", "numerator", "denominator")


class _Number(str):
    """The text of an integer, written to json as a number."""


def _term_dicts(terms: Iterable[Term]) -> Iterator[dict[str, object]]:
    """json term dicts from (power, text) pairs: every term is an integer."""
    for power, numerator in terms:
        yield {"power": power, "numerator": _Number(numerator), "denominator": 1}


def _quote(value: object) -> str:
    """json.dumps(value) for a string, a bool or None; ``json`` is imported
    only for a string that it would escape, which no command prints."""
    if value is None or type(value) is bool:
        return "null" if value is None else "true" if value else "false"
    # json.dumps writes printable ASCII without " or \ as it is.
    if type(value) is str and value.isascii() and value.isprintable():
        if '"' not in value and "\\" not in value:
            return f'"{value}"'
    import json

    return json.dumps(value)


def _json(value: object, indent: str) -> Iterator[str]:
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
            items = ((_quote(key) + ": ", item) for key, item in value.items())
        else:
            opening, closing = "[", "]"
            items = (("", item) for item in value)
        inner = indent + "  "
        before = opening
        for prefix, item in items:
            yield f"{before}\n{inner}{prefix}"
            yield from _json(item, inner)
            before = ","
        yield opening + closing if before == opening else f"\n{indent}{closing}"
    else:
        yield _quote(value)


def _csv_field(value: object) -> str:
    """str(value), quoted and its quotes doubled if it holds , " CR or LF."""
    text = str(value)
    if any(special in text for special in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _emit(
    fmt: str,
    text: Iterable[str],
    document: dict | None,
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> None:
    """Print one result as text, as a json document or as a csv table,
    streamed to stdout piece by piece, term by term or row by row.

    Only the requested format's payload is rendered: the text pieces are
    written, ``document`` is walked and ``rows`` is iterated only for their
    own format.  A document's costly parts are lazy iterators, such as
    ``_term_dicts(...)``, so a large value is converted once and never held
    whole as one output string.
    """
    out = _stdout()
    write = out.write
    if fmt == "csv":
        write(",".join(map(_csv_field, header)) + "\n")
        for row in rows:
            write(",".join(map(_csv_field, row)) + "\n")
    else:
        if fmt == "json":
            text = _json(document, "")
        for piece in text:
            write(piece)
        write("\n")
    # A result shorter than stdout's buffer would otherwise wait there until
    # finalization, too late for main to report a failed write.
    out.flush()


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


def _run(method: str, n: int, x: tuple[int, int] | None):
    """Order n of ``ROUTES[method]``: a symbolic route's ``ArctanRational``, from its
    stream started at n, or a pointwise one's value at x, an unreduced int pair."""
    from . import arctan

    kind, name = ROUTES[method]
    route = getattr(arctan, name)
    return route(n, [x])[0] if kind == "pointwise" else arctan._order(route, n)


def cmd_derive(args: Namespace) -> int:
    """Print a route's symbolic result, or its value at --x (a symbolic one's by ``_evaluate``)."""
    result = _run(args.method, args.n, args.x)
    if ROUTES[args.method][0] != "pointwise":
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
        result = result._evaluate(*args.x)
    value = _ratio_str(*_lowest(*result))
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
    from . import arctan, combinatorics, composition  # noqa: F401  imported before the clock starts
    rows = []
    buckets = [n for n in BENCH_BUCKETS if n <= args.n_max]
    for name in ROUTES:
        for n in buckets:
            start = time.perf_counter()
            _run(name, n, BENCH_POINT)
            rows.append((name, n, int((time.perf_counter() - start) * 1_000_000)))
    _emit(
        args.format,
        ("\n".join(f"{name} n={n} micros={micros}" for name, n, micros in rows),),
        {"n_max": args.n_max, "rows": (dict(zip(BENCH_HEADER, row)) for row in rows)},
        BENCH_HEADER,
        rows,
    )
    return 0
