"""Command-line surface: polynomial queries, derivatives by any route, exact
verification sweeps, and a timing table.

This module reads a command line and writes help; ``commands`` runs the
command and prints its result, as text, a json document or a csv table,
through its one emitter, ``commands._emit``.  The four sweeps
(``check-identity``, ``check-corollary``, ``check-2f1`` and ``crosscheck``)
share one handler, ``cmd_check``, which runs the check function its
subparser named.  Help and results take stdout from ``_stdout``, so help,
like a usage error, loads no module beyond this one and ``digits``.

One table, ``COMMANDS``, declares every command and its arguments, and
``derive --method`` takes the names of the package root's ``ROUTES``.
``main`` reads a plain command line (``_read``: a command, its positionals,
then options written ``--name=value`` in full) straight from that table, so
``argparse`` (and the ``gettext`` and ``locale`` that it loads) is imported
only for help, a usage error or another spelling; for those, ``main``
builds the one parser of every command from the same table.  Neither
imports a route module or a handler: each command imports its handler, and
the module that it runs, when it runs.  ``--x`` and ``--points`` are read
as lowest-terms int pairs (``_ratio``).

``main(argv)`` is the in-process API: it returns the exit code, touches no
file descriptor and leaves the garbage collector alone.  A process enters
through ``__main__.run``, which exits with that code.

Exit codes: 0 when everything succeeds (checks all pass), 1 when a
verification sweep finds a mismatch, 2 for usage or argument-parse errors
and for an order that the process cannot hold (a ``MemoryError`` or
``OverflowError`` from the command), 3 when the command raised any other
exception, a failed write of stdout included.  A failure is reported on one
stderr line, without a traceback.  Results go to stdout, diagnostics to
stderr.  Every result and help text is flushed as soon as it is written, so
a write that fails does so inside ``main``, which can still report it.
"""

from __future__ import annotations

import importlib
import re
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Sequence

from . import ROUTES
from .digits import _integer, _lowest

if TYPE_CHECKING:
    import argparse
    from argparse import Namespace

__all__ = ["main", "build_parser"]

FORMATS = ("text", "json", "csv")

# One ASCII integer syntax for every numeric argument; int() and Fraction()
# alone would also take surrounding whitespace, underscores and non-ASCII
# digits.
_INTEGER = r"[+-]?[0-9]+"
_INTEGER_RE = re.compile(_INTEGER + r"\Z")
_RATIONAL_RE = re.compile(_INTEGER + r"(/[0-9]+)?\Z")
_MAX_DIGITS = 4300  # int()'s default digit limit; no order or size this long can run


def _ratio(text: str) -> tuple[int, int]:
    """CLI rational syntax, integer p or p/q with a sign allowed on p only,
    as the lowest-terms pair (p, q), q > 0, that Fraction(p, q) holds."""
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational: {text!r} (expected p or p/q)")
    numerator, _, denominator = text.partition("/")
    p, q = _integer(numerator), _integer(denominator or "1")
    if not q:
        raise ValueError(f"zero denominator: {text!r}")
    return _lowest(p, q)


def _rational_list(text: str) -> tuple[tuple[int, int], ...]:
    pieces = text.split(",")
    if any(not piece for piece in pieces):
        raise ValueError("expected a comma-separated list of rationals")
    return tuple(map(_ratio, pieces))


def _size(text: str) -> int:
    """An order, sweep size or bench's n_max: 0 up to sys.maxsize, the largest index."""
    if not _INTEGER_RE.match(text):
        raise ValueError(f"not an integer: {text!r}")
    if len(text.lstrip("+-")) > _MAX_DIGITS:
        raise ValueError(f"more than {_MAX_DIGITS} digits: too large to compute")
    value = _integer(text)
    if value < 0:
        raise ValueError("must be >= 0")
    if value > sys.maxsize:
        raise ValueError(f"more than {sys.maxsize}: too large to compute")
    return value


def _positive(text: str) -> int:
    value = _size(text)
    if value < 1:
        raise ValueError("must be >= 1")
    return value


def _resolve(pair: tuple[str, str]) -> Callable:
    """The function a (module, function) pair names, read from its module now."""
    module, name = pair
    return getattr(importlib.import_module(f".{module}", __package__), name)


def _sweep(help_text: str, default: int, function: str) -> tuple:
    """The table entry of an identity sweep: ``function`` in ``identities``."""
    n_max = {"type": _size, "nargs": "?", "default": default}
    defaults = {"handler": "cmd_check", "check": ("identities", function)}
    return help_text, {"n_max": n_max}, defaults


# Every command, in the order of the help: its help text, its arguments as
# add_argument keywords by name, and its defaults, among them the name of its
# handler in ``commands``.  Each also takes --format.
COMMANDS: dict[str, tuple[str, dict[str, dict], dict[str, object]]] = {
    "qpoly": (
        "print the numerator polynomial family member q_n",
        {"n": {"type": _size}},
        {"handler": "cmd_qpoly"},
    ),
    "derive": (
        "compute the n-th derivative of arctan",
        {
            "n": {"type": _positive},
            "--method": {"choices": ROUTES, "default": "closed"},
            "--x": {"type": _ratio, "default": None, "help": "evaluate at x = p/q"},
        },
        {"handler": "cmd_derive"},
    ),
    "check-identity": _sweep(
        "alternating binomial sum vs closed form", 200, "check_binomial_identity"
    ),
    "check-corollary": _sweep(
        "weighted binomial sum vs parity closed form", 200, "check_weighted_identity"
    ),
    "check-2f1": _sweep(
        "literal sums vs terminating hypergeometric form", 60, "check_hypergeometric_sweep"
    ),
    "crosscheck": (
        "all four derivative routes against each other",
        {
            "n_max": {"type": _positive, "nargs": "?", "default": 50},
            # Without --points, crosscheck takes its own DEFAULT_SAMPLE_POINTS.
            "--points": {"type": _rational_list, "help": "comma-separated rational sample points"},
        },
        {"handler": "cmd_check", "check": ("arctan", "crosscheck")},
    ),
    "bench": (
        "wall-clock timing table per method and n",
        {"n_max": {"type": _size, "nargs": "?", "default": 100}},
        {"handler": "cmd_bench"},
    ),
}


def _arguments(command: str) -> dict[str, dict]:
    """The add_argument keywords of every argument of ``command`` by name,
    its own from COMMANDS and then --format."""
    return {**COMMANDS[command][1], "--format": {"choices": FORMATS, "default": "text"}}


def _argparse_type(reader: Callable[[str], object]) -> Callable[[str], object]:
    """``reader`` as an argparse type: its ``ValueError``, always a refusal
    of its own (each reader checks the syntax before ``int`` runs), becomes
    an ``ArgumentTypeError`` with the same message, which argparse prints as
    it is, instead of "invalid <reader> value"."""
    import argparse

    def read(text: str) -> object:
        try:
            return reader(text)
        except ValueError as refused:
            raise argparse.ArgumentTypeError(str(refused)) from None

    return read


def _stdout():
    """sys.stdout, for a result or help.  A process started with fd 1 closed
    has None there: that raises the OSError of a failed write instead."""
    if sys.stdout is None:
        import errno
        raise OSError(errno.EBADF, "stdout is closed")
    return sys.stdout


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command in COMMANDS, which reads help, usage
    errors and the spellings that ``_read`` leaves to it.  Its help writer
    raises when the write fails: argparse's own swallows the ``OSError``, so
    help lost to a full device would exit 0."""
    import argparse

    class Parser(argparse.ArgumentParser):  # subparsers take this class too
        def print_help(self, file=None) -> None:
            file = file or _stdout()
            file.write(self.format_help())
            file.flush()

    parser = Parser(
        prog="arctanderiv",
        description="Exact arctan derivatives by four methods, with exact identity sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, defaults) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for argument, keywords in _arguments(name).items():
            if "type" in keywords:
                keywords = {**keywords, "type": _argparse_type(keywords["type"])}
            p.add_argument(argument, **keywords)
        p.set_defaults(**defaults, parser=p)
    return parser


def _needs_x(args: Namespace) -> bool:
    """Whether ``args`` asks derive for a pointwise route without its point."""
    return args.command == "derive" and ROUTES[args.method][0] == "pointwise" and args.x is None


def _read(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace that the parser makes of a plain command line, without
    argparse, and without its ``parser``; None for any other ``argv``.

    A plain command line is a command, its positionals, none of them
    starting with ``-``, and then its options, each at most once and
    written ``--name=value`` with ``name`` in full.  Each value goes through
    its argument's reader or choices, and one that is refused makes the
    line not plain, so argparse reads it and prints the error."""
    if not argv or argv[0] not in COMMANDS:
        return None
    command, *given = argv
    arguments = _arguments(command)
    count = next((i for i, text in enumerate(given) if text.startswith("-")), len(given))
    names = [name for name in arguments if not name.startswith("-")]
    if count > len(names):
        return None
    texts = dict(zip(names, given[:count]))
    for text in given[count:]:
        name, equals, value = text.partition("=")
        if not (equals and name.startswith("--") and name in arguments) or name in texts:
            return None
        texts[name] = value
    namespace: dict[str, object] = {"command": command}
    for name, keywords in arguments.items():
        dest = name.lstrip("-")
        if name not in texts:
            if not (name.startswith("-") or keywords.get("nargs") == "?"):
                return None
            namespace[dest] = keywords.get("default")
            continue
        try:
            value = keywords.get("type", str)(texts[name])
        except ValueError:
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        namespace[dest] = value
    args = SimpleNamespace(**namespace, **COMMANDS[command][2])
    return None if _needs_x(args) else args


def _parse(argv: Sequence[str]) -> Namespace:
    """The parser's namespace of ``argv``; a usage error or help exits."""
    # --help writes and flushes inside parse_args.
    args = build_parser().parse_args(argv)
    if _needs_x(args):
        args.parser.error(f"--method={args.method} evaluates pointwise and needs --x")
    return args


def main(argv: Sequence[str] | None = None) -> int:
    """Run the command that ``argv`` (default: ``sys.argv[1:]``) names and
    return its exit code.  A plain command line is read without argparse
    (``_read``); anything else gets the parser (``_parse``)."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _read(argv)
        if args is None:
            args = _parse(argv)
        return _resolve(("commands", args.handler))(args)
    except (MemoryError, OverflowError) as exc:
        # An order that passes the parser but whose lists the process cannot
        # hold, or whose length does not fit an index.
        print(f"error: input too large to compute ({type(exc).__name__})", file=sys.stderr)
        return 2
    except Exception as exc:
        # Exit 1 is reserved for a mathematical mismatch.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
