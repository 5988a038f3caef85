"""The one emitter of the CLI: ``_emit`` prints every result as text, a
json document or a csv table, streamed to stdout term by term, with every
number rendered at any size by ``exact_str`` (no int -> str digit limit).

The command handlers in ``commands`` print through it, and ``cli`` takes
stdout for help from ``_stdout``.  json and csv are written here, without
the stdlib modules: ``json`` loads only to quote a string that holds a
character json escapes (``_quote``), which no command prints, and csv rows
follow csv's QUOTE_MINIMAL rule (``_csv_field``).
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .digits import exact_str

if TYPE_CHECKING:
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


def _stdout():
    """sys.stdout, for a result or help.  A process started with fd 1 closed
    has None there: that raises the OSError of a failed write instead."""
    if sys.stdout is None:
        import errno
        raise OSError(errno.EBADF, "stdout is closed")
    return sys.stdout


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
