"""The ``CheckReport`` that every check fills: the three identity sweeps in
``identities`` and ``crosscheck`` in ``arctan``.

A module of its own, so that ``crosscheck`` compiles no sweep to report.
"""

from __future__ import annotations

import time
from typing import Any, Iterator

from .digits import _lowest, _ratio_str

__all__ = ["CheckReport", "FAILURES_KEPT"]

_JSON_SAFE = (bool, int, str, type(None))


def _rendered(value: Any) -> Any:
    """A failure context's value, JSON-safe: an int pair by the exact text
    of its lowest terms (one whose denominator is 0 unreduced, as p/0), any
    other value that json cannot hold by str()."""
    if isinstance(value, _JSON_SAFE):
        return value
    if type(value) is tuple and len(value) == 2 and type(value[0]) is type(value[1]) is int:
        return _ratio_str(*_lowest(*value)) if value[1] else _ratio_str(*value)
    return str(value)


FAILURES_KEPT = 20
"""How many failure contexts a report keeps; later mismatches are only counted."""


class CheckReport:
    """Outcome of one sweep: parameters, case and mismatch counts, and the
    contexts of the first FAILURES_KEPT mismatches, rendered in the CLI's
    formats by ``text()``, ``to_dict()`` (json) and ``rows()`` (csv).

    A context holds a rational as an int (numerator, denominator) pair.  A
    kept context is reduced and rendered JSON-safe ("p/q" by ``digits``, at
    any size), so a report serializes as-is; later mismatches are only
    counted, so time and memory stay bounded when every case fails.
    ``started`` is the ``time.perf_counter()`` of its construction, which
    each check reaches once it has imported what it runs: the CLI's cost
    line is timed from it.
    """

    HEADER = ("check", "n_max", "cases", "failures", "passed")  # the csv header

    def __init__(self, check: str, parameters: dict[str, Any], expected: int) -> None:
        self.started = time.perf_counter()
        self.check = check
        self.parameters = parameters
        self.expected = expected
        self.cases = self.mismatches = 0
        self.failures: list[dict[str, Any]] = []

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def count_case(self, ok: bool, **context: Any) -> None:
        """Record one checked case; keep the rendered context of the first
        FAILURES_KEPT mismatches."""
        self.cases += 1
        if not ok:
            self._mismatch(context)

    def _mismatch(self, context: dict[str, Any]) -> None:
        self.mismatches += 1
        if len(self.failures) < FAILURES_KEPT:
            self.failures.append({k: _rendered(v) for k, v in context.items()})

    def close(self, n: int) -> CheckReport:
        """End a sweep whose kernel's last n was ``n``: one mismatch of kind
        "coverage", which is not a case, unless n is n_max and the cases
        number ``expected``."""
        if n != self.parameters["n_max"] or self.cases != self.expected:
            context = {"n": n, "kind": "coverage", "cases": self.cases, "expected": self.expected}
            self._mismatch(context)
        return self

    def to_dict(self) -> dict[str, Any]:
        """The json document."""
        return {
            "check": self.check,
            **self.parameters,
            "cases": self.cases,
            "mismatches": self.mismatches,
            "failures": self.failures,
            "passed": self.passed,
        }

    def text(self) -> Iterator[str]:
        """The text form in pieces: a summary line (list parameters comma-joined,
        as the CLI takes them), a MISMATCH line per kept context, a count of the rest."""
        params = " ".join(
            f"{k}={','.join(map(str, v)) if isinstance(v, list) else v}"
            for k, v in self.parameters.items()
        )
        status = "PASS" if self.passed else f"FAIL ({self.mismatches} mismatches)"
        yield f"{self.check}: {params} cases={self.cases} {status}"
        for failure in self.failures:
            yield "\n  MISMATCH " + " ".join(f"{k}={v}" for k, v in failure.items())
        hidden = self.mismatches - len(self.failures)
        if hidden:
            yield f"\n  ... {hidden} more mismatches not shown"

    def rows(self) -> Iterator[tuple[Any, ...]]:
        """The csv rows: the summary row, then failure,<i>,<key>,<value> per field."""
        yield self.check, self.parameters["n_max"], self.cases, self.mismatches, self.passed
        for i, failure in enumerate(self.failures, 1):
            for field in failure.items():
                yield ("failure", i, *field)
