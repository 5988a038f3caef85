"""Structured pass/fail reports shared by all verification sweeps."""

from __future__ import annotations

from fractions import Fraction
from typing import Any

from .polynomial import exact_str

__all__ = ["CheckReport", "FAILURES_KEPT"]

_JSON_SAFE = (bool, int, str, type(None))


def _rendered(value: Any) -> Any:
    if isinstance(value, _JSON_SAFE):
        return value
    return exact_str(value) if isinstance(value, Fraction) else str(value)


FAILURES_KEPT = 20
"""How many failure contexts a report keeps; later mismatches are only counted."""


class CheckReport:
    """Outcome of one sweep: parameters, case and mismatch counts, and the
    contexts of the first FAILURES_KEPT mismatches.

    Failure contexts are flat dicts of JSON-safe values (exact rationals are
    rendered as "p/q" strings by ``exact_str``, at any size), so a report
    serializes as-is.  Memory stays bounded when every case fails, because
    later mismatches are counted without being rendered.
    """

    def __init__(self, check: str, parameters: dict[str, Any]) -> None:
        self.check = check
        self.parameters = parameters
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
            self.mismatches += 1
            if len(self.failures) < FAILURES_KEPT:
                self.failures.append({k: _rendered(v) for k, v in context.items()})

    def to_dict(self) -> dict[str, Any]:
        return {
            "check": self.check,
            **self.parameters,
            "cases": self.cases,
            "mismatches": self.mismatches,
            "failures": self.failures,
            "passed": self.passed,
        }

    def summary(self) -> str:
        """One line; list parameters are comma-joined, as the CLI takes them."""
        params = " ".join(
            f"{k}={','.join(map(str, v)) if isinstance(v, list) else v}"
            for k, v in self.parameters.items()
        )
        status = "PASS" if self.passed else f"FAIL ({self.mismatches} mismatches)"
        return f"{self.check}: {params} cases={self.cases} {status}"
