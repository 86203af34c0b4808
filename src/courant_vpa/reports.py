"""Violation reports shared by all axiom checkers.

Checkers never raise on a failed identity; they return a CheckReport whose
emptiness is the pass/fail signal.  Each violation records which identity
broke, at which basis tuple, and both evaluated sides, so a failure is
debuggable straight from the report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True, order=True)
class Violation:
    module: str
    axiom: str
    tuple: tuple[str, ...]
    lhs: str
    rhs: str

    def to_json(self) -> dict:
        return {
            "module": self.module,
            "axiom": self.axiom,
            "tuple": list(self.tuple),
            "lhs": self.lhs,
            "rhs": self.rhs,
        }

    def __str__(self) -> str:
        return "%s/%s at (%s): lhs=%s rhs=%s" % (
            self.module,
            self.axiom,
            ", ".join(self.tuple),
            self.lhs,
            self.rhs,
        )


class CheckReport:
    """A canonically sorted list of violations; empty means pass."""

    def __init__(self, violations: Iterable[Violation] = ()):
        self.violations = tuple(sorted(violations))

    @property
    def passed(self) -> bool:
        return not self.violations

    def merge(self, *others: "CheckReport") -> "CheckReport":
        vs = list(self.violations)
        for o in others:
            vs.extend(o.violations)
        return CheckReport(vs)

    def axioms(self) -> set[str]:
        return {v.axiom for v in self.violations}

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "violations": [v.to_json() for v in self.violations],
        }

    def summary(self, limit: int = 10) -> str:
        if self.passed:
            return "pass"
        lines = ["%d violation(s)" % len(self.violations)]
        for v in self.violations[:limit]:
            lines.append("  " + str(v))
        if len(self.violations) > limit:
            lines.append("  ... %d more" % (len(self.violations) - limit))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return "CheckReport(passed=%s, n=%d)" % (self.passed, len(self.violations))

