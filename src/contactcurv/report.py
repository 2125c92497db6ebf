"""Structured pass/fail records for verification runs.

A report collects one record per check per sample point, each carrying the
measured residual (or value), the tolerance it was held to, and the outcome.
Serialization is deterministic: fixed key order, floats written through a
lossless round-trip format so reports are diffable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional


@dataclass
class CheckRecord:
    name: str
    detail: str
    point: Optional[tuple] = None
    value: float = 0.0
    tolerance: Optional[float] = None
    passed: bool = True

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "detail": self.detail,
            "point": list(self.point) if self.point is not None else None,
            "value": self.value,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


@dataclass
class Report:
    manifold: str
    conventions: dict = field(default_factory=dict)
    checks: list[CheckRecord] = field(default_factory=list)

    def add(self, name: str, detail: str, value: float, tolerance: Optional[float],
            point: Optional[tuple] = None, passed: Optional[bool] = None) -> CheckRecord:
        if passed is None:
            passed = tolerance is None or abs(value) <= tolerance
        rec = CheckRecord(name, detail, point, float(value), tolerance, bool(passed))
        self.checks.append(rec)
        return rec

    def extend(self, other: "Report") -> None:
        self.checks.extend(other.checks)
        for key, val in other.conventions.items():
            self.conventions.setdefault(key, val)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[CheckRecord]:
        return [c for c in self.checks if not c.passed]

    def summary(self) -> dict:
        failed = len(self.failures)
        return {"total": len(self.checks), "passed": len(self.checks) - failed,
                "failed": failed}

    def to_dict(self) -> dict:
        return {
            "manifold": self.manifold,
            "conventions": self.conventions,
            "summary": self.summary(),
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self) -> str:
        lines = [f"manifold: {self.manifold}"]
        if self.conventions:
            pairs = ", ".join(f"{k}={v}" for k, v in self.conventions.items())
            lines.append(f"conventions: {pairs}")
        width = max((len(c.name) for c in self.checks), default=0)
        for c in self.checks:
            mark = "ok  " if c.passed else "FAIL"
            at = "" if c.point is None else "  at " + _fmt_point(c.point)
            tol = "" if c.tolerance is None else f"  (tol {c.tolerance:g})"
            lines.append(f"  {mark} {c.name:<{width}}  {c.value: .3e}{tol}{at}")
        s = self.summary()
        lines.append(f"{s['passed']}/{s['total']} checks passed")
        return "\n".join(lines)


def _fmt_point(point: Iterable[float]) -> str:
    return "(" + ", ".join(f"{v:.3g}" for v in point) + ")"
