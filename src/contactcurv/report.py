"""Structured pass/fail records for verification runs.

A report collects one record per check per sample point, each carrying the
measured residual (or value), the tolerance it was held to, and the outcome.
Serialization is deterministic: fixed key order, floats written through a
lossless round-trip format so reports are diffable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Iterable, Optional

# how json.dumps spells the floats that JSON itself has no literal for
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


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
        """``json.dumps(self.to_dict(), indent=2)``, byte for byte.  With an
        indent, :mod:`json` runs its pure-Python encoder, so the check
        records, nearly all of the output, are written directly."""
        head = json.dumps({"manifold": self.manifold, "conventions": self.conventions,
                           "summary": self.summary()}, indent=2)
        checks = f"[{_records(self.checks)}\n  ]" if self.checks else "[]"
        return f'{head[:-2]},\n  "checks": {checks}\n}}'

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


# --- check records in the layout of json.dumps(indent=2) ------------------------

def _scalar(v) -> str:
    """One JSON scalar as json.dumps writes it."""
    if isinstance(v, float):
        text = float.__repr__(v)
        return _NONFINITE.get(text, text)
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _records(checks: list[CheckRecord]) -> str:
    """The check records as items of the report's "checks" list."""
    # the records of one point share its tuple, so its text is built once;
    # keyed by identity, since equal tuples such as (0.0,) and (-0.0,) are
    # written differently
    points: dict[int, str] = {}
    out = []
    for c in checks:
        point = points.get(id(c.point))
        if point is None:
            point = points[id(c.point)] = json.dumps(
                c.to_dict()["point"], indent=2).replace("\n", "\n      ")
        out.append(f'\n    {{\n      "name": {_scalar(c.name)},'
                   f'\n      "detail": {_scalar(c.detail)},'
                   f'\n      "point": {point},'
                   f'\n      "value": {_scalar(c.value)},'
                   f'\n      "tolerance": {_scalar(c.tolerance)},'
                   f'\n      "passed": {_scalar(c.passed)}\n    }}')
    return ",".join(out)
