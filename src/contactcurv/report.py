"""Structured pass/fail records for verification runs.

A report holds its checks as blocks of rows over a stack of sample points,
each row one check with its residual (or value), tolerance and outcome at
every point; its records are the blocks in order, each point by point.
Serialization is deterministic: fixed key order, floats written through a
lossless round-trip format so reports are diffable.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np


class CheckRecord:
    name: str
    detail: str
    point: Optional[tuple]
    value: float
    tolerance: Optional[float]
    passed: bool

    def __init__(self, name, detail, point=None, value=0.0, tolerance=None, passed=True):
        self.name, self.detail, self.point = name, detail, point
        self.value, self.tolerance, self.passed = value, tolerance, passed

    def __repr__(self):
        return f"CheckRecord({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"


class Block(NamedTuple):
    """Rows of checks over one stack of points."""

    points: tuple          # the stack; a point may be None
    heads: tuple           # (name, detail, tolerance) of each row
    values: np.ndarray     # [point, row]
    passed: np.ndarray     # [point, row]


class Report:
    manifold: str
    conventions: dict
    blocks: list[Block]

    def __init__(self, manifold, conventions=None):
        self.manifold, self.conventions, self.blocks = manifold, conventions or {}, []

    def add_rows(self, points: Sequence, rows: Iterable[tuple]) -> None:
        """Record ``rows``, each (name, detail, values, tolerance) or (name,
        detail, values, tolerance, passed), over the stack ``points``, with
        values[p] and passed[p] at points[p].  Without pass flags a row
        passes where |value| <= tolerance, and everywhere when the tolerance
        is None."""
        rows = tuple(rows)
        if not len(points) or not rows:
            return
        values = np.array([row[2] for row in rows], dtype=float)
        values = values.reshape(len(rows), len(points)).T
        tolerances = np.array([np.inf if row[3] is None else row[3] for row in rows], dtype=float)
        passed = np.abs(values) <= tolerances
        for r, row in enumerate(rows):
            if len(row) > 4:
                passed[:, r] = row[4]
            elif row[3] is None:  # a NaN passes too
                passed[:, r] = True
        self.blocks.append(Block(tuple(points), tuple((row[0], row[1], row[3]) for row in rows),
                                 values, passed))

    def add(self, name: str, detail: str, value: float, tolerance: Optional[float],
            point: Optional[tuple] = None, passed: Optional[bool] = None) -> None:
        """Record one check at one point, as a block of one row."""
        flags = () if passed is None else ((passed,),)
        self.add_rows((point,), ((name, detail, (value,), tolerance, *flags),))

    @property
    def checks(self) -> tuple[CheckRecord, ...]:
        """Every check record, built from the rows on each access."""
        return tuple(CheckRecord(name, detail, point, value, tol, ok) for b in self.blocks
                     for point, values, passed in zip(b.points, b.values.tolist(),
                                                      b.passed.tolist())
                     for (name, detail, tol), value, ok in zip(b.heads, values, passed))

    @property
    def passed(self) -> bool:
        return all(b.passed.all() for b in self.blocks)

    @property
    def failures(self) -> list[CheckRecord]:
        return [c for c in self.checks if not c.passed]

    def summary(self) -> dict:
        total = sum(b.passed.size for b in self.blocks)
        passed = sum(int(b.passed.sum()) for b in self.blocks)
        return {"total": total, "passed": passed, "failed": total - passed}

    def to_json(self) -> str:
        """``json.dumps(report_dict(self), indent=2)``, byte for byte, with the
        test reference ``tests/oracles.report_dict``.  With an indent,
        :mod:`json` runs its pure-Python encoder, so the check records, nearly
        all of the output, are written from the rows: each distinct value
        formatted once, keyed on its bits so that 0.0, -0.0 and NaNs stay
        apart, each row's name, detail and tolerance written once per block by
        :func:`_scalar`, and all records as one list of pieces, joined once."""
        top = json.dumps({"manifold": self.manifold, "conventions": self.conventions,
                          "summary": self.summary()}, indent=2)[:-2]
        if not self.blocks:
            return f'{top},\n  "checks": []\n}}'
        bits = np.concatenate([b.values.ravel() for b in self.blocks]).view(np.uint64)
        distinct, which = np.unique(bits, return_inverse=True)
        values = json.dumps(distinct.view(float).tolist())[1:-1].split(", ")
        pieces = [f'{top},\n  "checks": ['] + [None] * (4 * bits.size) + ["\n  ]\n}"]
        pieces[3:-1:4] = map(values.__getitem__, which.tolist())
        heads, points, tails = [], [], []
        for b, texts in zip(self.blocks, _point_texts(
                self.blocks, lambda point: f'{_json_point(point)},\n      "value": ')):
            heads += [f',\n    {{\n      "name": {_scalar(name)},\n      "detail": '
                      f'{_scalar(detail)},\n      "point": '
                      for name, detail, _ in b.heads] * len(texts)
            points += chain.from_iterable(zip(*[texts] * len(b.heads)))
            # row r ends in ends[2 r + 1] where it passes and in ends[2 r] where it fails
            ends = [f',\n      "tolerance": {_scalar(tol)},\n      "passed": {flag}\n    }}'
                    for _, _, tol in b.heads for flag in ("false", "true")]
            tails += map(ends.__getitem__, (b.passed + np.arange(0, len(ends), 2)).ravel().tolist())
        pieces[1:-1:4], pieces[2:-1:4], pieces[4:-1:4] = heads, points, tails
        pieces[1] = heads[0][1:]  # no comma before the first record
        return "".join(pieces)

    def to_text(self) -> str:
        lines = [f"manifold: {self.manifold}"]
        if self.conventions:
            pairs = ", ".join(f"{k}={v}" for k, v in self.conventions.items())
            lines.append(f"conventions: {pairs}")
        width = max((len(name) for b in self.blocks for name, _, _ in b.heads), default=0)
        for b, ats in zip(self.blocks, _point_texts(self.blocks, _fmt_at)):
            rows = [(f"  FAIL {name:<{width}}  ", f"  ok   {name:<{width}}  ",
                     "" if tol is None else f"  (tol {tol:g})") for name, _, tol in b.heads]
            keys = [(row, at) for at in ats for row in rows]
            lines += [f"{row[ok]}{value: .3e}{row[2]}{at}" for (row, at), value, ok
                      in zip(keys, b.values.ravel().tolist(), b.passed.ravel().tolist())]
        s = self.summary()
        lines.append(f"{s['passed']}/{s['total']} checks passed")
        return "\n".join(lines)


def _point_texts(blocks: list[Block], fmt) -> list[list[str]]:
    """``fmt`` of the points of each block, called once per point: keyed by
    identity, since equal tuples such as (0.0,) and (-0.0,) are written
    differently."""
    texts = {id(p): p for b in blocks for p in b.points}
    texts = {key: fmt(p) for key, p in texts.items()}
    return [[texts[id(p)] for p in b.points] for b in blocks]


def _fmt_at(point: Optional[Iterable[float]]) -> str:
    return "" if point is None else "  at (" + ", ".join(f"{v:.3g}" for v in point) + ")"


def _scalar(value) -> str:
    """``json.dumps(value)`` for a row's name, detail or tolerance: a string
    through the escaping function ``json.dumps`` ends in, a finite float
    through its repr and None as null, without the encoder ``json.dumps``
    builds on every call."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    if type(value) is float and math.isfinite(value):
        return float.__repr__(value)
    return "null" if value is None else json.dumps(value)


def _json_point(point) -> str:
    """A record's point as json.dumps(list(point), indent=2) writes it in the
    report; a point of finite floats is written directly, since json's
    indenting encoder is pure Python."""
    if point is None:
        return "null"
    try:
        text = ",\n        ".join(map(float.__repr__, point))
        if text and "n" not in text:  # json writes nan and inf as NaN and Infinity
            return f"[\n        {text}\n      ]"
    except TypeError:  # a value that is no float
        pass
    return json.dumps(list(point), indent=2).replace("\n", "\n      ")
