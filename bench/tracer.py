"""Span tracer that instruments contactcurv from outside.

Each traced layer is a module attribute (or class method) replaced by a
wrapper that records a span: name, start, end, parent span and request id.
Other modules resolve these names through their module globals at call
time (``rm.geometry_at``, ``cpm.validate_structure``, the recursive
``el.evaluate``), so one patch catches every caller.  ``installed()``
restores every original attribute when it exits.

Counters sit at the same boundaries: expression nodes evaluated (every
``evaluate`` call, at any depth), symbolic ``derive`` calls, ``__hash__``
calls on expression nodes, ``Jet2`` operations and report checks recorded.

Spans are kept in memory and written out at the end.  Their times are
process CPU time, like the benchmark's request times.  A span's self time
is its duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import gzip
import time
from collections import Counter
from typing import Callable, NamedTuple

from contactcurv import bochner as bm
from contactcurv import cli
from contactcurv import contactpair as cpm
from contactcurv import exprlang as el
from contactcurv import report as rp
from contactcurv import riemann as rm
from contactcurv.jets import Jet2


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 at the top of a request
    request: int


# span name -> (owner, attribute names); one span name may cover several
# attributes (the CLI commands, the two report serializers)
SPAN_TARGETS: dict[str, tuple[object, tuple[str, ...]]] = {
    "cli.load_manifold": (cli, ("load_manifold",)),
    "cli.cmd": (cli, ("cmd_verify", "cmd_check", "cmd_tensor")),
    "report.serialize": (rp.Report, ("to_json", "to_text")),
    "riemann.eval_field": (rm, ("eval_field",)),
    "riemann.geometry_at": (rm, ("geometry_at",)),
    "riemann.weyl": (rm, ("weyl",)),
    "riemann.orthonormal_frame": (rm, ("orthonormal_frame",)),
    "contactpair.structure_at": (cpm, ("structure_at",)),
    "contactpair.validate_structure": (cpm, ("validate_structure",)),
    "contactpair.check_contact_pair": (cpm, ("check_contact_pair",)),
    "contactpair.lemma_suite": (cpm, ("lemma_suite",)),
    "contactpair.exterior_derivative": (cpm, ("exterior_derivative",)),
    "bochner.bochner": (bm, ("bochner",)),
    "bochner.context": (bm, ("context",)),
    "bochner.conformal_invariance_check": (bm, ("conformal_invariance_check",)),
}

# outermost evaluate calls are spans (they include the jet arithmetic they
# drive); every call, at any depth, counts one expression node
EVALUATE_SPAN = "exprlang.evaluate"

JET_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
           "__truediv__", "__rtruediv__", "__neg__", "__pow__",
           "sin", "cos", "tan", "exp", "log", "sqrt")

EXPR_NODE_TYPES = (el.Const, el.Sym, el.Neg, el.Bin, el.Fn)


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.request = 0
        self._stack: list[int] = []
        self._eval_depth = 0

    # wrappers ------------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.process_time(), 0.0, parent, self.request))
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        end = time.process_time()
        self._stack.pop()
        self.spans[sid] = self.spans[sid]._replace(end=end)

    def spanned(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            sid = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)
        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _evaluate(self, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(e, env):
            counts["exprlang.nodes"] += 1
            if self._eval_depth:
                return fn(e, env)
            sid = self._open(EVALUATE_SPAN)
            self._eval_depth = 1
            try:
                return fn(e, env)
            finally:
                self._eval_depth = 0
                self._close(sid)
        wrapper.__wrapped__ = fn
        return wrapper

    # installation ----------------------------------------------------------

    def _patches(self) -> list[tuple[object, str, Callable]]:
        out = []
        for name, (owner, attrs) in SPAN_TARGETS.items():
            for attr in attrs:
                out.append((owner, attr, self.spanned(name, getattr(owner, attr))))
        out.append((el, "evaluate", self._evaluate(el.evaluate)))
        out.append((el, "derive", self.counted("exprlang.derive", el.derive)))
        out.append((rp.Report, "add", self.counted("report.checks", rp.Report.add)))
        for cls in EXPR_NODE_TYPES:
            out.append((cls, "__hash__",
                        self.counted("exprlang.node_hashes", cls.__hash__)))
        for op in JET_OPS:
            out.append((Jet2, op, self.counted("jets.ops", getattr(Jet2, op))))
        return out

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced attribute for the duration of the block."""
        saved = []
        try:
            for owner, attr, wrapper in self._patches():
                # the class __dict__ entry, so a restored class is unchanged
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it covered by its children.

    Child intervals are clipped to the parent and overlapping children are
    counted once.
    """
    covered = [0.0] * len(spans)
    reach = [float("-inf")] * len(spans)  # end of the children merged so far
    for i in sorted(range(len(spans)), key=lambda k: spans[k].start):
        s = spans[i]
        p = s.parent
        if p < 0:
            continue
        parent = spans[p]
        lo = max(s.start, parent.start, reach[p])
        hi = min(s.end, parent.end)
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach[p], hi)
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def layer_totals(spans: list[Span]) -> dict[str, tuple[float, int]]:
    """Span name -> (total self time in seconds, number of spans)."""
    out: dict[str, list] = {}
    for s, own in zip(spans, self_times(spans)):
        acc = out.setdefault(s.name, [0.0, 0])
        acc[0] += own
        acc[1] += 1
    return {name: (t, n) for name, (t, n) in out.items()}


def write_spans(spans: list[Span], path: str) -> None:
    """Write every span with its self time as gzip-compressed TSV."""
    own = self_times(spans)
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("id\tname\tstart\tend\tparent\trequest\tself\n")
        for i, (s, t) in enumerate(zip(spans, own)):
            fh.write(f"{i}\t{s.name}\t{s.start!r}\t{s.end!r}\t{s.parent}\t"
                     f"{s.request}\t{t!r}\n")
