"""The benchmark's workloads: seeded requests and their correctness gates.

A workload is a list of cycles; a cycle is one pass over the workload's
input mix, and the run repeats cycles (``cycles[c % len(cycles)]``) until
its time is up, always finishing the cycle it is in, so every run measures
the same mix.  Each request is one ``contactcurv`` command line; its gate
returns ``None`` when the output is correct and a one-line reason when not.
"""

from __future__ import annotations

import json
import math
import os
import statistics
from dataclasses import dataclass
from typing import Callable, Optional

import inputs

# checks per sample point in `verify --suite all` (definitions 18, lemmas 13,
# theorem 1 and theorem 2 by the entry's expected flatness); a report also
# carries one point-free dimension check
VERIFY_CHECKS_PER_POINT = {
    "hopf:1": 39,
    "hopf:2": 39,
    "sphere_product:1,1": 35,
    "heisenberg_r": 33,
}

TENSORS = ("riemann", "weyl", "star-ricci", "bochner-j", "bochner-t")
NESTED_HOPF_M = (1, 2, 3, 4)

# sup-norm bounds of the tensors that vanish on the round model
VANISHING_BOUNDS = {"weyl": 1e-8, "bochner-j": 1e-6, "bochner-t": 1e-6}

CATALOG_POINTS = 5
DENSE_POINTS = 50
TENSOR_POINT_POOL = 8


Gate = Callable[[int, str], Optional[str]]


@dataclass(frozen=True)
class Request:
    key: str                # input class: requests with one key cost the same
    argv: tuple[str, ...]
    points: int             # sample points the request carries
    gate: Gate


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_json(text: str):
    """Parse RFC 8259 JSON; NaN and Infinity are rejected."""
    return json.loads(text, parse_constant=_reject_constant)


def verify_gate(expected_total: int) -> Gate:
    def gate(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        try:
            report = strict_json(out)
        except ValueError as exc:
            return f"bad JSON: {exc}"
        checks = report["checks"]
        failed = [c["name"] for c in checks if c["passed"] is not True]
        if failed:
            return f"failed checks {sorted(set(failed))}"
        summary = report["summary"]
        if (len(checks), summary["total"], summary["passed"], summary["failed"]) \
                != (expected_total, expected_total, expected_total, 0):
            return f"summary {summary} with {len(checks)} checks, " \
                   f"expected {expected_total} passed"
        return None
    return gate


def tensor_gate(m: int, what: str) -> Gate:
    tau = 2.0 * m * (2 * m + 1)
    bound = VANISHING_BOUNDS.get(what)

    def gate(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        try:
            summary = strict_json(out)
        except ValueError as exc:
            return f"bad JSON: {exc}"
        if summary["tensor"] != what:
            return f"tensor {summary['tensor']!r}, expected {what!r}"
        if not abs(summary["tau"] - tau) <= 1e-9:
            return f"tau {summary['tau']!r}, expected {tau}"
        if bound is not None and not summary["max_abs_component"] <= bound:
            return f"max |{what}| = {summary['max_abs_component']!r} > {bound}"
        return None
    return gate


def _verify_cycle(keys, count: int, seed: int, workdir: str) -> list[Request]:
    cycle = []
    for salt, key in enumerate(keys):
        path = inputs.export_catalog_entry(key, seed, salt, count, workdir)
        total = 1 + count * VERIFY_CHECKS_PER_POINT[key]
        cycle.append(Request(key, ("verify", path, "--suite", "all", "--format", "json"),
                             count, verify_gate(total)))
    return cycle


def catalog_verify(seed: int, workdir: str) -> list[list[Request]]:
    return [_verify_cycle(tuple(VERIFY_CHECKS_PER_POINT), CATALOG_POINTS, seed, workdir)]


def dense_points(seed: int, workdir: str) -> list[list[Request]]:
    return [_verify_cycle(("hopf:2", "sphere_product:1,1"), DENSE_POINTS, seed, workdir)]


def tensor_queries(seed: int, workdir: str) -> list[list[Request]]:
    pools = {}
    paths = {}
    for m in NESTED_HOPF_M:
        pools[m] = inputs.seeded_points(seed, 100 + m, 2 * m + 2,
                                        inputs.NESTED_HOPF_BOX, TENSOR_POINT_POOL)
        paths[m] = inputs.write_manifold(
            inputs.nested_hopf(m, pools[m]),
            os.path.join(workdir, f"nested_hopf_{m}.json"))
    cycles = []
    for c in range(TENSOR_POINT_POOL):
        cycle = []
        for m in NESTED_HOPF_M:
            at = ",".join(repr(v) for v in pools[m][c])
            for what in TENSORS:
                cycle.append(Request(
                    f"d={2 * m + 2} {what}",
                    ("tensor", paths[m], "--what", what, "--at", at, "--format", "json"),
                    1, tensor_gate(m, what)))
        cycles.append(cycle)
    return cycles


WORKLOADS: dict[str, Callable[[int, str], list[list[Request]]]] = {
    "catalog_verify": catalog_verify,
    "dense_points": dense_points,
    "tensor_queries": tensor_queries,
}


# --- statistics -------------------------------------------------------------

def _geometric_mean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def typical_ms(samples: dict[str, list[float]]) -> float:
    """Geometric mean over input classes of each class's median request time.

    The pooled median of a mix of inputs with distinct costs falls in the gap
    between two classes and jumps from run to run; each class median does
    not, and the geometric mean weighs a relative change equally on cheap
    and expensive inputs.
    """
    return _geometric_mean(statistics.median(ts) for ts in samples.values())


def typical_points_per_s(samples: dict[str, list[float]],
                         points: dict[str, int]) -> float:
    """Points of one pass over the input classes per second, each request
    taking its class's median time, so a stall of the host in one request
    does not move the figure."""
    busy_ms = sum(statistics.median(ts) for ts in samples.values())
    return 1000.0 * sum(points[key] for key in samples) / busy_ms


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it, and never below p90: with fewer than 100 samples the
    ten-beyond rule would fall under p90 and measure no tail at all."""
    xs = sorted(values)
    n = len(xs)
    pct = max(90.0, 100.0 * (n - 10) / n)
    return xs[math.ceil(pct * n / 100.0 - 1e-9) - 1], pct
