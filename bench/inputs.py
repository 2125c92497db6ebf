"""Seeded inputs for the benchmark: manifold files and sample points.

Every input is generated here from the workload seed; the program under
test only ever sees the manifold files written by these functions and the
argv built around them.

* Catalog entries are exported with ``cli.save_manifold``, their sample
  points replaced by seeded draws from the catalog's own sampling box.  The
  file stem is the catalog key, so the theorem suites find the expected
  values of the entry.
* Nested-Hopf charts S^{2m+1} x R of type (m, 0) for any m >= 1 are built
  from the public expression-language calls ``parse``, ``derive`` and
  ``to_source`` alone.  The round metric is the pullback of
  ``sum_k dr_k^2 + r_k^2 dxi_k^2`` over the radii
  ``r_k = sin(eta_1) ... sin(eta_k) cos(eta_{k+1})`` (the last radius has
  no cosine), with alpha1 = sum_k r_k^2 dxi_k, Z1 = sum_k d/dxi_k and
  alpha2 = Z2 = dt.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np

from contactcurv import catalog, cli
from contactcurv import exprlang as el

# sampling boxes of the catalog entries (see contactcurv.catalog)
CATALOG_BOXES = {
    "hopf:1": (0.3, 1.2),
    "hopf:2": (0.3, 1.2),
    "sphere_product:1,1": (0.3, 1.2),
    "heisenberg_r": (-0.8, 0.8),
}

# nested-Hopf angles stay inside (0, pi/2), where every radius is positive
NESTED_HOPF_BOX = (0.3, 1.2)


def seeded_points(seed: int, salt: int, dim: int, box: tuple[float, float],
                  count: int) -> tuple[tuple[float, ...], ...]:
    """``count`` points drawn uniformly from ``box``^dim; the same
    (seed, salt) always gives the same points."""
    rng = np.random.default_rng([seed, salt])
    lo, hi = box
    pts = lo + rng.random((count, dim)) * (hi - lo)
    return tuple(tuple(float(v) for v in row) for row in pts)


def export_catalog_entry(key: str, seed: int, salt: int, count: int,
                         directory: str) -> str:
    """Write catalog entry ``key`` with ``count`` seeded sample points from
    its sampling box to ``<directory>/<key>.json`` and return the path."""
    cp = catalog.resolve(key)
    points = seeded_points(seed, salt, cp.dim, CATALOG_BOXES[key], count)
    chart = dataclasses.replace(cp.chart, sample_points=points)
    path = os.path.join(directory, f"{key}.json")
    cli.save_manifold(dataclasses.replace(cp, chart=chart), path)
    return path


def _product(factors: list[str]) -> el.Expr:
    return el.parse("*".join(factors) if factors else "1")


def nested_hopf(m: int, points) -> dict:
    """Manifold-file dict of S^{2m+1}(1) x R in nested Hopf coordinates,
    type (m, 0), coordinates (eta1..eta_m, xi0..xi_m, t)."""
    if m < 1:
        raise ValueError(f"nested Hopf charts need m >= 1, not m={m}")
    angles = [f"eta{i + 1}" for i in range(m)]
    phases = [f"xi{k}" for k in range(m + 1)]
    coords = angles + phases + ["t"]
    radii = []
    for k in range(m + 1):
        factors = [f"sin({a})" for a in angles[:k]]
        if k < m:
            factors.append(f"cos({angles[k]})")
        radii.append(_product(factors))
    squares = [el.to_source(el.parse(f"({el.to_source(r)})^2")) for r in radii]

    metric = {}
    for i, ai in enumerate(angles):
        for j in range(i, m):
            terms = [f"({el.to_source(el.derive(r, ai))})"
                     f"*({el.to_source(el.derive(r, angles[j]))})" for r in radii]
            src = el.to_source(el.parse(" + ".join(terms)))
            if src != "0.0":
                metric[f"{i},{j}"] = src
    for k, sq in enumerate(squares):
        metric[f"{m + k},{m + k}"] = sq
    t = 2 * m + 1
    metric[f"{t},{t}"] = "1"

    zeros = ["0"] * (2 * m + 2)
    alpha1 = ["0"] * m + squares + ["0"]
    z1 = ["0"] * m + ["1"] * (m + 1) + ["0"]
    dt = zeros[:-1] + ["1"]
    return {
        "dim": 2 * m + 2,
        "coords": coords,
        "params": {},
        "metric": metric,
        "alpha1": alpha1,
        "alpha2": dt,
        "Z1": z1,
        "Z2": dt,
        "type": [m, 0],
        "sample_points": [list(p) for p in points],
    }


def write_manifold(data: dict, path: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    return path
