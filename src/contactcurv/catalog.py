"""Built-in model manifolds with closed-form charts.

Every entry is constructed in coordinates where the contact forms and Reeb
fields are closed-form, sampled away from chart degeneracies, and ships
with the table of values the verification suites assert.

* ``hopf(m)``, 1 <= m <= 4: the round sphere S^{2m+1}(1) in nested Hopf
  coordinates crossed with a line, type (m, 0).  Bochner-flat and
  conformally flat model space; ``hopf_entry(m)`` gives its expected values
  as functions of m.
* ``sphere_product(1, 1)``: the Riemannian product of two unit 3-spheres,
  type (1, 1).  Valid structure, not Bochner-flat.
* ``heisenberg_r(1)``: the standard Sasakian structure on the Heisenberg
  group crossed with a line, type (1, 0).  Negative control for both
  flatness properties.
"""

from __future__ import annotations

import inspect
import re
from typing import Optional

import numpy as np

from .contactpair import ContactPairManifold
from .exprlang import Record
from .riemann import MAX_DIM, Chart, MetricField, OneForm, VectorField

# scale constants of the Heisenberg entry; the structure equations force
# b = s * a for the exterior-derivative factor s = 1/2
HEISENBERG_A = 1.0
HEISENBERG_B = 0.5

# largest hopf(m), whose chart has d = 2m + 2 coordinates
HOPF_MAX_M = (MAX_DIM - 2) // 2


def _sample_points(seed: int, lows, highs, count: int = 5):
    lows = np.asarray(lows, dtype=float)
    highs = np.asarray(highs, dtype=float)
    rng = np.random.default_rng(seed)
    pts = lows + rng.random((count, len(lows))) * (highs - lows)
    return tuple(tuple(float(v) for v in row) for row in pts)


def _square(factors: list[str]) -> str:
    return f"({'*'.join(factors)})^2" if factors else "1"


def hopf(m: int) -> ContactPairManifold:
    """S^{2m+1}(1) x R with its canonical structure of type (m, 0), 1 <= m <= 4.

    Nested Hopf coordinates (eta1..eta_m, xi0..xi_m, t) place the sphere at
    radii r_k = sin(eta1)...sin(eta_k) cos(eta_{k+1}) (no cosine for k = m)
    and phases xi_k, so the round metric is the diagonal
    sum_k h_k deta_k^2 + sum_k r_k^2 dxi_k^2 + dt^2 with
    h_k = sin^2(eta1)...sin^2(eta_{k-1}).  alpha1 = sum_k r_k^2 dxi_k with
    Z1 = sum_k d/dxi_k, and alpha2 = dt with Z2 = d/dt.
    """
    if not 1 <= m <= HOPF_MAX_M:
        raise ValueError(f"hopf is available for m in 1..{HOPF_MAX_M}, not m={m}")
    d = 2 * m + 2
    angles = [f"eta{k}" for k in range(1, m + 1)]
    sines = [f"sin({a})" for a in angles]
    radii2 = [_square(sines[:k] + [f"cos({angles[k]})"]) for k in range(m)]
    radii2.append(_square(sines))
    chart = Chart(
        coords=tuple(angles + [f"xi{k}" for k in range(m + 1)] + ["t"]),
        sample_points=_sample_points(20240300 + m, [0.3] * d, [1.2] * d),
    )
    angular = ["0"] * m
    metric = MetricField.diagonal(
        chart, [_square(sines[:k]) for k in range(m)] + radii2 + ["1"])
    alpha1 = OneForm.of(chart, angular + radii2 + ["0"])
    z1 = VectorField.of(chart, angular + ["1"] * (m + 1) + ["0"])
    dt = ["0"] * (d - 1) + ["1"]
    return ContactPairManifold(f"hopf:{m}", chart, metric, alpha1,
                               OneForm.of(chart, dt), z1,
                               VectorField.of(chart, dt), (m, 0))


def sphere_product(m: int = 1, n: int = 1) -> ContactPairManifold:
    """Riemannian product of two unit 3-spheres, type (1, 1)."""
    if (m, n) != (1, 1):
        raise ValueError("sphere_product is available for m = n = 1")
    chart = Chart(
        coords=("eta", "xi1", "xi2", "mu", "nu1", "nu2"),
        sample_points=_sample_points(20240303, [0.3] * 6, [1.2] * 6),
    )
    metric = MetricField.diagonal(
        chart, ["1", "cos(eta)^2", "sin(eta)^2", "1", "cos(mu)^2", "sin(mu)^2"])
    alpha1 = OneForm.of(chart, ["0", "cos(eta)^2", "sin(eta)^2", "0", "0", "0"])
    z1 = VectorField.of(chart, ["0", "1", "1", "0", "0", "0"])
    alpha2 = OneForm.of(chart, ["0", "0", "0", "0", "cos(mu)^2", "sin(mu)^2"])
    z2 = VectorField.of(chart, ["0", "0", "0", "0", "1", "1"])
    return ContactPairManifold("sphere_product:1,1", chart, metric,
                               alpha1, alpha2, z1, z2, (1, 1))


def heisenberg_r(n: int = 1) -> ContactPairManifold:
    """Heisenberg group with its Sasakian structure, crossed with a line.

    alpha_1 = a (dz - y dx), g = alpha_1^2 + b (dx^2 + dy^2) + dt^2.  The
    scales satisfy b = s a, which is what the phi-square identity demands
    under the pinned exterior-derivative factor.
    """
    if n != 1:
        raise ValueError("heisenberg_r is available for n = 1")
    chart = Chart(
        coords=("x", "y", "z", "t"),
        params=(("a", HEISENBERG_A), ("b", HEISENBERG_B)),
        sample_points=_sample_points(20240304, [-0.8] * 4, [0.8] * 4),
    )
    metric = MetricField.from_entries(chart, {
        (0, 0): "a^2*y^2 + b",
        (0, 2): "-(a^2*y)",
        (1, 1): "b",
        (2, 2): "a^2",
        (3, 3): "1",
    })
    alpha1 = OneForm.of(chart, ["-(a*y)", "0", "a", "0"])
    z1 = VectorField.of(chart, ["0", "0", "1/a", "0"])
    alpha2 = OneForm.of(chart, ["0", "0", "0", "1"])
    z2 = VectorField.of(chart, ["0", "0", "0", "1"])
    return ContactPairManifold("heisenberg_r", chart, metric,
                               alpha1, alpha2, z1, z2, (1, 0))


class CatalogEntry(Record):
    key: str
    description: str
    expected: tuple[tuple[str, object], ...]

    def __init__(self, key, description, expected):
        self.__dict__.update(key=key, description=description, expected=expected)


def hopf_entry(m: int) -> CatalogEntry:
    """Catalog entry of ``hopf(m)``: the values of the unit sphere S^{2m+1}
    crossed with a line, as functions of m."""
    return CatalogEntry(
        f"hopf:{m}",
        f"unit {2 * m + 1}-sphere x line, type ({m},0); Bochner-flat and "
        "conformally flat",
        (
            ("tau", float(2 * m * (2 * m + 1))),
            ("reeb_ricci", (float(2 * m), 0.0)),
            ("scalar_defect", float(4 * m * m)),
            ("horizontal_ricci", float(2 * m)),
            ("horizontal_star_ricci", 1.0),
            ("phi_sectional", 1.0),
            ("bochner_flat", True),
            ("weyl_flat", True),
            ("bochner_reeb_plane", 0.0),
        ),
    )


ENTRIES: tuple[CatalogEntry, ...] = tuple(
    hopf_entry(m) for m in range(1, HOPF_MAX_M + 1)) + (
    CatalogEntry(
        "sphere_product:1,1",
        "product of two unit 3-spheres, type (1,1); not Bochner-flat",
        (
            ("tau", 12.0),
            ("reeb_ricci", (2.0, 2.0)),
            ("scalar_defect", 8.0),
            ("bochner_flat", False),
            ("weyl_flat", False),
            ("bochner_reeb_plane", -0.1),
        ),
    ),
    CatalogEntry(
        "heisenberg_r",
        "Heisenberg group x line, type (1,0); negative control for both "
        "flatness properties",
        (
            ("reeb_ricci", (2.0, 0.0)),
            ("scalar_defect", 4.0),
            ("bochner_flat", False),
            ("weyl_flat", False),
            ("min_bochner_sup", 1e-2),
            ("min_weyl_sup", 1e-2),
        ),
    ),
)


def entry(key: str) -> CatalogEntry:
    for e in ENTRIES:
        if e.key == key:
            return e
    raise KeyError(f"no catalog entry '{key}'")


def resolve(spec: str) -> ContactPairManifold:
    """Build a catalog manifold from an address like ``hopf:2`` or
    ``sphere_product:1,1``; a bare name uses its default parameters.  An
    address that names no builder, or gives it parameters it does not take,
    raises ``KeyError``, as does a colon with no parameters after it or a
    parameter that is not plain ASCII decimal digits without a leading zero;
    a builder refuses parameters out of its range with ``ValueError``."""
    name, colon, raw = spec.partition(":")
    builder = {"hopf": hopf, "sphere_product": sphere_product,
               "heisenberg_r": heisenberg_r}.get(name)
    params = raw.split(",") if colon else []
    try:
        if not all(re.fullmatch("0|[1-9][0-9]*", p) for p in params):
            raise ValueError(spec)  # no plain decimal numeral
        params = [int(p) for p in params]
        inspect.signature(builder).bind(*params)
    except (TypeError, ValueError):  # no builder, a malformed parameter, too few or too many
        raise KeyError(f"no catalog manifold '{spec}'; catalog keys are hopf:m with "
                       f"m in 1..{HOPF_MAX_M}, sphere_product:1,1 and heisenberg_r") from None
    return builder(*params)


def entry_for(cp_name: str) -> Optional[CatalogEntry]:
    try:
        return entry(cp_name)
    except KeyError:
        return None
