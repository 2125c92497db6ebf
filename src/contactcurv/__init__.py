"""Chart-level curvature engine and verification suite for normal metric
contact pairs.

The package computes Riemann, Ricci, star-Ricci, Weyl and the two Bochner
tensors of a metric contact pair given in closed-form chart coordinates,
and verifies the defining identities of the structure on built-in model
manifolds and user-supplied manifold files.
"""

from . import bochner, catalog, contactpair, exprlang, jets, report, riemann
from .bochner import CurvatureContext, bochner_pair, conformal_invariance_check
from .contactpair import (
    ContactPairManifold,
    InvalidStructureError,
    check_contact_pair,
    exterior_derivative,
    lemma_suite,
    validate_structure,
)
from .jets import Jet2
from .report import Report
from .riemann import (
    Chart,
    MetricField,
    MetricError,
    OneForm,
    TensorValue,
    VectorField,
    christoffel,
    orthonormal_frame,
    ricci,
    scalar,
    weyl,
)

__version__ = "0.1.0"

__all__ = [
    "CurvatureContext", "Chart", "ContactPairManifold", "InvalidStructureError",
    "Jet2", "MetricError", "MetricField", "OneForm", "Report", "TensorValue",
    "VectorField", "bochner", "bochner_pair", "catalog", "check_contact_pair",
    "christoffel", "cli", "conformal_invariance_check",
    "contactpair", "exprlang", "exterior_derivative", "jets", "lemma_suite",
    "orthonormal_frame", "ricci", "riemann", "scalar", "validate_structure", "weyl",
]
# "riemann" in __all__ names the submodule; the (0,4) curvature function
# stays at contactcurv.riemann.riemann to avoid shadowing it.
