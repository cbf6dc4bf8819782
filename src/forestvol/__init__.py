"""Certified volume approximation for polytopes of the form
{x in [0, 1/2+delta]^V : x_u + x_v <= 1 for uv in E}.

The certified path is exact rational arithmetic end to end: class weights
by a subset DP over the |z| order, Taylor coefficients of log p via
pattern counts, and a zero-free disk that turns a truncated series into a
(1 +- eps) enclosure. Randomized and exact oracles live in
:mod:`forestvol.oracles`; Monte Carlo and exact_volume, a DP over the
independent sets of the graph, share no code with the pipeline.
"""

from .errors import (
    CertificateError,
    DeltaTooLargeError,
    GraphParseError,
    SizeGuardError,
)
from .graphs import Graph, Tree, parse_graph, format_graph, tree_from_edges
from .treeweight import DeltaParams, TreeWeightRecord, tree_weight, hat_w
from .coeffs import TaylorCoeffs, assemble_a, small_e, newton_exp, newton_log
from .interpolate import (
    InterpolationResult,
    RadiusCertificate,
    approximate_volume,
    max_admissible_delta,
    truncation_order,
    zero_free_radius,
)
from .oracles import (
    McEstimate,
    PenroseReport,
    RootReport,
    exact_p1,
    exact_volume,
    mc_volume,
    penrose_check,
    root_check,
)
from .kernel import BACKEND as KERNEL_BACKEND

__version__ = "0.1.0"

__all__ = [
    "CertificateError",
    "DeltaParams",
    "DeltaTooLargeError",
    "Graph",
    "GraphParseError",
    "InterpolationResult",
    "KERNEL_BACKEND",
    "McEstimate",
    "PenroseReport",
    "RadiusCertificate",
    "RootReport",
    "SizeGuardError",
    "TaylorCoeffs",
    "Tree",
    "TreeWeightRecord",
    "approximate_volume",
    "assemble_a",
    "exact_p1",
    "exact_volume",
    "format_graph",
    "hat_w",
    "max_admissible_delta",
    "mc_volume",
    "newton_exp",
    "newton_log",
    "parse_graph",
    "penrose_check",
    "root_check",
    "small_e",
    "tree_from_edges",
    "tree_weight",
    "truncation_order",
    "zero_free_radius",
    "__version__",
]
