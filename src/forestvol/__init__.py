"""Certified volume approximation for polytopes of the form
{x in [0, 1/2+delta]^V : x_u + x_v <= 1 for uv in E}.

The certified path is exact rational arithmetic end to end: polymer
weights by a subset DP over the |z| order, Taylor coefficients of log p
summed over the isomorphism classes of the small connected induced
subgraphs, each class expanded once as a polymer gas, and a zero-free disk
that turns a truncated series into a (1 +- eps) enclosure. Randomized and
exact oracles live in :mod:`forestvol.oracles`; Monte Carlo and
exact_volume, a DP over the independent sets of the graph, share no code
with the pipeline.

``import forestvol`` loads only the modules a volume query runs: graphs,
treeweight, coeffs, canon and interpolate, on the standard library alone
(interpolate's certificate and enclosure run on decimal; mpmath is only
the tests' oracle).  The oracle names
(exact_volume, exact_p1, mc_volume, penrose_check, root_check and their
report types) and KERNEL_BACKEND are in ``__all__`` but load their module,
:mod:`forestvol.oracles` or :mod:`forestvol.kernel`, on first access
(PEP 562).  The labelling kernel is otherwise loaded by the first
canon.code_key or colored_canonical_form, and numpy only by the first
Monte Carlo estimate: root_check decides where the zeros lie in exact
integer arithmetic.  The import generates no code and loads none of
dataclasses, inspect or typing: the record types are slotted classes on
:class:`forestvol.record.Record`.
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

__version__ = "0.1.0"

_ORACLE_NAMES = frozenset(
    {
        "McEstimate",
        "PenroseReport",
        "RootReport",
        "exact_p1",
        "exact_volume",
        "mc_volume",
        "penrose_check",
        "root_check",
    }
)


def __getattr__(name: str):
    """Load the oracles or the labelling kernel on first access to one of
    their public names."""
    if name == "KERNEL_BACKEND":
        from .kernel import BACKEND as value
    elif name in _ORACLE_NAMES:
        from . import oracles

        value = getattr(oracles, name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _ORACLE_NAMES | {"KERNEL_BACKEND"})


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
