"""Neighborhood-degree Zagreb index toolkit.

Compute NM_a and its 2-distance variant, reconstruct them exactly from
degree histograms, evaluate sharp bounds with structural equality
detection, lower-bound the adjacency spectral radius, and verify all of it
exhaustively over every small graph.

The names from ``enumeration`` and ``spectral`` are loaded on first access
(PEP 562), so that importing the package, or running the per-graph CLI
commands ``compute`` and ``bounds``, loads no numpy.
"""

import importlib

from .bounds import (
    BOUND_SOURCES,
    BoundReport,
    CongruenceData,
    congruence_classify,
    nm_bound_congruence,
    nm_bound_secant,
    nm_bound_unit,
    secant_coefficient,
    unit_coefficient,
)
from .graphs import (
    DegreeProfile,
    Graph,
    complete_graph,
    cycle_graph,
    degree_profile,
    diameter,
    encode_graph6,
    is_connected,
    is_path,
    parse_edge_list,
    parse_graph6,
    path_graph,
    star_graph,
)
from .indices import (
    Alpha,
    IndexReport,
    as_alpha,
    chemical_tree_m1,
    first_zagreb,
    general_neighborhood_zagreb,
    index_report,
    nm2_direct,
    nm2_reconstruct_secant,
    nm2_reconstruct_unit,
    nm_direct,
    nm_reconstruct_secant,
    nm_reconstruct_unit,
    secant_slope,
    two_distance_index,
)

# The public names of the two modules that import numpy, each mapped to its
# module, which ``__getattr__`` imports on first access.
_LAZY = {
    "ExtremalRecord": "enumeration",
    "VerificationReport": "enumeration",
    "canonical_form": "enumeration",
    "coefficient_sign_grid": "enumeration",
    "enumerate_connected": "enumeration",
    "find_equality_graphs": "enumeration",
    "verify_all": "enumeration",
    "SpectralResult": "spectral",
    "min_nbr_lower_bound": "spectral",
    "nm2_ratio_lower_bound": "spectral",
    "ratio_bound_is_exact": "spectral",
    "spectral_radius": "spectral",
    "spectral_report": "spectral",
}

__version__ = "0.1.0"

__all__ = [
    "Alpha",
    "BoundReport",
    "BOUND_SOURCES",
    "CongruenceData",
    "DegreeProfile",
    "ExtremalRecord",
    "Graph",
    "IndexReport",
    "SpectralResult",
    "VerificationReport",
    "as_alpha",
    "canonical_form",
    "chemical_tree_m1",
    "complete_graph",
    "congruence_classify",
    "cycle_graph",
    "degree_profile",
    "diameter",
    "encode_graph6",
    "enumerate_connected",
    "find_equality_graphs",
    "first_zagreb",
    "general_neighborhood_zagreb",
    "index_report",
    "is_connected",
    "is_path",
    "coefficient_sign_grid",
    "min_nbr_lower_bound",
    "nm2_direct",
    "nm2_ratio_lower_bound",
    "nm2_reconstruct_secant",
    "nm2_reconstruct_unit",
    "nm_bound_congruence",
    "nm_bound_secant",
    "nm_bound_unit",
    "nm_direct",
    "nm_reconstruct_secant",
    "nm_reconstruct_unit",
    "parse_edge_list",
    "parse_graph6",
    "path_graph",
    "ratio_bound_is_exact",
    "secant_coefficient",
    "secant_slope",
    "spectral_radius",
    "spectral_report",
    "star_graph",
    "two_distance_index",
    "unit_coefficient",
    "verify_all",
]


def __getattr__(name):
    """Resolve a lazy public name through its submodule, on every access:
    the value is read from the submodule and not stored here, so a name
    replaced there (for instance by a tracer) is what callers get."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())
