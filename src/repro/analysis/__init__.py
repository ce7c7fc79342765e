"""Dataflow analyses over the repro IR.

Everything the OSR framework and the optimization passes need:

* :mod:`~repro.analysis.liveness` — live variables (Theorem 3.2, the
  ``live`` reconstruct variant, LVB checking);
* :mod:`~repro.analysis.reaching` — reaching definitions and the ``ud``
  predicate of Algorithm 1;
* :mod:`~repro.analysis.availability` — available values (the ``avail``
  reconstruct variant / ``K_avail`` sets) and available expressions;
* :mod:`~repro.analysis.constants` — the SCCP lattice analysis.
"""

from .liveness import LivenessInfo, live_variables
from .reaching import (
    PARAM_POINT,
    Definition,
    ReachingDefinitions,
    reaching_definitions,
)
from .availability import AvailableValues, available_expressions, available_values
from .constants import (
    BOTTOM,
    TOP,
    ConstantAnalysis,
    LatticeValue,
    sccp_analysis,
)
from .fusion import (
    COMPARISON_OPS,
    FusedCompareBranch,
    FusedStore,
    fusible_compare_branches,
    fusible_stores,
    register_def_counts,
    register_use_counts,
)

__all__ = [
    "LivenessInfo",
    "live_variables",
    "Definition",
    "ReachingDefinitions",
    "reaching_definitions",
    "PARAM_POINT",
    "AvailableValues",
    "available_values",
    "available_expressions",
    "ConstantAnalysis",
    "LatticeValue",
    "TOP",
    "BOTTOM",
    "sccp_analysis",
    "COMPARISON_OPS",
    "FusedCompareBranch",
    "FusedStore",
    "fusible_compare_branches",
    "fusible_stores",
    "register_def_counts",
    "register_use_counts",
]
