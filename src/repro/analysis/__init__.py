"""Dataflow analyses over the repro IR.

Everything the OSR framework and the optimization passes need:

* :mod:`~repro.analysis.liveness` — live variables (Theorem 3.2, the
  ``live`` reconstruct variant, LVB checking), the one fixed point
  Algorithm 1 needs on SSA IR;
* :mod:`~repro.analysis.constants` — the SCCP lattice analysis;
* :mod:`~repro.analysis.fusion` — superinstruction-fusion candidates.

The ``ud`` predicate and the available values of Algorithm 1 are no
fixed points here: :class:`repro.core.views.FunctionView` answers them on
demand from SSA definitions, dominators and CFG reachability.
"""

from .liveness import LivenessInfo, live_variables
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
