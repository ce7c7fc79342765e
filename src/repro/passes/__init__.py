"""OSR-aware optimization passes (Section 5.4).

Each pass re-implements the behaviour of the corresponding LLVM pass the
paper instruments, and edits the IR only *through* a
:class:`~repro.core.codemapper.CodeMapper`: each of the five primitive
actions of Section 5.1 is one mapper call that performs the edit and
records it.  ``standard_pipeline`` mirrors the pipeline the
paper applies to produce ``f_opt`` from ``f_base``.
"""

from typing import List

from .base import Pass, PassManager, PipelineResult
from .adce import AggressiveDCE
from .constprop import ConstantPropagationPass
from .cse import CommonSubexpressionElimination
from .fuse import SuperinstructionFusion
from .inline import InlineCalls
from .licm import LoopInvariantCodeMotion
from .loopcanon import LoopCanonicalization
from .lcssa import LoopClosedSSA
from .sccp import SparseConditionalConstantPropagation
from .sink import CodeSinking
from .speculate import SpeculativeGuards

__all__ = [
    "Pass",
    "PassManager",
    "PipelineResult",
    "AggressiveDCE",
    "ConstantPropagationPass",
    "CommonSubexpressionElimination",
    "InlineCalls",
    "SuperinstructionFusion",
    "LoopInvariantCodeMotion",
    "LoopCanonicalization",
    "LoopClosedSSA",
    "SparseConditionalConstantPropagation",
    "CodeSinking",
    "SpeculativeGuards",
    "standard_pipeline",
    "speculative_pipeline",
    "interprocedural_pipeline",
    "ALL_PASSES",
]

#: Every OSR-aware pass, keyed the way Table 1 names them.
ALL_PASSES = {
    "ADCE": AggressiveDCE,
    "CP": ConstantPropagationPass,
    "CSE": CommonSubexpressionElimination,
    "LICM": LoopInvariantCodeMotion,
    "SCCP": SparseConditionalConstantPropagation,
    "Sink": CodeSinking,
    "LC": LoopCanonicalization,
    "LCSSA": LoopClosedSSA,
}


def standard_pipeline() -> List[Pass]:
    """The optimization pipeline used to produce ``f_opt`` (Section 6.1).

    Loop canonicalization and LCSSA run first (they are prerequisites for
    LICM, as in LLVM), followed by the scalar optimizations; ADCE runs
    last to clean up.  SCCP is the one constant pass; CP would only
    repeat its work.
    """
    return [
        LoopCanonicalization(),
        LoopClosedSSA(),
        LoopInvariantCodeMotion(),
        CommonSubexpressionElimination(),
        SparseConditionalConstantPropagation(),
        CodeSinking(),
        AggressiveDCE(),
        SuperinstructionFusion(),
    ]


def speculative_pipeline(
    profile,
    *,
    min_samples: int = 4,
    min_ratio: float = 0.999,
    exclude=None,
) -> List[Pass]:
    """The speculative pipeline: guard insertion, then the standard passes.

    ``SpeculativeGuards`` must run first, while the clone's registers and
    program points still coincide with the profiled f_base; the standard
    passes then exploit the speculated constants and pruned cold paths
    (``sccp`` folds them through, ``adce`` deletes what died).
    """
    return [
        SpeculativeGuards(
            profile, min_samples=min_samples, min_ratio=min_ratio, exclude=exclude
        ),
        *standard_pipeline(),
    ]


def interprocedural_pipeline(
    caller_profile,
    merged_profile,
    *,
    resolve,
    callee_profile,
    min_samples: int = 4,
    min_ratio: float = 0.999,
    min_site_calls: int = 3,
    max_callee_size: int = 80,
    max_inline_depth: int = 2,
    exclude=None,
) -> List[Pass]:
    """The interprocedural pipeline: inline, then speculate, then optimize.

    ``InlineCalls`` must run first (while the clone's layout still
    matches the profiled f_base) and augments ``merged_profile`` — a
    throwaway copy of ``caller_profile`` — with renamed callee facts;
    ``SpeculativeGuards`` reads the merged profile so it speculates
    across the erased call boundaries, and the standard passes then
    optimize the whole merged body at once.
    """
    return [
        InlineCalls(
            resolve,
            caller_profile,
            callee_profile=callee_profile,
            merged_profile=merged_profile,
            min_site_calls=min_site_calls,
            max_callee_size=max_callee_size,
            max_inline_depth=max_inline_depth,
        ),
        SpeculativeGuards(
            merged_profile,
            min_samples=min_samples,
            min_ratio=min_ratio,
            exclude=exclude,
        ),
        *standard_pipeline(),
    ]
