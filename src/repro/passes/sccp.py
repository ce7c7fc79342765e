"""Sparse conditional constant propagation (SCCP) — the rewriting pass.

Consumes :func:`repro.analysis.constants.sccp_analysis` and performs four
kinds of rewrites, each one a CodeMapper call that edits and records:

* registers proven constant are substituted into their uses (``replace``)
  and their defining instructions deleted (``delete``);
* assignments and guards are folded in place, and guards that fold to a
  non-zero constant are deleted (``delete``): sound, since the analysis
  never assumes a guard's own condition;
* conditional branches whose condition is a proven constant are replaced
  by unconditional jumps (``delete`` + ``add``);
* blocks proven unreachable have all their instructions deleted and are
  removed from the function (phi inputs from removed predecessors and
  folded edges are pruned as well).

This is the pass responsible for the large deletion counts the paper
reports for ``ffmpeg`` in Table 2.
"""

from __future__ import annotations

from ..analysis.constants import sccp_analysis
from ..core.codemapper import ActionKind, NullCodeMapper
from ..ir.expr import Const
from ..ir.function import Function
from ..ir.instructions import Assign, Branch, Jump, Phi
from .base import Pass
from .constprop import _proven_guard

__all__ = ["SparseConditionalConstantPropagation"]


class SparseConditionalConstantPropagation(Pass):
    """Branch-aware constant propagation with unreachable-code elimination."""

    name = "SCCP"
    tracked_action_kinds = (ActionKind.REPLACE, ActionKind.DELETE, ActionKind.ADD)

    def transform(self, function: Function, mapper: NullCodeMapper) -> bool:
        changed = False

        analysis = sccp_analysis(function)
        constants = {
            name: Const(value) for name, value in analysis.constant_registers().items()
        }

        # 1. Substitute proven-constant registers into all uses and drop
        #    their definitions.
        if constants:
            for name, value in constants.items():
                changed |= mapper.replace_all_uses(name, value)
            changed |= mapper.delete_where(
                lambda inst: isinstance(inst, (Assign, Phi)) and inst.dest in constants
            )

        # 2. Fold what substitution left, and delete the guards it proved.
        for _, inst in function.instructions():
            changed |= mapper.fold(inst)
        changed |= mapper.delete_where(_proven_guard)

        # 3. Fold branches with constant conditions into jumps.
        for block in function.iter_blocks():
            terminator = block.terminator
            if isinstance(terminator, Branch) and isinstance(terminator.cond, Const):
                target = (
                    terminator.then_target
                    if terminator.cond.value != 0
                    else terminator.else_target
                )
                mapper.replace_terminator(block, Jump(target), f"folded branch in {block.label}")
                changed = True

        # 4. Remove blocks that are no longer reachable, and phi inputs
        #    along edges that no longer exist.
        return mapper.remove_unreachable_blocks() or changed
