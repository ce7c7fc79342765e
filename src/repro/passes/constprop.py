"""Constant propagation and folding (CP).

A lightweight SSA constant propagator: registers defined by a constant
expression are substituted into their uses (a ``replace`` action), the
now-dead constant definitions are deleted, and expressions that become
fully constant are folded in place.  Every edit goes through the
CodeMapper.  The engine runs its branch-aware superset,
:mod:`repro.passes.sccp`, instead; Table 1's ``CP`` row
(``ALL_PASSES["CP"]``) is this pass's only user.
"""

from __future__ import annotations

from typing import Dict

from ..core.codemapper import ActionKind, NullCodeMapper
from ..ir.expr import Const, Expr
from ..ir.function import Function
from ..ir.instructions import Assign, Guard, Instruction
from .base import Pass

__all__ = ["ConstantPropagationPass"]


class ConstantPropagationPass(Pass):
    """Propagate and fold constants through SSA registers."""

    name = "CP"
    tracked_action_kinds = (ActionKind.REPLACE, ActionKind.DELETE)

    def transform(self, function: Function, mapper: NullCodeMapper) -> bool:
        changed = False
        for _ in range(8):  # repeat: folding can expose new constants
            round_changed = False

            # 1. Fold assignments and guard conditions in place.  Guards
            #    whose condition folds to a non-zero constant are provably
            #    true (speculation collapsed into fact) and are deleted.
            for _, inst in function.instructions():
                round_changed |= mapper.fold(inst)
            round_changed |= mapper.delete_where(_proven_guard)

            # 2. Collect registers bound to constants.
            constants: Dict[str, Expr] = {}
            for _, inst in function.instructions():
                if isinstance(inst, Assign) and isinstance(inst.expr, Const):
                    constants[inst.dest] = inst.expr

            # 3. Substitute them into all uses, then delete their
            #    definitions, which nothing reads any more.
            if constants:
                for name, value in constants.items():
                    round_changed |= mapper.replace_all_uses(name, value)
                round_changed |= mapper.delete_where(
                    lambda inst: isinstance(inst, Assign) and inst.dest in constants
                )

            changed = changed or round_changed
            if not round_changed:
                break
        return changed


def _proven_guard(inst: Instruction) -> bool:
    return isinstance(inst, Guard) and isinstance(inst.cond, Const) and inst.cond.value != 0
