"""Constant propagation and folding (CP).

A lightweight SSA constant propagator: registers defined by a constant
expression are substituted into their uses (a ``replace`` action), the
now-dead constant definitions are deleted, and expressions that become
fully constant are folded in place.  The heavier, branch-aware variant is
:mod:`repro.passes.sccp`.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.codemapper import ActionKind, NullCodeMapper
from ..ir.expr import Const, Expr, fold_constants
from ..ir.function import Function
from ..ir.instructions import Assign, Guard
from ..ir.verify import is_ssa
from .base import MapperLike, Pass

__all__ = ["ConstantPropagationPass"]


class ConstantPropagationPass(Pass):
    """Propagate and fold constants through SSA registers."""

    name = "CP"
    tracked_action_kinds = (ActionKind.REPLACE, ActionKind.DELETE)

    def run(self, function: Function, mapper: Optional[MapperLike] = None) -> bool:
        mapper = mapper if mapper is not None else NullCodeMapper()
        changed = False
        ssa = is_ssa(function)

        for _ in range(8):  # repeat: folding can expose new constants
            round_changed = False

            # 1. Fold every expression operand in place.  Guards whose
            #    condition folds to a non-zero constant are provably true
            #    (speculation collapsed into fact) and are deleted.
            for _, inst in function.instructions():
                if isinstance(inst, Assign):
                    folded = fold_constants(inst.expr)
                    if folded != inst.expr:
                        inst.expr = folded
                        round_changed = True
                elif isinstance(inst, Guard):
                    folded = fold_constants(inst.cond)
                    if folded != inst.cond:
                        inst.cond = folded
                        round_changed = True
            for block in function.iter_blocks():
                survivors = []
                for inst in block.instructions:
                    if (
                        isinstance(inst, Guard)
                        and isinstance(inst.cond, Const)
                        and inst.cond.value != 0
                    ):
                        mapper.delete_instruction(inst)
                        round_changed = True
                    else:
                        survivors.append(inst)
                block.instructions = survivors

            if not ssa:
                # Without single-assignment guarantees, substituting uses is
                # not generally sound; folding alone is still fine.
                changed = changed or round_changed
                if not round_changed:
                    break
                continue

            # 2. Collect registers bound to constants.
            constants: Dict[str, Expr] = {}
            for _, inst in function.instructions():
                if isinstance(inst, Assign) and isinstance(inst.expr, Const):
                    constants[inst.dest] = inst.expr

            if constants:
                # 3. Substitute them into all uses.
                for _, inst in function.instructions():
                    before = str(inst)
                    inst.replace_uses(constants)
                    if str(inst) != before:
                        round_changed = True
                for name, value in constants.items():
                    mapper.replace_all_uses_with(name, value)

                # 4. Delete constant definitions that are now unused.
                used = set()
                for _, inst in function.instructions():
                    used.update(inst.uses())
                for block in function.iter_blocks():
                    survivors = []
                    for inst in block.instructions:
                        if (
                            isinstance(inst, Assign)
                            and inst.dest in constants
                            and inst.dest not in used
                        ):
                            mapper.delete_instruction(inst)
                            round_changed = True
                        else:
                            survivors.append(inst)
                    block.instructions = survivors

            changed = changed or round_changed
            if not round_changed:
                break
        return changed
