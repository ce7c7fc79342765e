"""Loop-closed SSA construction (LCSSA).

For every register defined inside a loop and used outside it, insert a phi
node in the relevant exit block and rewrite the outside uses to go through
that phi.  The inserted phis frequently have a single incoming value — the
kind of "phi node that always evaluates to the same value" Section 5.4
singles out, because ``reconstruct`` can treat them as plain copies.

All insertions are recorded as ``add`` actions; use rewrites as
``replace`` actions.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..cfg.dominance import DominatorTree
from ..cfg.graph import ControlFlowGraph
from ..cfg.loops import find_loops
from ..core.codemapper import ActionKind, NullCodeMapper
from ..ir.expr import Var
from ..ir.function import Function
from ..ir.instructions import Phi
from ..ir.verify import is_ssa
from .base import MapperLike, Pass

__all__ = ["LoopClosedSSA"]


class LoopClosedSSA(Pass):
    """Insert exit-block phis for loop-defined values used outside the loop."""

    name = "LCSSA"
    tracked_action_kinds = (ActionKind.ADD, ActionKind.REPLACE)

    def run(self, function: Function, mapper: Optional[MapperLike] = None) -> bool:
        mapper = mapper if mapper is not None else NullCodeMapper()
        if not is_ssa(function):
            return False
        changed = False

        cfg = ControlFlowGraph(function)
        domtree = DominatorTree(cfg)
        loops = find_loops(cfg, domtree)

        for loop in loops:
            # Registers defined inside the loop.
            defined_in_loop: Dict[str, str] = {}
            for label in loop.body:
                for inst in function.blocks[label].instructions:
                    for name in inst.defs():
                        defined_in_loop[name] = label

            if not defined_in_loop:
                continue

            exit_blocks = loop.exit_blocks(cfg)
            for name, def_block in sorted(defined_in_loop.items()):
                # Find uses outside the loop.
                outside_uses = []
                for point, inst in function.instructions():
                    if point.block in loop.body:
                        continue
                    if isinstance(inst, Phi):
                        # A phi reads its operand at the end of the
                        # predecessor: an edge from inside the loop is
                        # an in-loop use.
                        if any(
                            isinstance(v, Var) and v.name == name
                            for pred, v in inst.incoming.items()
                            if pred not in loop.body
                        ):
                            outside_uses.append((point, inst))
                    elif name in inst.uses():
                        outside_uses.append((point, inst))
                if not outside_uses:
                    continue

                # Insert one LCSSA phi per exit block that the definition
                # dominates; rewrite dominated outside uses to the phi.
                for exit_label in exit_blocks:
                    # The phi needs the value on every edge into the
                    # exit block, including one from a ``break`` tail
                    # that already left the loop.
                    preds = cfg.preds(exit_label)
                    if not all(domtree.dominates(def_block, p) for p in preds):
                        continue
                    exit_block = function.blocks[exit_label]
                    lcssa_name = function.fresh_temp(f"{name.strip('%')}.lcssa")
                    phi = Phi(lcssa_name, {p: Var(name) for p in preds})
                    exit_block.insert(0, phi)
                    mapper.add_instruction(phi, f"LCSSA phi in {exit_label}")
                    changed = True

                    replacement = {name: Var(lcssa_name)}
                    for point, user in outside_uses:
                        if point.block == exit_label and isinstance(user, Phi):
                            # Phis are parallel: a sibling in the exit
                            # block reads the in-loop value on its edge,
                            # never another phi of the same block.
                            continue
                        if not domtree.dominates(exit_label, point.block):
                            continue
                        before = str(user)
                        user.replace_uses(replacement)
                        if str(user) != before:
                            mapper.replace_all_uses_with(name, Var(lcssa_name), user)
                    break  # one LCSSA phi per value is enough for our CFGs
        return changed
