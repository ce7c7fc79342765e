"""Loop-closed SSA construction (LCSSA).

For every register defined inside a loop and used outside it, insert a phi
node in the relevant exit block and rewrite the outside uses to go through
that phi.  The inserted phis frequently have a single incoming value — the
kind of "phi node that always evaluates to the same value" Section 5.4
singles out, because ``reconstruct`` can treat them as plain copies.

Each insertion is a CodeMapper ``add`` action; each use rewrite a
``replace`` action, recorded for the users it actually changed.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..cfg.dominance import DominatorTree
from ..cfg.graph import ControlFlowGraph
from ..cfg.loops import find_loops
from ..core.codemapper import ActionKind, NullCodeMapper
from ..ir.expr import Var
from ..ir.function import Function, ProgramPoint
from ..ir.instructions import Instruction, Phi
from .base import Pass

__all__ = ["LoopClosedSSA"]


class LoopClosedSSA(Pass):
    """Insert exit-block phis for loop-defined values used outside the loop."""

    name = "LCSSA"
    tracked_action_kinds = (ActionKind.ADD, ActionKind.REPLACE)

    def transform(self, function: Function, mapper: NullCodeMapper) -> bool:
        changed = False

        cfg = ControlFlowGraph(function)
        domtree = DominatorTree(cfg)
        loops = find_loops(cfg, domtree)

        fresh_temp = function.temp_namer()
        for loop in loops:
            # Registers defined inside the loop.
            defined_in_loop: Dict[str, str] = {}
            for label in loop.body:
                for inst in function.blocks[label].instructions:
                    for name in inst.defs():
                        defined_in_loop[name] = label

            if not defined_in_loop:
                continue

            outside_uses = _outside_uses(function, loop.body, defined_in_loop)
            exit_blocks = loop.exit_blocks(cfg)
            for name, def_block in sorted(defined_in_loop.items()):
                users = outside_uses.get(name)
                if not users:
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
                    lcssa_name = fresh_temp(f"{name.strip('%')}.lcssa")
                    phi = Phi(lcssa_name, {p: Var(name) for p in preds})
                    mapper.insert(function.blocks[exit_label], 0, phi, f"LCSSA phi in {exit_label}")
                    changed = True

                    for point, user in users:
                        if point.block == exit_label and isinstance(user, Phi):
                            # Phis are parallel: a sibling in the exit
                            # block reads the in-loop value on its edge,
                            # never another phi of the same block.
                            continue
                        if not domtree.dominates(exit_label, point.block):
                            continue
                        mapper.replace_uses_in(user, name, Var(lcssa_name))
                    break  # one LCSSA phi per value is enough for our CFGs
        return changed


def _outside_uses(
    function: Function, body: Set[str], defined_in_loop: Dict[str, str]
) -> Dict[str, List[Tuple[ProgramPoint, Instruction]]]:
    """Loop-defined register → its users outside ``body``, in program order.

    One walk serves every register of the loop: closing register *A*
    only rewrites *A*'s uses, and the phi it inserts reads only *A*, so
    the lists of the registers closed after it stay current.
    """
    users: Dict[str, List[Tuple[ProgramPoint, Instruction]]] = {}
    for point, inst in function.instructions():
        if point.block in body:
            continue
        if isinstance(inst, Phi):
            # A phi reads its operand at the end of the predecessor: an
            # edge from inside the loop is an in-loop use.
            names = {
                value.name
                for pred, value in inst.incoming.items()
                if pred not in body and isinstance(value, Var)
            }
        else:
            names = inst.uses()
        for name in names:
            if name in defined_in_loop:
                users.setdefault(name, []).append((point, inst))
    return users
