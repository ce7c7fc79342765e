"""Code sinking (Sink).

Moves pure assignments closer to their uses: when every use of a register
lives in a single successor block of its defining block, the definition is
sunk to the head of that block (after its phi nodes).  This shortens live
ranges on paths that never need the value — and, from the OSR framework's
perspective, creates exactly the situation where a deoptimizing transition
must re-materialize the value because the original program expects it to
have been computed already.

Safety conditions (conservative on purpose):

* pure ``Assign`` only — memory operations are never moved, preserving the
  store invariant of Section 5.3;
* SSA form;
* the target block must not be a loop header for a loop containing the
  defining block (never sink into a loop — the value would be recomputed
  every iteration and phi semantics would break);
* no use inside the defining block itself.

Every move is one ``sink`` call on the CodeMapper, which moves the
instruction and records the action.
"""

from __future__ import annotations

from typing import Dict, Set

from ..cfg.dominance import DominatorTree
from ..cfg.graph import ControlFlowGraph
from ..cfg.loops import find_loops
from ..core.codemapper import ActionKind, NullCodeMapper
from ..ir.function import Function
from ..ir.instructions import Assign, Phi
from .base import Pass

__all__ = ["CodeSinking"]


class CodeSinking(Pass):
    """Sink pure computations into the single successor that uses them."""

    name = "Sink"
    tracked_action_kinds = (ActionKind.SINK,)

    def transform(self, function: Function, mapper: NullCodeMapper) -> bool:
        changed = False
        for _ in range(4):  # sinking can cascade
            cfg = ControlFlowGraph(function)
            domtree = DominatorTree(cfg)
            loops = find_loops(cfg, domtree)
            loop_headers = {loop.header for loop in loops}

            # Where is each register used?
            use_blocks: Dict[str, Set[str]] = {}
            used_in_phi: Set[str] = set()
            for point, inst in function.instructions():
                if isinstance(inst, Phi):
                    for name in inst.uses():
                        used_in_phi.add(name)
                        use_blocks.setdefault(name, set()).add(point.block)
                else:
                    for name in inst.uses():
                        use_blocks.setdefault(name, set()).add(point.block)

            round_changed = False
            for block in list(function.iter_blocks()):
                for inst in list(block.instructions):
                    if not isinstance(inst, Assign):
                        continue
                    dest = inst.dest
                    uses = use_blocks.get(dest, set())
                    if not uses or dest in used_in_phi:
                        continue
                    if block.label in uses:
                        continue
                    succs = cfg.succs(block.label)
                    # The single successor that contains every use.
                    target = None
                    if len(uses) == 1:
                        only_use_block = next(iter(uses))
                        if only_use_block in succs and only_use_block != block.label:
                            target = only_use_block
                    if target is None:
                        continue
                    if target in loop_headers:
                        continue
                    # Only sink along an edge where the target has the
                    # defining block as its unique predecessor, so the value
                    # is still computed on every path that needs it and SSA
                    # dominance is preserved.
                    if cfg.preds(target) != [block.label]:
                        continue
                    target_block = function.blocks[target]
                    mapper.sink(inst, block, target_block, len(target_block.phis()))
                    round_changed = True
            changed = changed or round_changed
            if not round_changed:
                break
        return changed
