"""Loop canonicalization (the analogue of LLVM's loop-simplify, "LC").

Ensures every natural loop has a dedicated *preheader*: a block whose only
successor is the loop header and which is the only out-of-loop predecessor
of the header.  LICM hoists loop-invariant code into the preheader, so the
canonicalization must run first (the paper augments LLVM's LC and LCSSA
utility passes for the same reason).

Creating a preheader inserts a new block and a jump (an ``add``
action), retargets the loop's outside predecessors and re-keys the
header's phi nodes so the incoming values from outside the loop now flow
through the preheader; all of it goes through the CodeMapper.
"""

from __future__ import annotations

from typing import Callable

from ..cfg.dominance import DominatorTree
from ..cfg.graph import ControlFlowGraph
from ..cfg.loops import find_loops
from ..core.codemapper import ActionKind, NullCodeMapper
from ..ir.function import Function
from ..ir.expr import Var
from ..ir.instructions import Jump, Phi
from .base import Pass

__all__ = ["LoopCanonicalization"]


class LoopCanonicalization(Pass):
    """Give every natural loop a dedicated preheader block."""

    name = "LC"
    tracked_action_kinds = (ActionKind.ADD,)

    def transform(self, function: Function, mapper: NullCodeMapper) -> bool:
        changed = False
        fresh_temp = function.temp_namer()

        # Loops are re-discovered after each insertion because creating a
        # preheader changes the CFG.
        for _ in range(len(function.block_labels()) + 1):
            cfg = ControlFlowGraph(function)
            domtree = DominatorTree(cfg)
            loops = find_loops(cfg, domtree)
            candidate = next((loop for loop in loops if loop.preheader is None), None)
            if candidate is None:
                break
            self._create_preheader(
                function, cfg, candidate.header, candidate.body, mapper, fresh_temp
            )
            changed = True
        return changed

    def _create_preheader(
        self,
        function: Function,
        cfg: ControlFlowGraph,
        header: str,
        body: set,
        mapper: NullCodeMapper,
        fresh_temp: Callable[[str], str],
    ) -> None:
        outside_preds = [p for p in cfg.preds(header) if p not in body]
        preheader_label = function.fresh_label(f"{header}.preheader")
        preheader = mapper.add_block(preheader_label)
        mapper.insert(preheader, 0, Jump(header), f"in new preheader {preheader_label}")

        # Retarget all outside predecessors to the preheader.
        retarget = {header: preheader_label}
        for pred_label in outside_preds:
            terminator = function.blocks[pred_label].terminator
            if terminator is not None:
                mapper.retarget(terminator, retarget)

        # Header phis: fold the incoming values from outside predecessors
        # into a single incoming value from the preheader.  With more than
        # one outside predecessor a new phi would be needed in the
        # preheader; our canonicalized workloads always have exactly one,
        # and the general case is handled by inserting a forwarding phi.
        for phi in function.blocks[header].phis():
            outside_values = {
                pred: phi.incoming[pred]
                for pred in outside_preds
                if pred in phi.incoming
            }
            incoming = {
                pred: value for pred, value in phi.incoming.items() if pred not in outside_values
            }
            if len(outside_values) == 1:
                incoming[preheader_label] = next(iter(outside_values.values()))
            elif len(outside_values) > 1:
                forward = Phi(
                    fresh_temp(f"{phi.dest.strip('%')}.ph"), outside_values
                )
                mapper.insert(preheader, 0, forward, f"forwarding phi in {preheader_label}")
                incoming[preheader_label] = Var(forward.dest)
            mapper.set_incoming(phi, incoming)
