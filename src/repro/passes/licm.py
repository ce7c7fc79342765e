"""Loop-invariant code motion (LICM).

Hoists pure computations whose operands are loop-invariant from a loop
body into the loop's preheader.  Safety conditions:

* the instruction is a pure ``Assign`` or a call to a known-pure
  intrinsic (:mod:`repro.ir.intrinsics`) — loads, stores and unknown
  calls never move, so the store invariant of Section 5.3 is preserved
  trivially;
* every operand is defined outside the loop or by an already-hoisted
  instruction;
* the defining block dominates every latch (so the instruction would have
  executed on every iteration anyway), or its value is only used inside
  the loop body it dominates — we use the conservative first condition;
* the function is in SSA form, so hoisting cannot change which definition
  reaches the uses.

Every move is one ``hoist`` call on the CodeMapper, which moves the
instruction and records the source and destination blocks: exactly the
information the CodeMapper needs to exclude the instruction from
point-correspondence anchoring and let ``reconstruct`` re-materialize or
reuse its value across OSR transitions.
"""

from __future__ import annotations

from typing import Set

from ..cfg.dominance import DominatorTree
from ..cfg.graph import ControlFlowGraph
from ..cfg.loops import NaturalLoop, find_loops
from ..core.codemapper import ActionKind, NullCodeMapper
from ..ir.function import Function
from ..ir.instructions import Assign, Call, Instruction
from .base import Pass

__all__ = ["LoopInvariantCodeMotion"]


def _is_hoistable(inst: Instruction) -> bool:
    """Pure register computations: plain assigns and pure intrinsic calls."""
    if isinstance(inst, Assign):
        return True
    if isinstance(inst, Call):
        return (
            inst.dest is not None
            and not inst.has_side_effects()
            and not inst.accesses_memory()
        )
    return False


class LoopInvariantCodeMotion(Pass):
    """Hoist loop-invariant pure computations to loop preheaders."""

    name = "LICM"
    tracked_action_kinds = (ActionKind.HOIST,)

    def transform(self, function: Function, mapper: NullCodeMapper) -> bool:
        cfg = ControlFlowGraph(function)
        domtree = DominatorTree(cfg)
        loops = find_loops(cfg, domtree)
        changed = False

        # Innermost loops first so invariants bubble outward across passes.
        for loop in sorted(loops, key=lambda lp: -lp.depth()):
            if loop.preheader is None:
                continue
            changed |= self._hoist_from_loop(function, cfg, domtree, loop, mapper)
        return changed

    def _hoist_from_loop(
        self,
        function: Function,
        cfg: ControlFlowGraph,
        domtree: DominatorTree,
        loop: NaturalLoop,
        mapper: NullCodeMapper,
    ) -> bool:
        assert loop.preheader is not None
        preheader = function.blocks[loop.preheader]
        changed = False

        defined_in_loop: Set[str] = set()
        for label in loop.body:
            for inst in function.blocks[label].instructions:
                defined_in_loop.update(inst.defs())

        hoisted: Set[str] = set()
        # Iterate until no more instructions can be hoisted: hoisting one
        # invariant can make its users invariant too.
        progress = True
        while progress:
            progress = False
            for label in sorted(loop.body):
                block = function.blocks[label]
                for inst in list(block.instructions):
                    if not _is_hoistable(inst):
                        continue
                    if inst.dest in hoisted:
                        continue
                    operands = set(inst.uses())
                    if operands & (defined_in_loop - hoisted):
                        continue  # depends on a value still computed in the loop
                    # The block must dominate every latch: the instruction
                    # executes on every iteration, so executing it once in
                    # the preheader is equivalent.
                    if not all(domtree.dominates(label, latch) for latch in loop.latches):
                        continue
                    mapper.hoist(inst, block, preheader, len(preheader.instructions) - 1)
                    hoisted.add(inst.dest)
                    changed = True
                    progress = True
        return changed
