"""Live-variable analysis.

Liveness is the central analysis of the paper: OSR mappings only need to
realign *live* variables (Theorem 3.2), the ``live`` variant of
``reconstruct`` may only read live variables at the OSR source, and
live-variable bisimulation (Definition 4.3) compares stores restricted to
variables live in both versions.

The analysis is the textbook backwards may-analysis computed block-wise to
a fixed point and then refined per instruction.  Phi nodes receive the
standard SSA treatment: a phi's incoming operand is considered used *on the
corresponding predecessor edge*, i.e. it is live out of the predecessor
block but not necessarily live into the phi's own block.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set

from ..cfg.graph import ControlFlowGraph, postorder
from ..ir.expr import free_vars
from ..ir.function import Function, ProgramPoint
from ..ir.instructions import Instruction, Phi

__all__ = ["LivenessInfo", "live_variables"]


class LivenessInfo:
    """Per-point live-in/live-out sets for one function."""

    def __init__(
        self,
        function: Function,
        live_in: Dict[ProgramPoint, FrozenSet[str]],
        live_out: Dict[ProgramPoint, FrozenSet[str]],
        block_in: Dict[str, FrozenSet[str]],
        block_out: Dict[str, FrozenSet[str]],
    ) -> None:
        self.function = function
        self._live_in = live_in
        self._live_out = live_out
        self._block_in = block_in
        self._block_out = block_out

    def live_in(self, point: ProgramPoint) -> FrozenSet[str]:
        """Variables live immediately *before* the instruction at ``point``.

        This is the paper's ``live(p, l)``: the set relevant when an OSR
        transition fires just before executing ``point``.
        """
        return self._live_in.get(point, frozenset())

    def live_out(self, point: ProgramPoint) -> FrozenSet[str]:
        """Variables live immediately *after* the instruction at ``point``."""
        return self._live_out.get(point, frozenset())

    def block_live_out(self, label: str) -> FrozenSet[str]:
        return self._block_out.get(label, frozenset())

    def __repr__(self) -> str:
        return f"<LivenessInfo for @{self.function.name} ({len(self._live_in)} points)>"


def _phi_uses_by_pred(block_instructions: List[Instruction]) -> Dict[str, Set[str]]:
    """Map predecessor label → variables used by the block's phi nodes on that edge."""
    uses: Dict[str, Set[str]] = {}
    for inst in block_instructions:
        if not isinstance(inst, Phi):
            break
        for pred, value in inst.incoming.items():
            uses.setdefault(pred, set()).update(free_vars(value))
    return uses


def live_variables(function: Function, cfg: Optional[ControlFlowGraph] = None) -> LivenessInfo:
    """Compute live-in/live-out sets for every program point of ``function``."""
    cfg = cfg or ControlFlowGraph(function)
    labels = function.block_labels()

    # Per-block use/def summaries.  Phi destinations are defs of the block;
    # phi operand uses are attributed to predecessor edges and handled when
    # computing block live-out below.
    block_use: Dict[str, Set[str]] = {}
    block_def: Dict[str, Set[str]] = {}
    phi_edge_uses: Dict[str, Dict[str, Set[str]]] = {}
    for label in labels:
        block = function.blocks[label]
        uses: Set[str] = set()
        defs: Set[str] = set()
        phi_edge_uses[label] = _phi_uses_by_pred(block.instructions)
        for inst in block.instructions:
            if isinstance(inst, Phi):
                defs.update(inst.defs())
                continue
            for name in inst.uses():
                if name not in defs:
                    uses.add(name)
            defs.update(inst.defs())
        block_use[label] = uses
        block_def[label] = defs

    block_in: Dict[str, Set[str]] = {label: set() for label in labels}
    block_out: Dict[str, Set[str]] = {label: set() for label in labels}

    # Iterate to a fixed point in postorder (backwards analysis converges
    # fastest when successors are processed before predecessors).
    order = postorder(cfg)
    changed = True
    while changed:
        changed = False
        for label in order:
            out: Set[str] = set()
            for succ in cfg.succs(label):
                # live-in of the successor, minus its phi defs, plus the phi
                # operands flowing along this particular edge.
                succ_in = set(block_in[succ])
                succ_phi_defs = {
                    inst.dest
                    for inst in function.blocks[succ].phis()
                }
                out |= succ_in - succ_phi_defs
                out |= phi_edge_uses[succ].get(label, set())
            new_in = block_use[label] | (out - block_def[label])
            if out != block_out[label] or new_in != block_in[label]:
                block_out[label] = out
                block_in[label] = new_in
                changed = True

    # Refine within blocks, walking instructions backwards.
    live_in: Dict[ProgramPoint, FrozenSet[str]] = {}
    live_out: Dict[ProgramPoint, FrozenSet[str]] = {}
    for label in labels:
        block = function.blocks[label]
        live: Set[str] = set(block_out[label])
        for index in range(len(block.instructions) - 1, -1, -1):
            inst = block.instructions[index]
            point = ProgramPoint(label, index)
            live_out[point] = frozenset(live)
            if isinstance(inst, Phi):
                # Phi defs kill; phi uses belong to predecessor edges.
                live = live - set(inst.defs())
            else:
                live = (live - set(inst.defs())) | set(inst.uses())
            live_in[point] = frozenset(live)

    return LivenessInfo(
        function,
        live_in,
        live_out,
        {label: frozenset(block_in[label]) for label in labels},
        {label: frozenset(block_out[label]) for label in labels},
    )
