"""Available values and available expressions.

Two related notions are needed by the paper's machinery:

* **Available values** (Section 5.2): a register whose defining
  instruction has already executed on *every* path reaching a point — even
  if the register is no longer live there.  The ``avail`` variant of
  ``reconstruct`` may keep such registers artificially alive to support
  OSR at more points; their set is exactly what Table 3 / Table 5 report
  as ``K_avail``.

* **Available expressions** (classic forward must-analysis): expressions
  already computed on every incoming path and not invalidated since.  The
  CSE pass uses dominance-scoped value numbering instead, but the analysis
  is exposed for tests and for the ablation benchmarks.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Set

from ..cfg.graph import ControlFlowGraph, reverse_postorder
from ..ir.expr import Expr, canonical_expr, free_vars
from ..ir.function import Function, ProgramPoint
from ..ir.instructions import Assign

__all__ = ["AvailableValues", "available_values", "available_expressions"]


class AvailableValues:
    """Registers whose definitions have certainly executed before each point."""

    def __init__(self, function: Function, available: Dict[ProgramPoint, FrozenSet[str]]) -> None:
        self.function = function
        self._available = available

    def available_at(self, point: ProgramPoint) -> FrozenSet[str]:
        """Registers carrying a computed value just before ``point`` executes."""
        return self._available.get(point, frozenset())

    def __repr__(self) -> str:
        return f"<AvailableValues for @{self.function.name} ({len(self._available)} points)>"


def available_values(
    function: Function, cfg: Optional[ControlFlowGraph] = None
) -> AvailableValues:
    """Forward must-analysis: which registers are defined on all paths to each point.

    Function parameters are available everywhere.  The analysis is a
    standard intersection dataflow over definitions; for SSA functions the
    result coincides with "the definition dominates the point", but the
    formulation below is also correct for non-SSA code.
    """
    cfg = cfg or ControlFlowGraph(function)
    labels = function.block_labels()
    params = frozenset(function.params)
    universe = frozenset(function.defined_variables()) | params

    block_defs: Dict[str, Set[str]] = {}
    for label in labels:
        defs: Set[str] = set()
        for inst in function.blocks[label].instructions:
            defs.update(inst.defs())
        block_defs[label] = defs

    block_in: Dict[str, FrozenSet[str]] = {label: universe for label in labels}
    block_out: Dict[str, FrozenSet[str]] = {label: universe for label in labels}
    block_in[function.entry_label] = params

    order = reverse_postorder(cfg)
    changed = True
    while changed:
        changed = False
        for label in order:
            if label == function.entry_label:
                incoming: FrozenSet[str] = params
            else:
                preds = cfg.preds(label)
                if preds:
                    incoming = frozenset.intersection(
                        *(block_out[p] for p in preds)
                    )
                else:
                    # Unreachable block: keep the optimistic top value.
                    incoming = universe
            out = frozenset(set(incoming) | block_defs[label])
            if incoming != block_in[label] or out != block_out[label]:
                block_in[label] = incoming
                block_out[label] = out
                changed = True

    result: Dict[ProgramPoint, FrozenSet[str]] = {}
    for label in labels:
        current: Set[str] = set(block_in[label])
        for index, inst in enumerate(function.blocks[label].instructions):
            result[ProgramPoint(label, index)] = frozenset(current)
            current.update(inst.defs())
    return AvailableValues(function, result)


def available_expressions(
    function: Function, cfg: Optional[ControlFlowGraph] = None
) -> Dict[ProgramPoint, FrozenSet[Expr]]:
    """Classic available-expressions analysis over pure ``Assign`` right-hand sides.

    An expression is available at a point when it has been computed on
    every path and none of its operands has been redefined since.  Memory
    operations are not tracked (loads are never considered available),
    which keeps the analysis trivially sound with respect to stores.
    """
    cfg = cfg or ControlFlowGraph(function)
    labels = function.block_labels()

    # The universe of candidate expressions: non-trivial pure RHSs.
    universe: Set[Expr] = set()
    for _, inst in function.instructions():
        if isinstance(inst, Assign) and free_vars(inst.expr):
            universe.add(canonical_expr(inst.expr))
    universe_frozen = frozenset(universe)

    def transfer(block_label: str, incoming: FrozenSet[Expr]) -> FrozenSet[Expr]:
        current = set(incoming)
        for inst in function.blocks[block_label].instructions:
            if isinstance(inst, Assign) and free_vars(inst.expr):
                current.add(canonical_expr(inst.expr))
            for name in inst.defs():
                current = {e for e in current if name not in free_vars(e)}
        return frozenset(current)

    block_in: Dict[str, FrozenSet[Expr]] = {label: universe_frozen for label in labels}
    block_out: Dict[str, FrozenSet[Expr]] = {label: universe_frozen for label in labels}
    block_in[function.entry_label] = frozenset()

    order = reverse_postorder(cfg)
    changed = True
    while changed:
        changed = False
        for label in order:
            if label == function.entry_label:
                incoming: FrozenSet[Expr] = frozenset()
            else:
                preds = cfg.preds(label)
                incoming = (
                    frozenset.intersection(*(block_out[p] for p in preds))
                    if preds
                    else universe_frozen
                )
            out = transfer(label, incoming)
            if incoming != block_in[label] or out != block_out[label]:
                block_in[label] = incoming
                block_out[label] = out
                changed = True

    result: Dict[ProgramPoint, FrozenSet[Expr]] = {}
    for label in labels:
        current = set(block_in[label])
        for index, inst in enumerate(function.blocks[label].instructions):
            result[ProgramPoint(label, index)] = frozenset(current)
            if isinstance(inst, Assign) and free_vars(inst.expr):
                current.add(canonical_expr(inst.expr))
            for name in inst.defs():
                current = {e for e in current if name not in free_vars(e)}
    return result
