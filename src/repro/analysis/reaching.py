"""Reaching-definitions analysis and the ``ud`` predicate of Algorithm 1.

``reconstruct`` (Algorithm 1 in the paper) is driven by the predicate

    ud(x, p, l_d, l_r)  ≜  there is a unique definition of ``x``, located at
                           ``l_d``, that reaches location ``l_r`` in ``p``

This module computes classic reaching definitions at every program point
and exposes :meth:`ReachingDefinitions.unique_reaching_definition`, which
is exactly that predicate.  In SSA form every register trivially has a
unique definition, but the analysis also covers non-SSA code (the paper's
abstract language is not SSA) and registers with multiple definitions
introduced by out-of-SSA lowering.

Function parameters are modelled as definitions at a pseudo-point before
the entry block, so "reaches from the parameter" is expressible.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..cfg.graph import ControlFlowGraph, reverse_postorder
from ..ir.function import Function, ProgramPoint

__all__ = ["Definition", "ReachingDefinitions", "PARAM_POINT", "reaching_definitions"]

#: Sentinel program point representing "defined as a function parameter".
PARAM_POINT = ProgramPoint("<params>", 0)


class Definition(Tuple[str, ProgramPoint]):
    """A ``(variable, defining point)`` pair."""

    __slots__ = ()

    def __new__(cls, var: str, point: ProgramPoint) -> "Definition":
        return super().__new__(cls, (var, point))

    @property
    def var(self) -> str:
        return self[0]

    @property
    def point(self) -> ProgramPoint:
        return self[1]

    def __repr__(self) -> str:
        return f"Definition({self.var!r}, {self.point})"


class ReachingDefinitions:
    """Reaching-definition sets for every program point of a function."""

    def __init__(
        self,
        function: Function,
        reach_in: Dict[ProgramPoint, FrozenSet[Definition]],
        reach_out: Dict[ProgramPoint, FrozenSet[Definition]],
    ) -> None:
        self.function = function
        self._reach_in = reach_in
        self._reach_out = reach_out

    def reaching_in(self, point: ProgramPoint) -> FrozenSet[Definition]:
        """Definitions reaching the state *before* executing ``point``."""
        return self._reach_in.get(point, frozenset())

    def definitions_of(self, var: str, point: ProgramPoint) -> List[ProgramPoint]:
        """All points whose definition of ``var`` reaches ``point``."""
        return sorted(d.point for d in self.reaching_in(point) if d.var == var)

    def unique_reaching_definition(
        self, var: str, point: ProgramPoint
    ) -> Optional[ProgramPoint]:
        """The paper's ``ud`` predicate.

        Returns the unique defining point of ``var`` reaching ``point``, or
        ``None`` when ``var`` has zero or several reaching definitions
        there.  A parameter definition is reported as :data:`PARAM_POINT`.
        """
        defs = self.definitions_of(var, point)
        if len(defs) == 1:
            return defs[0]
        return None

    def __repr__(self) -> str:
        return (
            f"<ReachingDefinitions for @{self.function.name} "
            f"({len(self._reach_in)} points)>"
        )


def reaching_definitions(
    function: Function, cfg: Optional[ControlFlowGraph] = None
) -> ReachingDefinitions:
    """Compute reaching definitions for every program point of ``function``."""
    cfg = cfg or ControlFlowGraph(function)
    labels = function.block_labels()

    # gen/kill per block.
    all_defs_by_var: Dict[str, Set[Definition]] = {}
    for point, inst in function.instructions():
        for name in inst.defs():
            all_defs_by_var.setdefault(name, set()).add(Definition(name, point))
    for param in function.params:
        all_defs_by_var.setdefault(param, set()).add(Definition(param, PARAM_POINT))

    block_gen: Dict[str, Set[Definition]] = {}
    block_kill: Dict[str, Set[Definition]] = {}
    for label in labels:
        gen: Dict[str, Definition] = {}
        kill: Set[Definition] = set()
        block = function.blocks[label]
        for index, inst in enumerate(block.instructions):
            point = ProgramPoint(label, index)
            for name in inst.defs():
                kill |= all_defs_by_var.get(name, set())
                gen[name] = Definition(name, point)
        block_gen[label] = set(gen.values())
        block_kill[label] = kill

    entry_defs = frozenset(
        Definition(param, PARAM_POINT) for param in function.params
    )

    block_in: Dict[str, Set[Definition]] = {label: set() for label in labels}
    block_out: Dict[str, Set[Definition]] = {label: set() for label in labels}
    block_in[function.entry_label] = set(entry_defs)

    order = reverse_postorder(cfg)
    changed = True
    while changed:
        changed = False
        for label in order:
            incoming: Set[Definition] = set(entry_defs) if label == function.entry_label else set()
            for pred in cfg.preds(label):
                incoming |= block_out[pred]
            out = block_gen[label] | (incoming - block_kill[label])
            if incoming != block_in[label] or out != block_out[label]:
                block_in[label] = incoming
                block_out[label] = out
                changed = True

    # Refine within blocks.
    reach_in: Dict[ProgramPoint, FrozenSet[Definition]] = {}
    reach_out: Dict[ProgramPoint, FrozenSet[Definition]] = {}
    for label in labels:
        block = function.blocks[label]
        current: Set[Definition] = set(block_in[label])
        for index, inst in enumerate(block.instructions):
            point = ProgramPoint(label, index)
            reach_in[point] = frozenset(current)
            for name in inst.defs():
                current -= all_defs_by_var.get(name, set())
                current.add(Definition(name, point))
            reach_out[point] = frozenset(current)

    return ReachingDefinitions(function, reach_in, reach_out)
