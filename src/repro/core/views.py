"""Uniform program views used by the OSR machinery.

``reconstruct`` (Algorithm 1) needs only a handful of queries about a
program version: live variables at a point, available (already computed)
values at a point, the unique reaching definition of a variable and the
right-hand side of that definition when it is a pure assignment.  The
:class:`ProgramView` protocol captures exactly those queries, and two
concrete views implement it:

* :class:`repro.formal.views.FormalView` for the linear language of
  Sections 2–4 (it lives beside that language: nothing here imports
  :mod:`repro.formal`), and
* :class:`FunctionView` for SSA block-IR functions (Section 5 onwards).
  It builds no tables up front: each query is answered where a
  transition asks it, from the definition map, the dominator tree and CFG
  reachability, with liveness the only fixed point.

Keeping the algorithm independent of the representation mirrors the
paper's claim that the ideas "do not depend on a specific platform or IR
representation".
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Optional, Set, Tuple

from ..analysis.liveness import LivenessInfo, live_variables
from ..cfg.dominance import DominatorTree
from ..cfg.graph import ControlFlowGraph
from ..ir.expr import Expr
from ..ir.function import Function, ProgramPoint
from ..ir.instructions import Assign, Phi

__all__ = ["ProgramView", "FunctionView", "PARAM_POINT"]

#: Sentinel program point representing "defined as a function parameter".
PARAM_POINT = ProgramPoint("<params>", 0)


class ProgramView:
    """The queries Algorithm 1 needs about one program version."""

    #: True when every variable has a single static definition (SSA); the
    #: reconstruction algorithm can then identify a register's value with
    #: its unique definition without extra reaching-definition checks.
    single_assignment: bool = False

    def live_in(self, point: Hashable) -> FrozenSet[str]:
        """Variables live just before ``point`` (the paper's ``live(p, l)``)."""
        raise NotImplementedError

    def available_at(self, point: Hashable) -> FrozenSet[str]:
        """Variables whose value has certainly been computed before ``point``."""
        raise NotImplementedError

    def unique_reaching_definition(self, var: str, point: Hashable) -> Optional[Hashable]:
        """The paper's ``ud`` predicate: the unique defining point, if any."""
        raise NotImplementedError

    def assignment_at(self, point: Hashable) -> Optional[Tuple[str, Expr]]:
        """``(dest, rhs)`` when the instruction at ``point`` is a pure assignment.

        Returns ``None`` for definitions whose value cannot be recomputed
        from other registers: loads, calls, allocas, parameters and phi
        nodes with genuinely multiple incoming values.  Phi nodes whose
        incoming values are all identical (e.g. the ones LCSSA inserts)
        are treated as the assignment of that single value — the special
        case Section 5.4 calls out as crucial for ``bullet``.
        """
        raise NotImplementedError


class FunctionView(ProgramView):
    """Program view over an SSA block-IR function, answered on demand.

    Construction only maps every register to its single defining point
    (each parameter to :data:`PARAM_POINT`); a second definition of a name
    raises ``ValueError``, so a view exists only for SSA IR.  On SSA the
    queries of Algorithm 1 need no dataflow fixed point except liveness:

    * ``ud(v, p)``: v's definition d reaches p iff d precedes p in the
      same block, or p's block is reachable from d's block along a
      non-empty CFG path (d's block itself reachable from the entry).
      This is reachability, not dominance: a loop body's definition
      reaches the loop exit through the back edge without dominating it.
      A parameter reaches p iff p's block is reachable from the entry.
    * ``avail(p)``: the parameters, the definitions of every block that
      strictly dominates p's block, and those earlier in p's own block.
      In a block no path reaches, every register is (vacuously) available.
    * ``live(p)``: :func:`live_variables`, run on first use.

    Points outside the function (an unknown block, an index out of range)
    answer ``None`` or the empty set.  Every answer is memoised on first
    use, which rests on two invariants:

    * the function is not mutated after the view is built: every
      construction site builds over finished IR;
    * each lazy fill assigns a finished object in one statement, so
      concurrent first queries can at worst compute an answer twice;
      they never see a partial one.
    """

    single_assignment = True

    def __init__(self, function: Function) -> None:
        self.function = function
        definitions: Dict[str, ProgramPoint] = dict.fromkeys(function.params, PARAM_POINT)
        for point, inst in function.instructions():
            for name in inst.defs():
                if name in definitions:
                    raise ValueError(
                        f"@{function.name} is not in SSA form: {name} is defined twice"
                    )
                definitions[name] = point
        self._definitions = definitions
        self._cfg: Optional[ControlFlowGraph] = None
        self._dominators: Optional[DominatorTree] = None
        self._liveness: Optional[LivenessInfo] = None
        #: Block → blocks reachable from it along a non-empty path.
        self._successor_closure: Dict[str, FrozenSet[str]] = {}
        #: Block → parameters plus the definitions of its strict dominators.
        self._dominating: Dict[str, FrozenSet[str]] = {
            function.entry_label: frozenset(function.params)
        }
        self._available: Dict[ProgramPoint, FrozenSet[str]] = {}

    @property
    def cfg(self) -> ControlFlowGraph:
        if self._cfg is None:
            self._cfg = ControlFlowGraph(self.function)
        return self._cfg

    @property
    def dominators(self) -> DominatorTree:
        if self._dominators is None:
            self._dominators = DominatorTree(self.cfg)
        return self._dominators

    @property
    def liveness(self) -> LivenessInfo:
        if self._liveness is None:
            self._liveness = live_variables(self.function, self.cfg)
        return self._liveness

    def live_in(self, point: ProgramPoint) -> FrozenSet[str]:
        return self.liveness.live_in(point)

    def available_at(self, point: ProgramPoint) -> FrozenSet[str]:
        available = self._available.get(point)
        if available is None:
            if not self._contains(point):
                return frozenset()
            if not self.dominators.is_reachable(point.block):
                available = frozenset(self._definitions)
            else:
                earlier = self.function.blocks[point.block].instructions[: point.index]
                available = self._dominating_definitions(point.block).union(
                    *(inst.defs() for inst in earlier)
                )
            self._available[point] = available
        return available

    def unique_reaching_definition(
        self, var: str, point: ProgramPoint
    ) -> Optional[ProgramPoint]:
        definition = self._definitions.get(var)
        if definition is None or not self._contains(point):
            return None
        if definition is PARAM_POINT:
            return definition if self.dominators.is_reachable(point.block) else None
        if definition.block == point.block and definition.index < point.index:
            return definition
        if self.dominators.is_reachable(definition.block) and point.block in (
            self._reachable_from(definition.block)
        ):
            return definition
        return None

    def assignment_at(self, point: ProgramPoint) -> Optional[Tuple[str, Expr]]:
        if point == PARAM_POINT:
            return None
        inst = self.function.instruction_at(point)
        if isinstance(inst, Assign):
            return inst.dest, inst.expr
        if isinstance(inst, Phi):
            values = list(inst.incoming.values())
            if values and all(v == values[0] for v in values[1:]):
                # A phi that always evaluates to the same value (e.g. an
                # LCSSA-inserted node) is just a copy of that value.
                return inst.dest, values[0]
        return None

    def _contains(self, point: ProgramPoint) -> bool:
        block = self.function.blocks.get(point.block)
        return block is not None and 0 <= point.index < len(block.instructions)

    def _reachable_from(self, label: str) -> FrozenSet[str]:
        closure = self._successor_closure.get(label)
        if closure is None:
            seen: Set[str] = set()
            work = list(self.cfg.succs(label))
            while work:
                block = work.pop()
                if block not in seen:
                    seen.add(block)
                    work.extend(self.cfg.succs(block))
            closure = self._successor_closure[label] = frozenset(seen)
        return closure

    def _dominating_definitions(self, label: str) -> FrozenSet[str]:
        """Parameters plus the definitions of every block strictly dominating ``label``."""
        idom = self.dominators.idom
        chain = []
        while label not in self._dominating:
            chain.append(label)
            label = idom[label]
        known = self._dominating[label]
        for block in reversed(chain):
            parent = self.function.blocks[idom[block]]
            known = self._dominating[block] = known.union(
                *(inst.defs() for inst in parent.instructions)
            )
        return known
