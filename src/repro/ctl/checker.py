"""A CTL model checker over program-point graphs.

The checker computes, for a formula φ, the set of program points at which
φ holds (``sat(φ)``), using the classic fixed-point characterizations:

* ``sat(EX φ)``   = points with a successor in ``sat(φ)``
* ``sat(AX φ)``   = points all of whose successors are in ``sat(φ)``
* ``sat(E φ U ψ)`` = least fixpoint of ``Z = sat(ψ) ∪ (sat(φ) ∩ EX Z)``
* ``sat(A φ U ψ)`` = least fixpoint of ``Z = sat(ψ) ∪ (sat(φ) ∩ AX Z ∩ EX true)``

The ``EX true`` conjunct in AU implements *strong* until on finite maximal
paths: a terminal point (no successors) satisfies ``A(φ U ψ)`` only via ψ.
Backward operators use predecessors instead of successors.

The graph is a :class:`FormalProgramGraph` (the points of a formal
program plus its successor edges), which is what Figure 3's predicates
and Figure 5's rewrite-rule side conditions are checked over.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Set, Tuple

from ..formal.program import FormalProgram
from .formula import (
    AU,
    AX,
    And,
    Atom,
    BackAU,
    BackAX,
    BackEU,
    BackEX,
    EU,
    EX,
    FalseFormula,
    Formula,
    Implies,
    Not,
    Or,
    TrueFormula,
)

__all__ = ["FormalProgramGraph", "ModelChecker"]


class FormalProgramGraph:
    """What the model checker needs from a formal (linear) program: its
    points (1-based ints) and the edges between them; the virtual exit
    point ``n + 1`` is not a point, and edges to it are dropped."""

    def __init__(self, program: FormalProgram) -> None:
        self.program = program
        self._points = list(program.points())
        self._succ: Dict[int, Tuple[int, ...]] = {}
        self._pred: Dict[int, List[int]] = {p: [] for p in self._points}
        n = len(program)
        for point in self._points:
            succs = tuple(s for s in program.successors(point) if 1 <= s <= n)
            self._succ[point] = succs
            for succ in succs:
                self._pred[succ].append(point)

    def points(self) -> List[int]:
        return list(self._points)

    def successors(self, point: int) -> Tuple[int, ...]:
        return self._succ.get(point, ())

    def predecessors(self, point: int) -> Tuple[int, ...]:
        return tuple(self._pred.get(point, ()))


class ModelChecker:
    """Evaluates CTL formulas over a :class:`FormalProgramGraph`."""

    def __init__(self, graph: FormalProgramGraph) -> None:
        self.graph = graph
        self._all_points = frozenset(graph.points())

    # ------------------------------------------------------------------ #
    # Public API.
    # ------------------------------------------------------------------ #
    def sat(self, formula: Formula) -> FrozenSet[int]:
        """The set of program points at which ``formula`` holds."""
        return self._sat(formula)

    def holds_at(self, point: int, formula: Formula) -> bool:
        """Does ``formula`` hold at ``point``?  (``p, l ⊨ φ`` in the paper.)"""
        return point in self._sat(formula)

    # ------------------------------------------------------------------ #
    # Recursive satisfaction-set computation.
    # ------------------------------------------------------------------ #
    def _sat(self, formula: Formula) -> FrozenSet[int]:
        if isinstance(formula, TrueFormula):
            return self._all_points
        if isinstance(formula, FalseFormula):
            return frozenset()
        if isinstance(formula, Atom):
            return frozenset(p for p in self._all_points if formula.predicate(p))
        if isinstance(formula, Not):
            return self._all_points - self._sat(formula.operand)
        if isinstance(formula, And):
            return self._sat(formula.lhs) & self._sat(formula.rhs)
        if isinstance(formula, Or):
            return self._sat(formula.lhs) | self._sat(formula.rhs)
        if isinstance(formula, Implies):
            return (self._all_points - self._sat(formula.lhs)) | self._sat(formula.rhs)
        if isinstance(formula, EX):
            return self._exists_next(self._sat(formula.operand), self.graph.successors)
        if isinstance(formula, AX):
            return self._all_next(self._sat(formula.operand), self.graph.successors)
        if isinstance(formula, BackEX):
            return self._exists_next(self._sat(formula.operand), self.graph.predecessors)
        if isinstance(formula, BackAX):
            return self._all_next(self._sat(formula.operand), self.graph.predecessors)
        if isinstance(formula, EU):
            return self._exists_until(
                self._sat(formula.lhs), self._sat(formula.rhs), self.graph.successors
            )
        if isinstance(formula, AU):
            return self._all_until(
                self._sat(formula.lhs), self._sat(formula.rhs), self.graph.successors
            )
        if isinstance(formula, BackEU):
            return self._exists_until(
                self._sat(formula.lhs), self._sat(formula.rhs), self.graph.predecessors
            )
        if isinstance(formula, BackAU):
            return self._all_until(
                self._sat(formula.lhs), self._sat(formula.rhs), self.graph.predecessors
            )
        raise TypeError(f"unknown formula {formula!r}")

    # ------------------------------------------------------------------ #
    # Operator implementations.
    # ------------------------------------------------------------------ #
    def _exists_next(
        self,
        target: FrozenSet[int],
        next_of: Callable[[int], Tuple[int, ...]],
    ) -> FrozenSet[int]:
        return frozenset(
            p for p in self._all_points if any(s in target for s in next_of(p))
        )

    def _all_next(
        self,
        target: FrozenSet[int],
        next_of: Callable[[int], Tuple[int, ...]],
    ) -> FrozenSet[int]:
        # Vacuously true at points with no next states (standard AX semantics).
        return frozenset(
            p for p in self._all_points if all(s in target for s in next_of(p))
        )

    def _exists_until(
        self,
        lhs: FrozenSet[int],
        rhs: FrozenSet[int],
        next_of: Callable[[int], Tuple[int, ...]],
    ) -> FrozenSet[int]:
        result: Set[int] = set(rhs)
        changed = True
        while changed:
            changed = False
            for p in self._all_points:
                if p in result or p not in lhs:
                    continue
                if any(s in result for s in next_of(p)):
                    result.add(p)
                    changed = True
        return frozenset(result)

    def _all_until(
        self,
        lhs: FrozenSet[int],
        rhs: FrozenSet[int],
        next_of: Callable[[int], Tuple[int, ...]],
    ) -> FrozenSet[int]:
        result: Set[int] = set(rhs)
        changed = True
        while changed:
            changed = False
            for p in self._all_points:
                if p in result or p not in lhs:
                    continue
                nexts = next_of(p)
                # Strong until: require at least one next state, all in result.
                if nexts and all(s in result for s in nexts):
                    result.add(p)
                    changed = True
        return frozenset(result)
