"""The :class:`~repro.core.views.ProgramView` of a formal program.

Algorithm 1 (``reconstruct``) is written against ``ProgramView``; this
view answers its queries for the linear language of Sections 2–4, so the
same algorithm builds the compensation code of Theorem 4.6's mappings
(:func:`repro.rewrite.osr_trans_formal`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple

from ..core.views import ProgramView
from ..ir.expr import Expr
from .analysis import formal_live_variables, formal_reaching_definitions
from .program import FAssign, FIn, FormalProgram

__all__ = ["FormalView"]


class FormalView(ProgramView):
    """Program view over the formal linear language."""

    def __init__(self, program: FormalProgram) -> None:
        self.program = program
        self._live = formal_live_variables(program)
        self._reaching = formal_reaching_definitions(program)
        self._available = self._compute_available()

    def _compute_available(self) -> Dict[int, FrozenSet[str]]:
        """Forward must-analysis of defined-on-all-paths variables."""
        program = self.program
        universe = frozenset(program.variables())
        avail: Dict[int, FrozenSet[str]] = {point: universe for point in program.points()}
        avail[1] = frozenset()
        changed = True
        while changed:
            changed = False
            for point in program.points():
                if point == 1:
                    incoming: FrozenSet[str] = frozenset()
                else:
                    preds = program.predecessors(point)
                    if preds:
                        sets = []
                        for pred in preds:
                            inst = program[pred]
                            gen: FrozenSet[str]
                            if isinstance(inst, FAssign):
                                gen = frozenset({inst.dest})
                            elif isinstance(inst, FIn):
                                gen = frozenset(inst.variables)
                            else:
                                gen = frozenset()
                            sets.append(avail[pred] | gen)
                        incoming = frozenset.intersection(*sets)
                    else:
                        incoming = universe
                if incoming != avail[point]:
                    avail[point] = incoming
                    changed = True
        return avail

    def live_in(self, point: int) -> FrozenSet[str]:
        return self._live.get(point, frozenset())

    def available_at(self, point: int) -> FrozenSet[str]:
        return self._available.get(point, frozenset())

    def unique_reaching_definition(self, var: str, point: int) -> Optional[int]:
        defs = sorted(d for name, d in self._reaching[point] if name == var)
        if len(defs) == 1:
            return defs[0]
        return None

    def assignment_at(self, point: int) -> Optional[Tuple[str, Expr]]:
        inst = self.program[point]
        if isinstance(inst, FAssign):
            return inst.dest, inst.expr
        return None
