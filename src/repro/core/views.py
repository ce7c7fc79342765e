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
* :class:`FunctionView` for block-IR functions (Section 5 onwards).

Keeping the algorithm independent of the representation mirrors the
paper's claim that the ideas "do not depend on a specific platform or IR
representation".
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, Optional, Tuple

from ..analysis.availability import AvailableValues, available_values
from ..analysis.liveness import LivenessInfo, live_variables
from ..analysis.reaching import ReachingDefinitions, reaching_definitions, PARAM_POINT
from ..ir.expr import Expr
from ..ir.function import Function, ProgramPoint
from ..ir.instructions import Assign, Phi

__all__ = ["ProgramView", "FunctionView"]


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
    """Program view over a block-IR function."""

    def __init__(self, function: Function) -> None:
        self.function = function
        self._live: LivenessInfo = live_variables(function)
        self._reaching: ReachingDefinitions = reaching_definitions(function)
        self._available: AvailableValues = available_values(function)
        # Detect SSA lazily at construction: post-mem2reg functions are in
        # SSA form, which lets reconstruct identify values with their
        # single definitions.
        from ..ir.verify import is_ssa

        self.single_assignment = is_ssa(function)

    def live_in(self, point: ProgramPoint) -> FrozenSet[str]:
        return self._live.live_in(point)

    def available_at(self, point: ProgramPoint) -> FrozenSet[str]:
        return self._available.available_at(point)

    def unique_reaching_definition(
        self, var: str, point: ProgramPoint
    ) -> Optional[ProgramPoint]:
        return self._reaching.unique_reaching_definition(var, point)

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

    @property
    def liveness(self) -> LivenessInfo:
        return self._live
