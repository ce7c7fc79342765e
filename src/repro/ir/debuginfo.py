"""Debug metadata: mapping source variables to IR registers.

The MiniC frontend lowers every source variable to a stack slot and
registers it here (the analogue of ``llvm.dbg.declare``).  When
``mem2reg`` promotes the slot, it records which register or constant
carries the variable's value at every surviving instruction (the analogue
of ``llvm.dbg.value``).  Bindings are keyed by instruction *uid* rather
than by program point, so they remain valid regardless of later edits to
cloned versions of the function — exactly the property LLVM metadata has
of being transparent to transformation passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .expr import Expr
from .function import Function, ProgramPoint

__all__ = ["SourceVariable", "DebugInfo"]


@dataclass(frozen=True)
class SourceVariable:
    """A scalar user variable of the source program."""

    name: str
    slot: str            # the alloca register that originally held it
    declared_line: int = 0


class DebugInfo:
    """Per-function debug metadata (source variables, bindings, locations)."""

    def __init__(self, function_name: str) -> None:
        self.function_name = function_name
        #: Declared source variables, in declaration order.
        self.variables: List[SourceVariable] = []
        self._by_slot: Dict[str, SourceVariable] = {}
        #: instruction uid → (source variable name → register/constant expression
        #: holding its value just before that instruction executes).
        self.bindings_by_uid: Dict[int, Dict[str, Expr]] = {}
        #: slot → SSA names created for it by mem2reg (informational).
        self.promotions: Dict[str, List[str]] = {}

    # ------------------------------------------------------------------ #
    # Population (frontend + mem2reg).
    # ------------------------------------------------------------------ #
    def declare_variable(self, name: str, slot: str, line: int = 0) -> SourceVariable:
        """Register a source variable and the stack slot that holds it."""
        variable = SourceVariable(name, slot, line)
        self.variables.append(variable)
        self._by_slot[slot] = variable
        return variable

    def record_promotion(self, slot: str, ssa_names: List[str]) -> None:
        """Called by mem2reg when a slot is promoted to SSA registers."""
        self.promotions[slot] = list(ssa_names)

    def record_binding(self, uid: int, slot: str, value: Expr) -> None:
        """Record that, just before instruction ``uid``, ``slot``'s variable is ``value``."""
        variable = self._by_slot.get(slot)
        if variable is None:
            return
        self.bindings_by_uid.setdefault(uid, {})[variable.name] = value

    # ------------------------------------------------------------------ #
    # Queries (debugger / Section 7 analysis).
    # ------------------------------------------------------------------ #
    def variable_names(self) -> List[str]:
        return [v.name for v in self.variables]

    def bindings_at(self, inst_uid: int) -> Dict[str, Expr]:
        """Source variable → value expression at the given instruction."""
        return dict(self.bindings_by_uid.get(inst_uid, {}))

    def source_points(self, function: Function) -> List[ProgramPoint]:
        """Program points of ``function`` that correspond to source locations.

        A point corresponds to a source location when its instruction has a
        source line attached — those are the positions at which a debugger
        could place a breakpoint.
        """
        return [
            point
            for point, inst in function.instructions()
            if inst.source_line is not None
        ]

    def __repr__(self) -> str:
        return (
            f"<DebugInfo @{self.function_name}: {len(self.variables)} variables, "
            f"{len(self.bindings_by_uid)} binding sites>"
        )
