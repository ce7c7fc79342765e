"""Compensation code: the glue that realigns state during an OSR transition.

A compensation code ``c`` is an ordered sequence of pure assignments.  It
reads variables of the *source* environment (live variables at the OSR
origin, plus any values the ``avail`` strategy keeps alive) and computes
the variables that must be defined for execution to resume at the OSR
destination.  The paper stresses that ``c`` runs in O(1) time — it is a
straight-line program with no loops — and Table 3 reports its size; the
:meth:`CompensationCode.size` metric is exactly that |c| (number of
generated assignments).

The same object can be rendered in two forms:

* applied directly to a Python dict environment (used by the interpreter
  and the bisimulation/soundness tests), or
* as a list of IR ``Assign`` instructions (so OSRKit can splice it into a
  continuation function's entry block).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Tuple

from ..ir.expr import Expr, evaluate, free_vars
from ..ir.instructions import Assign

__all__ = ["CompensationCode"]


@dataclass(frozen=True)
class CompensationCode:
    """An ordered list of ``dest = expr`` assignments.

    ``keep_alive`` records the variables the ``avail`` reconstruction
    strategy requires to be artificially kept alive at the OSR source
    (the paper's ``K_avail`` set); it is empty for ``live`` reconstructions.
    """

    assignments: Tuple[Tuple[str, Expr], ...] = ()
    keep_alive: FrozenSet[str] = frozenset()

    # ------------------------------------------------------------------ #
    # Construction helpers.
    # ------------------------------------------------------------------ #
    @staticmethod
    def empty() -> "CompensationCode":
        return CompensationCode()

    @staticmethod
    def of(
        assignments: Iterable[Tuple[str, Expr]],
        keep_alive: Iterable[str] = (),
    ) -> "CompensationCode":
        return CompensationCode(tuple(assignments), frozenset(keep_alive))

    def then(self, other: "CompensationCode") -> "CompensationCode":
        """Sequential composition ``self ; other`` (used by mapping composition)."""
        return CompensationCode(
            self.assignments + other.assignments,
            self.keep_alive | other.keep_alive,
        )

    # ------------------------------------------------------------------ #
    # Metrics (Table 3).
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """|c|: the number of assignments in the compensation code."""
        return len(self.assignments)

    def is_empty(self) -> bool:
        return not self.assignments

    def defined_variables(self) -> List[str]:
        return [dest for dest, _ in self.assignments]

    def input_variables(self) -> FrozenSet[str]:
        """Variables the compensation code reads from the source environment."""
        needed: set = set()
        defined: set = set()
        for dest, expr in self.assignments:
            needed |= free_vars(expr) - defined
            defined.add(dest)
        return frozenset(needed)

    # ------------------------------------------------------------------ #
    # The two renderings.
    # ------------------------------------------------------------------ #
    def apply_to(self, env: Mapping[str, int]) -> Dict[str, int]:
        """Run the compensation code on a source environment.

        Returns a *new* environment: the source bindings plus every
        variable the compensation code defines.  The caller typically
        restricts the result to the live variables of the OSR destination.
        """
        result = dict(env)
        for dest, expr in self.assignments:
            result[dest] = evaluate(expr, result)
        return result

    def to_ir_instructions(self) -> List[Assign]:
        """Render as IR assignments (for a continuation function's entry block)."""
        return [Assign(dest, expr) for dest, expr in self.assignments]
