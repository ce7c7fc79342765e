"""First-order CTL formulas over program points (Section 2.2).

Formulas are built from atomic predicates (arbitrary point predicates
supplied by the caller), Boolean connectives and the temporal operators of
the paper:

* forward:  ``AX``, ``EX``, ``A(φ U ψ)``, ``E(φ U ψ)``
* backward: ``bAX``, ``bEX``, ``bA(φ U ψ)``, ``bE(φ U ψ)``
  (written ←AX, ←EX, ←A, ←E in the paper)

The *strong until* convention is used: ``φ U ψ`` requires ψ to eventually
hold; a maximal path that never satisfies ψ does not satisfy the until.
The model checker lives in :mod:`repro.ctl.checker`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, TypeVar

__all__ = [
    "Formula",
    "Atom",
    "TrueFormula",
    "FalseFormula",
    "Not",
    "And",
    "Or",
    "Implies",
    "AX",
    "EX",
    "AU",
    "EU",
    "BackAX",
    "BackEX",
    "BackAU",
    "BackEU",
    "TRUE",
    "FALSE",
]

P = TypeVar("P", bound=Hashable)


class Formula:
    """Base class for CTL formulas.

    Overloads ``&`` and ``|`` so side conditions read close to the
    paper's notation::

        cond = BackAX(BackAU(TRUE, defines("x"))) & EX(uses("x"))
    """

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)


@dataclass(frozen=True)
class Atom(Formula):
    """An atomic predicate over program points.

    ``name`` is only used for display; ``predicate`` maps a program point
    to a bool.  The point type is whatever the underlying graph uses
    (ints for formal programs).
    """

    name: str
    predicate: Callable[[object], bool]

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class TrueFormula(Formula):
    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class FalseFormula(Formula):
    def __str__(self) -> str:
        return "false"


TRUE = TrueFormula()
FALSE = FalseFormula()


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula

    def __str__(self) -> str:
        return f"¬({self.operand})"


@dataclass(frozen=True)
class And(Formula):
    lhs: Formula
    rhs: Formula

    def __str__(self) -> str:
        return f"({self.lhs} ∧ {self.rhs})"


@dataclass(frozen=True)
class Or(Formula):
    lhs: Formula
    rhs: Formula

    def __str__(self) -> str:
        return f"({self.lhs} ∨ {self.rhs})"


@dataclass(frozen=True)
class Implies(Formula):
    lhs: Formula
    rhs: Formula

    def __str__(self) -> str:
        return f"({self.lhs} ⇒ {self.rhs})"


@dataclass(frozen=True)
class AX(Formula):
    """Forward: the operand holds at *all* immediate successors."""

    operand: Formula

    def __str__(self) -> str:
        return f"AX({self.operand})"


@dataclass(frozen=True)
class EX(Formula):
    """Forward: the operand holds at *some* immediate successor."""

    operand: Formula

    def __str__(self) -> str:
        return f"EX({self.operand})"


@dataclass(frozen=True)
class AU(Formula):
    """Forward: on all paths, ``lhs`` holds until ``rhs`` holds (strong until)."""

    lhs: Formula
    rhs: Formula

    def __str__(self) -> str:
        return f"A({self.lhs} U {self.rhs})"


@dataclass(frozen=True)
class EU(Formula):
    """Forward: on some path, ``lhs`` holds until ``rhs`` holds (strong until)."""

    lhs: Formula
    rhs: Formula

    def __str__(self) -> str:
        return f"E({self.lhs} U {self.rhs})"


@dataclass(frozen=True)
class BackAX(Formula):
    """Backward ←AX: the operand holds at all immediate predecessors."""

    operand: Formula

    def __str__(self) -> str:
        return f"←AX({self.operand})"


@dataclass(frozen=True)
class BackEX(Formula):
    """Backward ←EX: the operand holds at some immediate predecessor."""

    operand: Formula

    def __str__(self) -> str:
        return f"←EX({self.operand})"


@dataclass(frozen=True)
class BackAU(Formula):
    """Backward ←A(φ U ψ): on all backward paths, φ until ψ."""

    lhs: Formula
    rhs: Formula

    def __str__(self) -> str:
        return f"←A({self.lhs} U {self.rhs})"


@dataclass(frozen=True)
class BackEU(Formula):
    """Backward ←E(φ U ψ): on some backward path, φ until ψ."""

    lhs: Formula
    rhs: Formula

    def __str__(self) -> str:
        return f"←E({self.lhs} U {self.rhs})"
