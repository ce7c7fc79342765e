"""The local predicates of Figure 3, as CTL atoms and derived formulas.

Each helper builds an :class:`~repro.ctl.formula.Atom` whose predicate
inspects the instruction at a program point of the linear language of
:mod:`repro.formal` (used by the Figure 5 rewrite rules and by the
CTL-vs-dataflow liveness tests).

``lives`` composes the atoms exactly as Figure 3 does::

    lives(x) ≜ ←AX ←A(true U def(x)) ∧ →E(¬def(x) U use(x))

i.e. *x is defined on every path reaching this point* and *some forward
path uses x before redefining it*.
"""

from __future__ import annotations


from ..formal.program import FAssign, FIn, FOut, FormalInstruction, FormalProgram
from ..ir.expr import Expr, free_vars
from .formula import Atom, BackAU, BackAX, EU, Formula, Not, TRUE

__all__ = [
    "formal_defines",
    "formal_uses",
    "formal_stmt",
    "formal_point_is",
    "formal_trans",
    "formal_lives",
]


def formal_defines(program: FormalProgram, var: str) -> Atom:
    """``def(x)``: the instruction at the point defines ``x``.

    Per Figure 3, both assignments to ``x`` and an ``in`` listing ``x``
    count as definitions.
    """

    def predicate(point: object) -> bool:
        inst = program[int(point)]  # type: ignore[arg-type]
        if isinstance(inst, FAssign):
            return inst.dest == var
        if isinstance(inst, FIn):
            return var in inst.variables
        return False

    return Atom(f"def({var})", predicate)


def formal_uses(program: FormalProgram, var: str) -> Atom:
    """``use(x)``: the instruction at the point reads ``x``.

    Assignments and conditional gotos use the variables of their
    expressions; ``out`` uses every output variable (Figure 3 lists
    ``out ...`` as a use).
    """

    def predicate(point: object) -> bool:
        inst = program[int(point)]  # type: ignore[arg-type]
        if isinstance(inst, FOut):
            return var in inst.variables
        return var in inst.used_variables()

    return Atom(f"use({var})", predicate)


def formal_stmt(program: FormalProgram, instruction: FormalInstruction) -> Atom:
    """``stmt(I)``: the instruction at the point equals ``I``."""

    def predicate(point: object) -> bool:
        return program[int(point)] == instruction  # type: ignore[arg-type]

    return Atom(f"stmt({instruction})", predicate)


def formal_point_is(target: int) -> Atom:
    """``point(m)``: the point is exactly ``m``."""

    return Atom(f"point({target})", lambda point: int(point) == target)  # type: ignore[arg-type]


def formal_trans(program: FormalProgram, expr: Expr) -> Atom:
    """``trans(e)``: the instruction at the point does not modify any
    constituent (free variable) of ``e``."""
    constituents = free_vars(expr)

    def predicate(point: object) -> bool:
        inst = program[int(point)]  # type: ignore[arg-type]
        defined = inst.defined_variable()
        if defined is not None and defined in constituents:
            return False
        if isinstance(inst, FIn) and any(v in constituents for v in inst.variables):
            return False
        return True

    return Atom(f"trans({expr})", predicate)


def formal_lives(program: FormalProgram, var: str) -> Formula:
    """``lives(x)`` exactly as composed in Figure 3."""
    defined = formal_defines(program, var)
    used = formal_uses(program, var)
    defined_on_all_backward_paths = BackAX(BackAU(TRUE, defined))
    used_before_redefined = EU(Not(defined), used)
    return defined_on_all_backward_paths & used_before_redefined
