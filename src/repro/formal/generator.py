"""Seeded random formal programs.

Used by the property-based tests of Theorem 3.2, the rewrite rules and
OSR mapping soundness; deterministic in ``seed``.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from ..ir.expr import BinOp, Const, Expr, Var
from .program import FAssign, FCondGoto, FIn, FOut, FSkip, FormalProgram

__all__ = ["random_formal_program"]


def random_formal_program(
    seed: int,
    *,
    length: int = 10,
    variables: Sequence[str] = ("x", "y", "z", "w"),
) -> FormalProgram:
    """Generate a random (terminating) formal program.

    All gotos jump forward, so every program terminates on every store —
    convenient for property-based testing of semantics-level claims.
    Inputs are the first two variables; the output is the last one
    assigned (falling back to an input).
    """
    rng = random.Random(seed)
    variables = list(variables)
    inputs = variables[:2]

    def expr(defined: Sequence[str]) -> Expr:
        roll = rng.random()
        if roll < 0.3 or not defined:
            return Const(rng.randint(-5, 9))
        if roll < 0.6:
            return Var(rng.choice(list(defined)))
        op = rng.choice(["add", "sub", "mul"])
        lhs = Var(rng.choice(list(defined))) if defined else Const(rng.randint(0, 5))
        rhs = Const(rng.randint(1, 4)) if rng.random() < 0.5 else (
            Var(rng.choice(list(defined))) if defined else Const(1)
        )
        return BinOp(op, lhs, rhs)

    body_len = max(3, length)
    instructions: List = [FIn(tuple(inputs))]
    defined = list(inputs)
    last_assigned = inputs[0]
    for position in range(2, body_len + 2):
        roll = rng.random()
        remaining = body_len + 2 - position
        if roll < 0.15 and remaining > 2:
            # Forward conditional jump (always to a later point, before out).
            target = rng.randint(position + 1, body_len + 1)
            instructions.append(FCondGoto(expr(defined), target))
        elif roll < 0.2:
            instructions.append(FSkip())
        else:
            dest = rng.choice(variables)
            instructions.append(FAssign(dest, expr(defined)))
            if dest not in defined:
                defined.append(dest)
            last_assigned = dest
    instructions.append(FOut((last_assigned,)))
    return FormalProgram(instructions)
