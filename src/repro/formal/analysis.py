"""Liveness and reaching definitions for the formal language.

These are the analyses needed by Sections 2–4 of the paper: ``live(p, l)``
(Definition 2.7) drives OSR mapping soundness and the LVE property, and
unique reaching definitions (the ``ud`` predicate) drive Algorithm 1.

The CTL-based definitions of Figure 3 are implemented separately in
:mod:`repro.ctl`; tests check that the dataflow implementation below and
the CTL formulation agree point-for-point, which reproduces the paper's
claim that the CTL formalism captures the standard analyses.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Set, Tuple

from .program import FAssign, FIn, FormalProgram

__all__ = [
    "formal_live_variables",
    "formal_reaching_definitions",
    "formal_unique_reaching_definition",
]

#: Pseudo-point used for definitions provided by the ``in`` instruction.
IN_POINT = 1


def formal_live_variables(program: FormalProgram) -> Dict[int, FrozenSet[str]]:
    """Live-variable sets for every program point (Definition 2.7).

    ``result[l]`` is the set of variables live *before* executing the
    instruction at point ``l``.  Point ``n + 1`` (program exit) is included
    with an empty set for convenience.
    """
    n = len(program)
    live: Dict[int, Set[str]] = {point: set() for point in range(1, n + 2)}

    changed = True
    while changed:
        changed = False
        for point in range(n, 0, -1):
            inst = program[point]
            out_set: Set[str] = set()
            for succ in program.successors(point):
                out_set |= live.get(succ, set())
            defined = inst.defined_variable()
            new_live = set(inst.used_variables()) | (
                out_set - ({defined} if defined else set())
            )
            if new_live != live[point]:
                live[point] = new_live
                changed = True
    return {point: frozenset(values) for point, values in live.items()}


def formal_reaching_definitions(
    program: FormalProgram,
) -> Dict[int, FrozenSet[Tuple[str, int]]]:
    """Reaching ``(variable, defining point)`` pairs before each point.

    Definitions come from assignments and from the ``in`` instruction
    (whose point is 1).
    """
    n = len(program)
    gen: Dict[int, Set[Tuple[str, int]]] = {}
    kill_var: Dict[int, Optional[str]] = {}
    for point in program.points():
        inst = program[point]
        if isinstance(inst, FAssign):
            gen[point] = {(inst.dest, point)}
            kill_var[point] = inst.dest
        elif isinstance(inst, FIn):
            gen[point] = {(name, point) for name in inst.variables}
            kill_var[point] = None
        else:
            gen[point] = set()
            kill_var[point] = None

    reach_in: Dict[int, Set[Tuple[str, int]]] = {point: set() for point in range(1, n + 2)}
    reach_out: Dict[int, Set[Tuple[str, int]]] = {point: set() for point in program.points()}

    changed = True
    while changed:
        changed = False
        for point in program.points():
            incoming: Set[Tuple[str, int]] = set()
            for pred in program.predecessors(point):
                incoming |= reach_out[pred]
            if incoming != reach_in[point]:
                reach_in[point] = incoming
                changed = True
            killed = kill_var[point]
            surviving = (
                {d for d in incoming if d[0] != killed} if killed else set(incoming)
            )
            out = gen[point] | surviving
            if out != reach_out[point]:
                reach_out[point] = out
                changed = True
    # Exit point n+1 sees whatever flows out of the out instruction.
    reach_in[n + 1] = set(reach_out[n])
    return {point: frozenset(defs) for point, defs in reach_in.items()}


def formal_unique_reaching_definition(
    program: FormalProgram, var: str, point: int
) -> Optional[int]:
    """The ``ud(x, p, l_d, l_r)`` predicate: the unique defining point, if any."""
    reaching = formal_reaching_definitions(program)[point]
    candidates = sorted(def_point for name, def_point in reaching if name == var)
    if len(candidates) == 1:
        return candidates[0]
    return None
