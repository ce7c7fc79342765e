"""Aggressive dead code elimination (ADCE).

Marks instructions that are *observably* required — stores, calls,
terminators, returns, aborts and allocas — then transitively marks the
definitions of every register those instructions use.  Everything left
unmarked computes a value nobody can observe and is deleted.

This is the OSR-aware analogue of LLVM's ADCE: every deletion goes
through the CodeMapper, which records it so compensation code can
re-materialize the deleted values if a deoptimizing OSR needs them.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Set

from ..core.codemapper import ActionKind, NullCodeMapper
from ..ir.function import Function
from ..ir.instructions import Instruction
from .base import Pass

__all__ = ["AggressiveDCE"]


class AggressiveDCE(Pass):
    """Delete pure instructions whose results are never (transitively) observed."""

    name = "ADCE"
    tracked_action_kinds = (ActionKind.DELETE,)

    def transform(self, function: Function, mapper: NullCodeMapper) -> bool:
        # Seed the liveness worklist with instructions that have effects the
        # outside world can observe.
        live: Set[int] = set()
        worklist = deque()
        defining: Dict[str, List[Instruction]] = {}
        for _, inst in function.instructions():
            for name in inst.defs():
                defining.setdefault(name, []).append(inst)
        for _, inst in function.instructions():
            if inst.is_terminator or inst.has_side_effects():
                live.add(inst.uid)
                worklist.append(inst)

        while worklist:
            inst = worklist.popleft()
            for name in inst.uses():
                for producer in defining.get(name, []):
                    if producer.uid not in live:
                        live.add(producer.uid)
                        worklist.append(producer)

        return mapper.delete_where(
            lambda inst: inst.uid not in live and not inst.is_terminator
        )
