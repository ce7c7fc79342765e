"""Superinstruction fusion: forward single-use temps into their consumer.

The frontend lowers ``mem[p] = a + b`` into an ``Assign`` of a fresh
temp followed by a ``Store`` of that temp, and every loop condition into
an ``Assign`` of a comparison followed by a ``Branch`` on it.  Both
engines then pay a register write plus a register read per execution for
a value nothing else ever looks at.  This pass rewrites such pairs into
single *superinstructions* at the IR level:

* ``t = a + b; store p, t``  →  ``store p, (a + b)``  (add + store)
* ``t = a < b; br t ? x : y``  →  ``br (a < b) ? x : y``  (compare + branch)

Because the rewrite happens in the IR, the interpreter and the compiled
backend observe *identical* environments afterwards — the temp simply no
longer exists in this version — so cross-backend parity is preserved by
construction.  Each pair is one CodeMapper ``delete`` that forwards the
value into its consumer; it is recorded like any DCE deletion, keeping
deoptimization mappings sound.

Guard conditions are never fused into: guards carry their condition
registers into deopt live state, and shrinking that state is the
mappings' job, not a peephole's.  (The closure compiler additionally
performs the compare+branch fusion at *emission* level for functions
that never went through a pipeline; see
:mod:`repro.analysis.fusion` for the shared candidate analysis.)
"""

from __future__ import annotations

from ..analysis.fusion import fusible_compare_branches, fusible_stores
from ..core.codemapper import ActionKind, NullCodeMapper
from ..ir.function import Function
from ..ir.instructions import Assign, Branch, Store
from .base import Pass

__all__ = ["SuperinstructionFusion"]


class SuperinstructionFusion(Pass):
    """Fuse adjacent single-use def/consumer pairs into one instruction."""

    name = "Fuse"
    tracked_action_kinds = (ActionKind.DELETE,)

    def transform(self, function: Function, mapper: NullCodeMapper) -> bool:
        changed = False

        # Add+store fusion: substitute the temp's expression into the
        # store's value operand, then drop the definition.
        for fused in fusible_stores(function):
            block = function.blocks[fused.block]
            assign = block.instructions[fused.assign_index]
            store = block.instructions[fused.assign_index + 1]
            if not isinstance(assign, Assign) or not isinstance(store, Store):
                continue  # the block changed shape since analysis
            mapper.delete(block, assign, into=store)
            changed = True

        # Compare+branch fusion: branch directly on the comparison.
        for label, fused in fusible_compare_branches(function).items():
            block = function.blocks[label]
            assign = block.instructions[-2]
            branch = block.instructions[-1]
            if not isinstance(assign, Assign) or not isinstance(branch, Branch):
                continue
            if assign.dest != fused.temp:
                continue
            mapper.delete(block, assign, into=branch)
            changed = True

        return changed
