"""Profile-guided speculation (SPEC): guard insertion + assumption rewriting.

This pass is the *client* of the OSR framework the paper's Section 5 is
building towards: an optimizer that assumes facts which are only probably
true, protected by ``guard`` instructions whose failure triggers a
deoptimizing OSR back to ``f_base``.

Two speculation kinds are implemented, driven by a
:class:`~repro.vm.profile.FunctionProfile` collected by the base tier:

* **assume-constant** — a register (or parameter) observed to always hold
  one value ``v`` gets a ``guard (x == v)`` right after its definition,
  and every *other* use of ``x`` is rewritten to the constant ``v``
  (a ``replace`` primitive action).  Downstream, ``constprop``/``sccp``
  fold the constant through and ``adce`` deletes what became dead.

* **assume-branch-direction** — a conditional branch observed to always
  go one way is rewritten into ``guard cond; jmp hot`` (``guard !cond``
  when the else-side is hot).  Blocks that become unreachable are
  deleted, which is where the speculative tier wins big: whole cold
  paths disappear from the optimized code.

Every guard registers a *deoptimization anchor* with the CodeMapper
(:meth:`~repro.core.codemapper.CodeMapper.record_guard_anchor`): the
original instruction whose program point a failing guard must deoptimize
to.  For branch guards that anchor is the replaced branch itself — the
guard has no surviving successor instruction in its block, so the generic
next-surviving-anchor correspondence would find nothing.

The pass must run *first* in the speculative pipeline, while the clone's
registers and program points still coincide with the profiled f_base.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.codemapper import ActionKind, NullCodeMapper
from ..ir.expr import BinOp, Const, Expr, UnOp, Var
from ..ir.function import BasicBlock, Function, ProgramPoint
from ..ir.instructions import Assign, Branch, Guard, Instruction, Jump, Phi
from .base import Pass

__all__ = ["SpeculativeGuards"]


class SpeculativeGuards(Pass):
    """Insert guards for profiled monomorphic values and biased branches."""

    name = "SPEC"
    tracked_action_kinds = (ActionKind.ADD, ActionKind.DELETE, ActionKind.REPLACE)

    def __init__(
        self,
        profile,
        *,
        min_samples: int = 4,
        min_ratio: float = 0.999,
        speculate_values: bool = True,
        speculate_branches: bool = True,
        exclude: Optional[set] = None,
    ) -> None:
        self.profile = profile
        self.min_samples = min_samples
        self.min_ratio = min_ratio
        self.speculate_values = speculate_values
        self.speculate_branches = speculate_branches
        #: Guard *reasons* never to speculate again — the adaptive
        #: runtime records a reason here after repeated failures refute
        #: the assumption at runtime, then recompiles without it.
        self.exclude = set(exclude or ())
        #: Guards inserted by the last ``run`` (for tests and stats).
        self.inserted_guards: List[Guard] = []

    # ------------------------------------------------------------------ #
    # Entry point.
    # ------------------------------------------------------------------ #
    def transform(self, function: Function, mapper: NullCodeMapper) -> bool:
        self.inserted_guards = []
        if self.profile is None:
            return False

        # Resolve profiled branch points to instruction objects *before*
        # guard insertion shifts any indices: the profile addressed the
        # f_base layout, which the untouched clone still shares.
        biased = (
            self.profile.biased_branches(
                min_samples=self.min_samples, min_ratio=self.min_ratio
            )
            if self.speculate_branches
            else {}
        )
        branch_plan: List[Tuple[BasicBlock, Branch, bool]] = []
        for block in function.iter_blocks():
            term = block.terminator
            if not isinstance(term, Branch) or term.then_target == term.else_target:
                continue
            point = ProgramPoint(block.label, len(block.instructions) - 1)
            if point in biased and not isinstance(term.cond, Const):
                branch_plan.append((block, term, biased[point]))

        changed = False
        if self.speculate_values:
            changed = self._speculate_values(function, mapper) or changed
        for block, branch, direction in branch_plan:
            changed = self._speculate_branch(function, mapper, block, branch, direction) or changed
        if branch_plan:
            mapper.remove_unreachable_blocks()
        return changed

    # ------------------------------------------------------------------ #
    # Assume-constant speculation.
    # ------------------------------------------------------------------ #
    def _speculate_values(self, function: Function, mapper: NullCodeMapper) -> bool:
        candidates = self.profile.monomorphic_values(
            min_samples=self.min_samples, min_ratio=self.min_ratio
        )
        if not candidates:
            return False

        defined_at: Dict[str, Tuple[BasicBlock, int, Instruction]] = {}
        for block in function.iter_blocks():
            for index, inst in enumerate(block.instructions):
                for name in inst.defs():
                    defined_at[name] = (block, index, inst)

        #: (block, insertion index, guard, anchor) — applied back-to-front
        #: per block so earlier indices stay valid; anchors are captured at
        #: planning time, while every index still addresses an original
        #: (cloned) instruction.
        plan: List[Tuple[BasicBlock, int, Guard, Instruction]] = []
        speculated: Dict[str, Expr] = {}
        for name, value in sorted(candidates.items()):
            if not mapper.users_of(name):
                continue
            if name in function.params:
                block = function.entry
                insert_at = 0
            elif name in defined_at:
                block, index, inst = defined_at[name]
                if isinstance(inst, Assign) and isinstance(inst.expr, Const):
                    continue  # already a constant: nothing to speculate
                insert_at = index + 1
                if isinstance(inst, Phi):
                    # Guards may not sit inside a block's leading phi run.
                    insert_at = len(block.phis())
            else:
                continue
            reason = f"assume-constant {name} == {value}"
            if reason in self.exclude:
                continue
            guard = Guard(BinOp("eq", Var(name), Const(value)), reason=reason)
            plan.append((block, insert_at, guard, block.instructions[insert_at]))
            speculated[name] = Const(value)

        if not plan:
            return False

        for block, insert_at, guard, anchor in sorted(
            plan, key=lambda item: item[1], reverse=True
        ):
            mapper.insert(block, insert_at, guard, f"speculate in {block.label}")
            mapper.record_guard_anchor(guard, anchor)
            self.inserted_guards.append(guard)

        # Rewrite every use outside the guards themselves: the guard must
        # keep reading the real register so it stays live for deopt.
        for name, value in speculated.items():
            mapper.replace_all_uses(name, value, skip=Guard)
        return True

    # ------------------------------------------------------------------ #
    # Assume-branch-direction speculation.
    # ------------------------------------------------------------------ #
    def _speculate_branch(
        self,
        function: Function,
        mapper: NullCodeMapper,
        block: BasicBlock,
        branch: Branch,
        direction: bool,
    ) -> bool:
        if block.terminator is not branch:
            return False  # a value guard landed after it, or it was rewritten
        hot = branch.then_target if direction else branch.else_target
        reason = (
            f"assume-branch {block.label} -> {hot} "
            f"({'then' if direction else 'else'} side hot)"
        )
        if reason in self.exclude:
            return False
        guard_cond = branch.cond if direction else UnOp("not", branch.cond)
        guard = Guard(guard_cond, reason=reason)
        jump = Jump(hot)

        mapper.insert(
            block, len(block.instructions) - 1, guard, f"speculate branch in {block.label}"
        )
        mapper.record_guard_anchor(guard, branch)
        self.inserted_guards.append(guard)
        # The cold edge goes with the branch; ``transform`` prunes it from the
        # cold successor's phis with the blocks that became unreachable.
        mapper.replace_terminator(block, jump, f"speculated branch in {block.label}")
        return True
