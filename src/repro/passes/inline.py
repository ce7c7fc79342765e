"""Speculative interprocedural inlining (INLINE).

Splices the bodies of hot callees into the caller's optimized clone so
the intraprocedural pipeline — speculation, constant folding, CSE, LICM,
DCE — can optimize *across* call boundaries.  Inlining is the aggressive
transformation the OSR literature singles out: it is sound for the
running code, but a guard failure inside an inlined body must
reconstruct a whole *stack* of base-tier frames (the callee's frame at
the mapped point plus every enclosing caller frame paused at its call
site), which is exactly what the per-site :class:`~repro.core.codemapper.InlinedFrame`
records feed (:mod:`repro.core.frames` builds the plans).

Mechanics per inlined site ``d = call @g(args)`` in block ``B``:

* the callee's f_base is cloned and renamed injectively — registers
  ``r`` become ``%inlK.<r>``, labels ``L`` become ``inlK.L`` — so the
  merged function stays in SSA form and the renaming is invertible
  (frame reconstruction depends on that);
* ``B`` is split at the call: the head keeps the instructions before the
  call and binds the renamed parameters to the argument expressions,
  then jumps to the inlined entry; the tail moves to a fresh
  ``inlK.cont`` block;
* every ``ret v`` in the copy becomes a jump to the continuation; the
  call's destination register is bound via an assignment in the single
  returning block, or a phi over all of them;
* the call is deleted and every spliced instruction added through the
  CodeMapper (``add`` primitive actions), and the frame record (rename,
  uid and block maps, parent frame, call uid) is registered with it.

Argument-binding glue is registered as a *splice anchor*: a guard later
inserted between the parameter bindings (a speculated argument value)
deoptimizes to the call instruction itself — nothing of the callee has
executed at that point, so the base tier just re-executes the call.

The pass must run *first* in the interprocedural pipeline, while the
clone's layout still coincides with the profiled f_base; it augments the
merged profile it is given with the callee's facts under renamed
registers/labels so :class:`~repro.passes.speculate.SpeculativeGuards`
can speculate inside inlined bodies.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..core.codemapper import ActionKind, InlinedFrame, NullCodeMapper
from ..ir.expr import Const, Expr, Var
from ..ir.function import BasicBlock, Function, ProgramPoint
from ..ir.instructions import Assign, Call, Instruction, Jump, Phi, Return
from ..ir.intrinsics import is_intrinsic
from .base import Pass

__all__ = ["InlineCalls", "rename_register"]


def _escape(name: str) -> str:
    """Injective escape of an IR register name (``_`` doubles, ``%`` → ``_p``)."""
    return name.replace("_", "__").replace("%", "_p")


def rename_register(tag: str, name: str) -> str:
    """The inlined name of callee register ``name`` under frame ``tag``."""
    return f"%{tag}.{_escape(name)}"


class InlineCalls(Pass):
    """Inline hot, profiled call sites into the caller's optimized clone."""

    name = "INLINE"
    tracked_action_kinds = (ActionKind.ADD, ActionKind.DELETE)

    def __init__(
        self,
        resolve: Optional[Callable[[str], Optional[Function]]] = None,
        caller_profile=None,
        *,
        callee_profile: Optional[Callable[[str], object]] = None,
        merged_profile=None,
        min_site_calls: int = 3,
        max_callee_size: int = 80,
        max_inline_depth: int = 2,
        max_growth: int = 400,
    ) -> None:
        #: Callee f_base lookup (usually the adaptive runtime's registry).
        self.resolve = resolve
        #: The caller's :class:`~repro.vm.profile.FunctionProfile` (call
        #: sites are read from here; layout must match f_base, which it
        #: does because this pass runs first).
        self.caller_profile = caller_profile
        #: Callee-name → FunctionProfile lookup, for nested decisions and
        #: profile merging.
        self.callee_profile = callee_profile or (lambda name: None)
        #: Profile copy to augment with renamed callee facts (the one the
        #: speculation pass will read).  May be the caller profile itself
        #: in throwaway pipelines; the runtime passes a clone.
        self.merged_profile = merged_profile
        self.min_site_calls = min_site_calls
        self.max_callee_size = max_callee_size
        self.max_inline_depth = max_inline_depth
        self.max_growth = max_growth
        #: Frames created by the last ``run`` (also recorded on the mapper).
        self.frames: List[InlinedFrame] = []

    # ------------------------------------------------------------------ #
    # Entry point.
    # ------------------------------------------------------------------ #
    def transform(self, function: Function, mapper: NullCodeMapper) -> bool:
        self.frames = []
        if self.resolve is None:
            return False
        if self.caller_profile is None:
            return False

        hot_sites = self.caller_profile.hot_call_sites(min_calls=self.min_site_calls)

        # Seed the worklist with the caller's own hot sites.  The clone's
        # layout still equals f_base's, so profiled points address the
        # right instructions; entries carry the instruction itself because
        # later splices move instructions between blocks.
        worklist: List[Tuple[Instruction, int, Optional[int], ProgramPoint]] = []
        for point, inst in function.instructions():
            if isinstance(inst, Call) and point in hot_sites:
                if hot_sites[point] == inst.callee:
                    worklist.append((inst, 1, None, point))

        grown = 0
        changed = False
        while worklist:
            call, depth, parent, profile_point = worklist.pop(0)
            if not isinstance(call, Call) or is_intrinsic(call.callee):
                continue
            callee = self.resolve(call.callee)
            if callee is None:
                continue
            size = callee.num_instructions()
            if size > self.max_callee_size or grown + size > self.max_growth:
                continue
            frame = self._inline_site(function, mapper, call, parent)
            if frame is None:
                continue
            grown += size
            changed = True
            self._augment_profile(frame, profile_point, parent)
            if depth < self.max_inline_depth:
                self._queue_nested(function, frame, depth, worklist)
        return changed

    # ------------------------------------------------------------------ #
    # The splice.
    # ------------------------------------------------------------------ #
    def _locate(self, function, call) -> Optional[Tuple[BasicBlock, int]]:
        for block in function.iter_blocks():
            for index, inst in enumerate(block.instructions):
                if inst is call:
                    return block, index
        return None

    def _inline_site(
        self,
        function: Function,
        mapper: NullCodeMapper,
        call: Call,
        parent: Optional[int],
    ) -> Optional[InlinedFrame]:
        located = self._locate(function, call)
        if located is None:
            return None
        host, call_index = located
        callee = self.resolve(call.callee)
        assert callee is not None
        if len(call.args) != len(callee.params):
            return None

        tag = f"inl{self._next_tag(function, callee)}"
        copy, uid_map, rename, block_map, cont_label, returns = _renamed_copy(function, callee, tag)
        if not returns:
            return None  # the callee never returns; leave the call alone

        # Splice the renamed blocks after the host block.
        insert_after = host.label
        for label in copy.block_labels():
            new_block = mapper.add_block(block_map[label], after=insert_after)
            for index, inst in enumerate(copy.blocks[label].instructions):
                mapper.insert(new_block, index, inst, f"inlined from @{callee.name}")
            insert_after = block_map[label]

        # The continuation takes the host tail after the call.
        cont = mapper.split_block(host, call_index + 1, cont_label, after=insert_after)
        self._set_block_frame(mapper, cont_label, parent)

        # Bind the call's destination from the returned value(s).
        why = f"return value of @{callee.name}"
        if call.dest is not None:
            if len(returns) == 1:
                ret_label, value = returns[0]
                ret_block = function.blocks[ret_label]
                bind = Assign(call.dest, value)
                mapper.insert(ret_block, len(ret_block.instructions) - 1, bind, why)
            else:
                bind = Phi(call.dest, {label: value for label, value in returns})
                mapper.insert(cont, 0, bind, why)

        # Argument binding + entry jump in the host block, which replace
        # the call.  Both are splice glue: guards landing between them
        # deoptimize to the call.
        glue: List[Instruction] = []
        for param, arg in zip(copy.params, call.args):
            glue.append(Assign(rename[param], arg))
            mapper.insert(host, len(host.instructions), glue[-1], f"argument of @{callee.name}")
        glue.append(Jump(block_map[copy.entry_label]))
        mapper.insert(host, len(host.instructions), glue[-1], f"enter inlined @{callee.name}")
        mapper.delete(host, call)

        frame = InlinedFrame(
            index=len(self.frames),
            callee=callee,
            dest=call.dest,
            parent=parent,
            call_uid=call.uid,
            rename=rename,
            uid_map=uid_map,
            block_map=block_map,
            param_args=dict(zip(copy.params, call.args)),
        )
        mapper.record_inlined_frame(frame)
        self.frames.append(frame)
        self._register_glue(mapper, glue, call.uid)
        return frame

    # ------------------------------------------------------------------ #
    # Mapper bookkeeping (graceful on NullCodeMapper).
    # ------------------------------------------------------------------ #
    def _next_tag(self, function: Function, callee: Function) -> int:
        count = len(self.frames)
        labels = function.block_labels() + callee.block_labels()
        while any(label.startswith(f"inl{count}.") for label in labels):
            count += 1
        return count

    @staticmethod
    def _set_block_frame(mapper: NullCodeMapper, label: str, frame_index: Optional[int]) -> None:
        block_frames = getattr(mapper, "block_frames", None)
        if block_frames is not None and frame_index is not None:
            block_frames[label] = frame_index

    @staticmethod
    def _register_glue(mapper: NullCodeMapper, glue: List[Instruction], call_uid: int) -> None:
        splice_anchors = getattr(mapper, "splice_anchors", None)
        if splice_anchors is None:
            return
        for inst in glue:
            splice_anchors[inst.uid] = call_uid

    # ------------------------------------------------------------------ #
    # Profile merging and nested sites.
    # ------------------------------------------------------------------ #
    def _augment_profile(
        self,
        frame: InlinedFrame,
        profile_point: Optional[ProgramPoint],
        parent: Optional[int],
    ) -> None:
        if self.merged_profile is None:
            return
        callee_prof = self.callee_profile(frame.callee.name)
        if callee_prof is None:
            return
        site_args = ()
        site_profile_owner = (
            self.caller_profile
            if parent is None
            else self.callee_profile(self.frames[parent].callee.name)
        )
        if site_profile_owner is not None and profile_point is not None:
            site = site_profile_owner.call_sites.get(profile_point)
            if site is not None:
                site_args = site.arg_values
        self.merged_profile.merge_renamed(
            callee_prof,
            rename=frame.rename,
            block_map=frame.block_map,
            params=list(frame.callee.params),
            site_args=site_args,
        )

    def _queue_nested(
        self,
        function: Function,
        frame: InlinedFrame,
        depth: int,
        worklist: List[Tuple[Instruction, int, Optional[int], ProgramPoint]],
    ) -> None:
        """Queue hot call sites of the freshly inlined body.

        Hotness is judged by the *callee's own* profile at the site's
        original point in the callee, which the uid map recovers.
        """
        callee_prof = self.callee_profile(frame.callee.name)
        if callee_prof is None:
            return
        hot = callee_prof.hot_call_sites(min_calls=self.min_site_calls)
        for callee_point, hot_callee in sorted(hot.items()):
            block = frame.callee.blocks.get(callee_point.block)
            if block is None or callee_point.index >= len(block.instructions):
                continue
            original = block.instructions[callee_point.index]
            if not isinstance(original, Call) or hot_callee != original.callee:
                continue
            copied_uid = frame.uid_map.get(original.uid)
            if copied_uid is None:
                continue
            located = function.find_by_uid(copied_uid)
            if located is not None:
                worklist.append((located[1], depth + 1, frame.index, callee_point))


def _renamed_copy(function: Function, callee: Function, tag: str):
    """A renamed private clone of ``callee``, its returns turned into jumps.

    No mapper sees the clone until its instructions are spliced into
    ``function`` through one, so it is edited directly.  Returns
    ``(copy, uid_map, rename, block_map, cont_label, returns)``, where
    ``returns`` lists ``(renamed block label, returned value)``.
    """
    copy, uid_map = callee.clone(callee.name)

    # Injective register renaming: defs, uses and parameters.
    registers = sorted(copy.defined_variables() | set(copy.params))
    rename = {reg: rename_register(tag, reg) for reg in registers}
    var_map = {old: Var(new) for old, new in rename.items()}
    for _, inst in copy.instructions():
        inst.replace_uses(var_map)
        inst.rename_def(rename)

    # Label renaming: terminator targets and phi predecessor keys
    # (rebuilt atomically so a pathological label can never be
    # renamed twice).
    block_map = {label: f"{tag}.{label}" for label in copy.block_labels()}
    for block in copy.iter_blocks():
        terminator = block.terminator
        if terminator is not None:
            terminator.retarget(block_map)
        for phi in block.phis():
            phi.incoming = {
                block_map.get(pred, pred): value
                for pred, value in phi.incoming.items()
            }

    # The continuation label must dodge both the caller's blocks and the
    # renamed callee blocks (a callee block literally named ``cont``
    # maps to ``{tag}.cont``).
    taken = set(function.blocks) | set(block_map.values())
    cont_label = f"{tag}.cont"
    suffix = 0
    while cont_label in taken:
        suffix += 1
        cont_label = f"{tag}.cont{suffix}"

    # The replacing jump inherits the return's uid-map slot so the end of
    # a returning block stays anchorable: deoptimizing there lands on the
    # callee's own ``ret``.
    inverse_uids = {new: old for old, new in uid_map.items()}
    returns: List[Tuple[str, Expr]] = []
    for label in copy.block_labels():
        block = copy.blocks[label]
        terminator = block.terminator
        if isinstance(terminator, Return):
            value = terminator.value if terminator.value is not None else Const(0)
            jump = Jump(cont_label)
            uid_map[inverse_uids[terminator.uid]] = jump.uid
            block.instructions[-1] = jump
            returns.append((block_map[label], value))
    return copy, uid_map, rename, block_map, cont_label, returns
