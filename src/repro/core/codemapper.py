"""CodeMapper: primitive-action tracking and cross-version correspondence.

Section 5.1 of the paper argues that, for LVE transformations, it is
enough to instrument optimization passes with five primitive actions —
``add``, ``delete``, ``hoist``, ``sink`` and ``replace`` — to be able to
build the program-point and variable mappings an OSR transition needs.
The :class:`CodeMapper` is the object every OSR-aware pass updates while
it mutates the optimized clone of a function (the ``OSR_CM`` object in the
paper's Figure 6 excerpt).

From the recorded actions and the uid correspondence produced by cloning,
the CodeMapper answers the two questions the OSR driver asks:

* *point correspondence*: given a point in one version, where should an
  OSR transition land in the other version?  A point maps to the location
  of the nearest following instruction in the same block that exists in
  both versions and has not been moved; deleted, inserted and hoisted/sunk
  instructions never serve as anchors, because the state realignment for
  them is exactly what the compensation code reconstructs.
* *register aliases*: ``replace`` actions record that a register of the
  optimized version was substituted by another operand, which
  ``reconstruct`` can exploit ("there is a live alias for a variable x
  that can be used in its place", Section 6.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..ir.expr import Expr
from ..ir.function import Function, ProgramPoint
from ..ir.instructions import Instruction

__all__ = [
    "ActionKind",
    "PrimitiveAction",
    "InlinedFrame",
    "CodeMapper",
    "NullCodeMapper",
    "clone_for_optimization",
]


class ActionKind:
    """The five primitive actions of Section 5.1."""

    ADD = "add"
    DELETE = "delete"
    HOIST = "hoist"
    SINK = "sink"
    REPLACE = "replace"

    ALL = (ADD, DELETE, HOIST, SINK, REPLACE)


@dataclass(frozen=True)
class PrimitiveAction:
    """One recorded IR manipulation."""

    kind: str
    detail: str = ""
    uid: Optional[int] = None


@dataclass
class InlinedFrame:
    """One speculatively inlined call site: the anchor of a virtual frame.

    The inlining pass splices a renamed copy of ``callee``'s body into
    the caller's optimized clone and records here everything the
    multi-frame deoptimization machinery needs to rebuild the callee's
    own frame when a guard fires inside the inlined code:

    * ``rename`` / ``uid_map`` / ``block_map`` — the injective renaming
      applied to the callee's registers, instructions and block labels;
    * ``call_uid`` — the uid of the ``call`` instruction (in the
      optimized clone) the splice replaced; its twin in the *parent*
      version locates the frame's return point;
    * ``parent`` — the enclosing frame's index for nested inlining
      (``None`` when the call site sits in straight caller code);
    * ``dest`` — the register (in optimized naming) the call's return
      value must land in when the reconstructed parent frame resumes;
    * ``param_args`` — callee parameter name → the call's argument
      expression as spelled at the site (in the enclosing context's
      naming).  When later passes fold the parameter-binding glue away,
      the deopt plan re-evaluates these expressions against the failing
      state to seed the callee frame (SSA guarantees an argument
      expression's inputs still hold their call-time values anywhere
      inside the inlined body).
    """

    index: int
    callee: Function
    dest: Optional[str]
    parent: Optional[int]
    call_uid: int
    rename: Dict[str, str]
    uid_map: Dict[int, int]
    block_map: Dict[str, str]
    param_args: Dict[str, Expr] = field(default_factory=dict)

    def inverse_rename(self) -> Dict[str, str]:
        """Optimized register name → callee register name."""
        return {new: old for old, new in self.rename.items()}


class CodeMapper:
    """Tracks IR updates applied to the optimized clone of a function."""

    def __init__(
        self,
        original: Function,
        optimized: Function,
        uid_map: Dict[int, int],
    ) -> None:
        self.original = original
        self.optimized = optimized
        #: original instruction uid → cloned (optimized) instruction uid.
        self.forward_uid: Dict[int, int] = dict(uid_map)
        self.backward_uid: Dict[int, int] = {v: k for k, v in uid_map.items()}
        #: uids (in the optimized function) deleted by passes.
        self.deleted: set = set()
        #: uids (in the optimized function) created by passes.
        self.added: set = set()
        #: uids (in the optimized function) moved by hoist/sink.
        self.moved: set = set()
        #: optimized-version register → operand it was replaced with.
        self.aliases: Dict[str, Expr] = {}
        #: guard uid (optimized) → *optimized-side* anchor instruction uid.
        #: Guards are *added* instructions with no twin in the original
        #: version, and a branch guard has no surviving successor anchor in
        #: its block either — so speculative passes record the deopt target
        #: explicitly (see :meth:`record_guard_anchor`).  The anchor is
        #: resolved to an original-version uid at query time through
        #: whichever backward uid map is asking: the caller's own map for
        #: guards in straight caller code, or an inlined frame's map for
        #: guards inside inlined callee bodies
        #: (:meth:`frame_mapper`).
        self.guard_anchors: Dict[int, int] = {}
        #: Per-site records of speculatively inlined callee bodies, in
        #: inlining order (see :class:`InlinedFrame`).  Populated by the
        #: inlining pass; consumed by the multi-frame deoptimization plan
        #: builder (:mod:`repro.core.frames`).
        self.inlined_frames: List["InlinedFrame"] = []
        #: Optimized block label → index of the inlined frame whose
        #: callee body the block belongs to.  Blocks absent from the map
        #: (including the splice continuation blocks, which hold the
        #: *parent* context's tail) belong to the caller.
        self.block_frames: Dict[str, int] = {}
        #: uid of a splice-glue instruction (argument binding, entry
        #: jump) → uid of the ``call`` the splice replaced.  A guard
        #: anchored to glue deoptimizes to the call itself: nothing of
        #: the callee has executed yet, so the base tier simply
        #: re-executes the whole call.
        self.splice_anchors: Dict[int, int] = {}
        self.actions: List[PrimitiveAction] = []
        #: Function → ``{uid: point}``, built on the first correspondence
        #: query that needs it (see :meth:`_uid_index`).
        self._uid_indexes: Dict[Function, Dict[int, ProgramPoint]] = {}

    # ------------------------------------------------------------------ #
    # Recording interface used by passes (mirrors the paper's OSR_CM).
    # ------------------------------------------------------------------ #
    def add_instruction(self, inst: Instruction, where: str = "") -> None:
        """Record insertion of a brand new instruction into the optimized code."""
        self.added.add(inst.uid)
        self.actions.append(PrimitiveAction(ActionKind.ADD, f"{inst} {where}".strip(), inst.uid))

    def delete_instruction(self, inst: Instruction) -> None:
        """Record deletion of an instruction from the optimized code."""
        if inst.uid in self.added:
            self.added.discard(inst.uid)
        else:
            self.deleted.add(inst.uid)
        self.actions.append(PrimitiveAction(ActionKind.DELETE, str(inst), inst.uid))

    def hoist_instruction(self, inst: Instruction, from_block: str, to_block: str) -> None:
        """Record that an instruction moved to an earlier location."""
        self.moved.add(inst.uid)
        self.actions.append(
            PrimitiveAction(ActionKind.HOIST, f"{inst}: {from_block} → {to_block}", inst.uid)
        )

    def sink_instruction(self, inst: Instruction, from_block: str, to_block: str) -> None:
        """Record that an instruction moved to a later location."""
        self.moved.add(inst.uid)
        self.actions.append(
            PrimitiveAction(ActionKind.SINK, f"{inst}: {from_block} → {to_block}", inst.uid)
        )

    def replace_all_uses_with(self, old: str, new: Expr, inst: Optional[Instruction] = None) -> None:
        """Record that uses of register ``old`` were replaced by operand ``new``."""
        self.aliases[old] = new
        detail = f"{old} → {new}" + (f" (in {inst})" if inst is not None else "")
        self.actions.append(
            PrimitiveAction(ActionKind.REPLACE, detail, inst.uid if inst else None)
        )

    def record_guard_anchor(self, guard: Instruction, anchor: Instruction) -> None:
        """Pin a guard's deoptimization target to an anchor instruction.

        ``anchor`` is an instruction of the optimized function that still
        has a twin in some base-tier version (a cloned caller instruction
        — possibly one the speculative pass is about to delete, like the
        branch a ``guard+jmp`` pair replaces — or the inlined copy of a
        callee instruction).  A failing guard deoptimizes to the anchor's
        program point in whichever base version the anchor translates
        into.
        """
        self.guard_anchors[guard.uid] = self.splice_anchors.get(anchor.uid, anchor.uid)

    def record_inlined_frame(self, frame: "InlinedFrame") -> None:
        """Register one speculatively inlined call site (see the pass)."""
        self.inlined_frames.append(frame)

    def frame_mapper(self, frame: "InlinedFrame") -> "CodeMapper":
        """A point-correspondence mapper from ``frame``'s callee into this clone.

        The returned mapper treats the callee's pristine f_base as the
        "original" version and the caller's optimized clone as the
        "optimized" version, linked by the uid map the inliner recorded
        when it copied the callee body.  ``moved``, ``deleted``,
        ``aliases`` and ``guard_anchors`` are *shared* with this mapper
        (uids are process-unique, so actions recorded by later passes
        against inlined instructions are visible through both), which is
        what lets :meth:`corresponding_original_point` resolve a point
        inside inlined code to the callee's own program point.
        """
        mapper = CodeMapper(frame.callee, self.optimized, frame.uid_map)
        mapper.moved = self.moved
        mapper.deleted = self.deleted
        mapper.aliases = self.aliases
        mapper.guard_anchors = self.guard_anchors
        mapper._uid_indexes = self._uid_indexes
        return mapper

    # ------------------------------------------------------------------ #
    # Statistics (Tables 1 and 2).
    # ------------------------------------------------------------------ #
    def action_counts(self) -> Dict[str, int]:
        counts = {kind: 0 for kind in ActionKind.ALL}
        for action in self.actions:
            counts[action.kind] += 1
        return counts

    # ------------------------------------------------------------------ #
    # Point correspondence.
    # ------------------------------------------------------------------ #
    def _uid_index(self, function: Function) -> Dict[int, ProgramPoint]:
        """``{uid: point}`` for ``function``, built once and then reused.

        Invariant: correspondence is only queried after the passes are
        done mutating the optimized clone — by ``osr_trans``, ``frames``
        and ``debug/endangered``, all after ``OSRTransDriver.run``
        returns — so an index never goes stale.  Frame mappers share the
        cache, so a function is indexed once per pipeline run.
        """
        index = self._uid_indexes.get(function)
        if index is None:
            index = self._uid_indexes[function] = self._build_uid_index(function)
        return index

    @staticmethod
    def _build_uid_index(function: Function) -> Dict[int, ProgramPoint]:
        return {inst.uid: point for point, inst in function.instructions()}

    def corresponding_optimized_point(self, point: ProgramPoint) -> Optional[ProgramPoint]:
        """Map a point of the *original* function to the optimized function.

        Returns ``None`` when no anchor instruction survives in the block
        (e.g. the whole block became unreachable and was removed), in
        which case OSR is not supported at that point.
        """
        return self._correspond(
            point,
            source=self.original,
            target=self.optimized,
            uid_translation=self.forward_uid,
            dropped=self.deleted,
        )

    def corresponding_original_point(self, point: ProgramPoint) -> Optional[ProgramPoint]:
        """Map a point of the *optimized* function back to the original.

        Guard instructions take their explicitly recorded deoptimization
        anchor (:meth:`record_guard_anchor`); everything else uses the
        generic next-surviving-instruction correspondence.
        """
        block = self.optimized.blocks.get(point.block)
        if block is not None and point.index < len(block.instructions):
            anchor_uid = self.guard_anchors.get(block.instructions[point.index].uid)
            if anchor_uid is not None:
                original_uid = self.backward_uid.get(anchor_uid)
                if original_uid is not None:
                    located = self._uid_index(self.original).get(original_uid)
                    if located is not None:
                        return self._skip_phi_run(self.original, located)
        return self._correspond(
            point,
            source=self.optimized,
            target=self.original,
            uid_translation=self.backward_uid,
            dropped=self.added,
        )

    def _correspond(
        self,
        point: ProgramPoint,
        *,
        source: Function,
        target: Function,
        uid_translation: Dict[int, int],
        dropped: set,
    ) -> Optional[ProgramPoint]:
        block = source.blocks.get(point.block)
        if block is None:
            return None
        target_index = self._uid_index(target)
        for index in range(point.index, len(block.instructions)):
            inst = block.instructions[index]
            if inst.uid in dropped:
                continue
            translated = uid_translation.get(inst.uid)
            if translated is None:
                continue
            if inst.uid in self.moved or translated in self.moved:
                # Hoisted/sunk instructions execute at a different position
                # in the other version; they cannot anchor a landing point.
                continue
            located = target_index.get(translated)
            if located is not None:
                return self._skip_phi_run(target, located)
        return None

    @staticmethod
    def _skip_phi_run(function: Function, point: ProgramPoint) -> ProgramPoint:
        """Move a landing point past a block's leading phi nodes.

        OSR transitions land *after* the phi run: the compensation code
        materializes the values the phis would have produced, so resuming
        in the middle of the run would re-evaluate them against an edge
        that was never taken.
        """
        from ..ir.instructions import Phi

        block = function.blocks[point.block]
        index = point.index
        while index < len(block.instructions) and isinstance(
            block.instructions[index], Phi
        ):
            index += 1
        if index == point.index:
            return point
        return ProgramPoint(point.block, index)

    def __repr__(self) -> str:
        counts = self.action_counts()
        summary = ", ".join(f"{kind}={counts[kind]}" for kind in ActionKind.ALL)
        return f"<CodeMapper @{self.original.name}: {summary}>"


class NullCodeMapper:
    """A no-op recorder, used when a pass runs outside an OSR context."""

    def add_instruction(self, inst: Instruction, where: str = "") -> None:  # noqa: D401
        pass

    def delete_instruction(self, inst: Instruction) -> None:
        pass

    def hoist_instruction(self, inst: Instruction, from_block: str, to_block: str) -> None:
        pass

    def sink_instruction(self, inst: Instruction, from_block: str, to_block: str) -> None:
        pass

    def replace_all_uses_with(self, old: str, new: Expr, inst: Optional[Instruction] = None) -> None:
        pass

    def record_guard_anchor(self, guard: Instruction, anchor: Instruction) -> None:
        pass

    def record_inlined_frame(self, frame: InlinedFrame) -> None:
        pass


def clone_for_optimization(function: Function, suffix: str = ".opt") -> Tuple[Function, CodeMapper]:
    """Clone ``function`` and return the clone plus a CodeMapper linking the two.

    This is the paper's ``apply`` entry point for the IR level: passes run
    on the clone and report their actions to the returned CodeMapper; the
    original stays untouched and serves as the deoptimization target.
    """
    clone, uid_map = function.clone(function.name + suffix)
    return clone, CodeMapper(function, clone, uid_map)
