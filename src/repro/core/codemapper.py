"""CodeMapper: primitive-action tracking and cross-version correspondence.

Section 5.1 of the paper argues that, for LVE transformations, it is
enough to instrument optimization passes with five primitive actions —
``add``, ``delete``, ``hoist``, ``sink`` and ``replace`` — to be able to
build the program-point and variable mappings an OSR transition needs.
The :class:`CodeMapper` is the object every OSR-aware pass edits the
optimized clone of a function *through* (the ``OSR_CM`` object in the
paper's Figure 6 excerpt): each primitive action is one method that
performs the edit and records it, so the record cannot drift from the
IR.  Its base class :class:`NullCodeMapper` performs the same edits
without recording.

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

from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partialmethod
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..cfg.graph import ControlFlowGraph
from ..ir.expr import Expr, fold_constants, free_vars
from ..ir.function import BasicBlock, Function, ProgramPoint
from ..ir.instructions import Assign, Guard, Instruction, Phi
from ..ir.verify import NotSSAError, is_ssa

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


class NullCodeMapper:
    """Performs the five primitive actions on one function, recording nothing.

    The passes' one edit API: each method performs one edit and reports
    it in the same call, so the record cannot drift from the IR.
    :class:`CodeMapper` overrides the ``_record_*`` hooks to keep the
    record; here they do nothing (a pass run outside an OSR context).
    The edits apply to the function bound by :meth:`editing` and keep
    its register → users *use index* exact; the index is built with one
    walk on the first query, so ``replace_all_uses`` visits only users,
    and it is dropped when the editing session ends (one pass run
    alone, or a whole :class:`~repro.passes.PassManager` pipeline), so
    no finished version keeps one.
    """

    def __init__(self) -> None:
        #: The function the edit methods apply to.
        self.function: Optional[Function] = None
        #: register → instructions reading it, or ``None`` until queried.
        self._users: Optional[Dict[str, Set[Instruction]]] = None
        #: Open :meth:`editing` sessions (a pipeline's, then its pass's).
        self._sessions = 0

    @contextmanager
    def editing(self, function: Function) -> Iterator["NullCodeMapper"]:
        """Bind the edits to ``function``; the outermost session drops the index.

        The outermost session (one pass run alone, or a whole pipeline)
        checks once that ``function`` is in SSA form, which every pass
        and edit method assumes, and raises :class:`NotSSAError` if not.
        """
        if not self._sessions:
            if not is_ssa(function):
                raise NotSSAError(function.name)
            self.function, self._users = function, None
        self._sessions += 1
        try:
            yield self
        finally:
            self._sessions -= 1
            if not self._sessions:
                self._users = None

    # ------------------------------------------------------------------ #
    # Record hooks (CodeMapper keeps the record).
    # ------------------------------------------------------------------ #
    def _record_add(self, inst: Instruction, why: str) -> None:
        pass

    def _record_delete(self, inst: Instruction) -> None:
        pass

    def _record_move(self, kind: str, inst: Instruction, source: str, target: str) -> None:
        pass

    def _record_replace(self, old: str, new: Expr, at: Optional[Instruction]) -> None:
        pass

    def record_guard_anchor(self, guard: Instruction, anchor: Instruction) -> None:
        pass

    def record_inlined_frame(self, frame: InlinedFrame) -> None:
        pass

    # ------------------------------------------------------------------ #
    # The use index.
    # ------------------------------------------------------------------ #
    def users_of(self, name: str) -> Set[Instruction]:
        """The instructions that read register ``name`` (do not mutate)."""
        if self._users is None:
            self._users = defaultdict(set)
            for _, inst in self.function.instructions():
                self._add_reads(inst)
        return self._users[name]

    def _add_reads(self, inst: Instruction, names: Optional[Iterable[str]] = None) -> None:
        """Index ``inst`` as a reader of ``names`` (default: all it reads)."""
        if self._users is not None:
            for name in inst.uses() if names is None else names:
                self._users[name].add(inst)

    def _drop_reads(self, inst: Instruction, names: Optional[Iterable[str]] = None) -> None:
        if self._users is not None:
            for name in inst.uses() if names is None else names:
                self._users[name].discard(inst)

    def _forget(self, inst: Instruction) -> None:
        self._drop_reads(inst)
        self._record_delete(inst)

    # ------------------------------------------------------------------ #
    # Primitive actions: each one edits the function and records itself.
    # ------------------------------------------------------------------ #
    def insert(self, block: BasicBlock, index: int, inst: Instruction, why: str = "") -> None:
        """Add ``inst`` at ``block.instructions[index]``."""
        block.instructions.insert(index, inst)
        self._add_reads(inst)
        self._record_add(inst, why)

    def delete(
        self, block: BasicBlock, inst: Instruction, into: Optional[Instruction] = None
    ) -> None:
        """Delete ``inst`` from ``block``.

        With ``into``, the assignment's value is first substituted into
        its single user ``into`` (superinstruction fusion): the register
        disappears with its definition, so no replace is recorded.
        """
        if into is not None:
            self._drop_reads(into, (inst.dest,))
            into.replace_uses({inst.dest: inst.expr})
            self._add_reads(into, free_vars(inst.expr))
        block.instructions.remove(inst)
        self._forget(inst)

    def delete_where(self, predicate: Callable[[Instruction], bool]) -> bool:
        """Delete every instruction ``predicate`` holds for; True if any."""
        deleted = False
        for block in self.function.iter_blocks():
            kept = []
            for inst in block.instructions:
                if predicate(inst):
                    self._forget(inst)
                    deleted = True
                else:
                    kept.append(inst)
            block.instructions = kept
        return deleted

    def _move(
        self, kind: str, inst: Instruction, source: BasicBlock, target: BasicBlock, index: int
    ) -> None:
        """Move ``inst`` from ``source`` to ``target.instructions[index]``."""
        source.instructions.remove(inst)
        target.instructions.insert(index, inst)
        self._record_move(kind, inst, source.label, target.label)

    #: ``hoist(inst, source, target, index)``: move to an earlier point.
    hoist = partialmethod(_move, ActionKind.HOIST)
    #: ``sink(inst, source, target, index)``: move to a later point.
    sink = partialmethod(_move, ActionKind.SINK)

    def replace_all_uses(
        self,
        old: str,
        new: Expr,
        at: Optional[Instruction] = None,
        *,
        skip: Optional[type] = None,
    ) -> bool:
        """Replace every read of register ``old`` by ``new``; True if any.

        ``at`` is the instruction the replacement stems from (it goes
        into the record); users that are instances of ``skip`` keep
        reading ``old``.
        """
        users = self.users_of(old)
        rewritten = [user for user in users if skip is None or not isinstance(user, skip)]
        mapping, reads = {old: new}, free_vars(new)
        for user in rewritten:
            user.replace_uses(mapping)
            users.discard(user)
            self._add_reads(user, reads)
        self._record_replace(old, new, at)
        return bool(rewritten)

    def replace_uses_in(self, user: Instruction, old: str, new: Expr) -> bool:
        """Replace ``user``'s reads of ``old`` by ``new``, recorded if any."""
        if not user.replace_uses({old: new}):
            return False
        self._drop_reads(user, (old,))
        self._add_reads(user, free_vars(new))
        self._record_replace(old, new, user)
        return True

    def replace_terminator(self, block: BasicBlock, new: Instruction, why: str) -> None:
        """Swap ``block``'s terminator for ``new`` (a delete, then an add)."""
        self._forget(block.instructions[-1])
        block.instructions[-1] = new
        self._add_reads(new)
        self._record_add(new, why)

    def remove_unreachable_blocks(self) -> bool:
        """Delete the blocks the entry cannot reach and prune stale phi edges.

        Every instruction of a removed block is a recorded delete.  A phi
        loses the incoming edges of predecessors that no longer branch to
        its block (removed blocks, or a branch folded into a jump).
        Returns True when anything changed.
        """
        function = self.function
        cfg = ControlFlowGraph(function)
        reachable = cfg.reachable()
        unreachable = [label for label in function.block_labels() if label not in reachable]
        for label in unreachable:
            for inst in function.blocks[label].instructions:
                self._forget(inst)
            function.remove_block(label)
        pruned = False
        for block in function.iter_blocks():
            preds = {pred for pred in cfg.preds(block.label) if pred in reachable}
            for phi in block.phis():
                kept = {pred: value for pred, value in phi.incoming.items() if pred in preds}
                if len(kept) < len(phi.incoming):
                    self.set_incoming(phi, kept)
                    pruned = True
        return bool(unreachable) or pruned

    # ------------------------------------------------------------------ #
    # Unrecorded edits: they keep every value, so no action describes them.
    # ------------------------------------------------------------------ #
    def fold(self, inst: Instruction) -> bool:
        """Constant-fold an assignment or guard operand (it reads the same registers)."""
        if isinstance(inst, Assign):
            before, inst.expr = inst.expr, fold_constants(inst.expr)
            return inst.expr != before
        if isinstance(inst, Guard):
            before, inst.cond = inst.cond, fold_constants(inst.cond)
            return inst.cond != before
        return False

    def set_incoming(self, phi: Phi, incoming: Dict[str, Expr]) -> None:
        """Give ``phi`` a new predecessor → value map."""
        self._drop_reads(phi)
        phi.incoming = incoming
        self._add_reads(phi)

    def retarget(self, terminator: Instruction, mapping: Dict[str, str]) -> None:
        """Rewrite ``terminator``'s successor labels by ``mapping``."""
        terminator.retarget(mapping)

    def add_block(self, label: str, *, after: Optional[str] = None) -> BasicBlock:
        """Add an empty block (its instructions arrive through :meth:`insert`)."""
        return self.function.add_block(label, after=after)

    def split_block(self, block: BasicBlock, index: int, label: str, *, after: str) -> BasicBlock:
        """Move ``block.instructions[index:]`` into a new block ``label``.

        The tail keeps its instructions and the terminator, so the phis
        of its successors re-key their edge from ``block`` to ``label``.
        """
        tail = self.function.add_block(label, after=after)
        tail.instructions = block.instructions[index:]
        block.instructions = block.instructions[:index]
        for succ_label in tail.successors():
            succ = self.function.blocks.get(succ_label)
            if succ is not None:
                for phi in succ.phis():
                    phi.rename_predecessor(block.label, label)
        return tail


class CodeMapper(NullCodeMapper):
    """Performs the passes' edits on the optimized clone and records them."""

    def __init__(
        self,
        original: Function,
        optimized: Function,
        uid_map: Dict[int, int],
    ) -> None:
        super().__init__()
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
    # The record (the paper's OSR_CM object).
    # ------------------------------------------------------------------ #
    def _record_add(self, inst: Instruction, why: str) -> None:
        self.added.add(inst.uid)
        self.actions.append(PrimitiveAction(ActionKind.ADD, f"{inst} {why}".strip(), inst.uid))

    def _record_delete(self, inst: Instruction) -> None:
        if inst.uid in self.added:
            self.added.discard(inst.uid)
        else:
            self.deleted.add(inst.uid)
        self.actions.append(PrimitiveAction(ActionKind.DELETE, str(inst), inst.uid))

    def _record_move(self, kind: str, inst: Instruction, source: str, target: str) -> None:
        self.moved.add(inst.uid)
        self.actions.append(PrimitiveAction(kind, f"{inst}: {source} → {target}", inst.uid))

    def _record_replace(self, old: str, new: Expr, at: Optional[Instruction]) -> None:
        self.aliases[old] = new
        detail = f"{old} → {new}" + (f" (in {at})" if at is not None else "")
        self.actions.append(PrimitiveAction(ActionKind.REPLACE, detail, at.uid if at else None))

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
        """Register one speculatively inlined call site and its blocks (see the pass)."""
        self.inlined_frames.append(frame)
        for label in frame.block_map.values():
            self.block_frames[label] = frame.index

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


def clone_for_optimization(function: Function, suffix: str = ".opt") -> Tuple[Function, CodeMapper]:
    """Clone ``function`` and return the clone plus a CodeMapper linking the two.

    This is the paper's ``apply`` entry point for the IR level: passes edit
    the clone through the returned CodeMapper, which records every action;
    the original stays untouched and serves as the deoptimization target.
    """
    clone, uid_map = function.clone(function.name + suffix)
    return clone, CodeMapper(function, clone, uid_map)
