"""Basic blocks, functions, modules and program points.

A :class:`Function` is an ordered collection of labelled
:class:`BasicBlock`\\ s; the first block is the entry.  Program points are
``(block label, index)`` pairs addressing a single instruction, mirroring
the per-instruction program points of the paper's formal language while
staying stable under edits to *other* blocks.

Cloning a function (``Function.clone``) returns both the clone and a
uid-to-uid correspondence for its instructions; the
:class:`~repro.core.codemapper.CodeMapper` builds on that correspondence to
relate program points and virtual registers across versions, as the
paper's ``apply`` step does for LLVM functions (Section 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .instructions import Instruction, Phi, Terminator

__all__ = ["ProgramPoint", "BasicBlock", "Function", "Module"]


@dataclass(frozen=True, order=True)
class ProgramPoint:
    """A program point: instruction ``index`` within block ``block``."""

    block: str
    index: int

    def __str__(self) -> str:
        return f"{self.block}:{self.index}"

    @classmethod
    def parse(cls, text: str) -> "ProgramPoint":
        """Inverse of ``str``: ``"block:index"`` → :class:`ProgramPoint`.

        Block labels never contain ``:`` so the rightmost colon is
        unambiguous.  Serialization codecs (profiles, OSR artifacts) use
        this as the canonical textual key for a point.
        """
        block, _, index = text.rpartition(":")
        if not block:
            raise ValueError(f"malformed program point {text!r}")
        return cls(block, int(index))


class BasicBlock:
    """A labelled straight-line sequence of instructions ending in a terminator."""

    def __init__(self, label: str, instructions: Optional[Iterable[Instruction]] = None) -> None:
        self.label = label
        self.instructions: List[Instruction] = list(instructions or [])

    # ------------------------------------------------------------------ #
    # Structural queries.
    # ------------------------------------------------------------------ #
    @property
    def terminator(self) -> Optional[Terminator]:
        """The terminator, or ``None`` if the block is still under construction."""
        if self.instructions and isinstance(self.instructions[-1], Terminator):
            return self.instructions[-1]
        return None

    def successors(self) -> Tuple[str, ...]:
        term = self.terminator
        return term.successors() if term is not None else ()

    def phis(self) -> List[Phi]:
        """The (possibly empty) leading run of phi instructions."""
        result: List[Phi] = []
        for inst in self.instructions:
            if isinstance(inst, Phi):
                result.append(inst)
            else:
                break
        return result

    # ------------------------------------------------------------------ #
    # Mutation helpers used by passes.
    # ------------------------------------------------------------------ #
    def append(self, inst: Instruction) -> Instruction:
        self.instructions.append(inst)
        return inst

    def insert(self, index: int, inst: Instruction) -> Instruction:
        self.instructions.insert(index, inst)
        return inst

    def remove(self, inst: Instruction) -> None:
        self.instructions.remove(inst)

    def copy(self) -> Tuple["BasicBlock", Dict[int, int]]:
        """Deep-copy the block; return it plus an old-uid → new-uid map."""
        uid_map: Dict[int, int] = {}
        new_insts: List[Instruction] = []
        for inst in self.instructions:
            clone = inst.copy()
            clone.source_line = inst.source_line
            uid_map[inst.uid] = clone.uid
            new_insts.append(clone)
        return BasicBlock(self.label, new_insts), uid_map

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __str__(self) -> str:
        lines = [f"{self.label}:"]
        lines.extend(f"  {inst}" for inst in self.instructions)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<BasicBlock {self.label} ({len(self.instructions)} insts)>"


class Function:
    """An IR function: parameters plus an ordered set of basic blocks."""

    def __init__(self, name: str, params: Sequence[str] = ()) -> None:
        self.name = name
        self.params: List[str] = list(params)
        self.blocks: Dict[str, BasicBlock] = {}
        self._block_order: List[str] = []
        #: Arbitrary per-function metadata.  The frontend stores
        #: :class:`~repro.ir.debuginfo.DebugInfo` here under the
        #: key ``"debug"``; passes must not consult it (it is transparent,
        #: like LLVM debug metadata).
        self.metadata: Dict[str, object] = {}
        self._label_counter = 0
        self._temp_counter = 0

    # ------------------------------------------------------------------ #
    # Block management.
    # ------------------------------------------------------------------ #
    @property
    def entry_label(self) -> str:
        if not self._block_order:
            raise ValueError(f"function {self.name} has no blocks")
        return self._block_order[0]

    @property
    def entry(self) -> BasicBlock:
        return self.blocks[self.entry_label]

    def block_labels(self) -> List[str]:
        return list(self._block_order)

    def add_block(self, label: str, *, after: Optional[str] = None) -> BasicBlock:
        if label in self.blocks:
            raise ValueError(f"duplicate block label {label!r} in {self.name}")
        block = BasicBlock(label)
        self.blocks[label] = block
        if after is None:
            self._block_order.append(label)
        else:
            self._block_order.insert(self._block_order.index(after) + 1, label)
        return block

    def remove_block(self, label: str) -> None:
        if label == self.entry_label:
            raise ValueError("cannot remove the entry block")
        del self.blocks[label]
        self._block_order.remove(label)

    def block(self, label: str) -> BasicBlock:
        return self.blocks[label]

    def fresh_label(self, hint: str = "bb") -> str:
        while True:
            self._label_counter += 1
            label = f"{hint}{self._label_counter}"
            if label not in self.blocks:
                return label

    def fresh_temp(self, hint: str = "t") -> str:
        existing = self.defined_variables() | set(self.params)
        while True:
            self._temp_counter += 1
            name = f"%{hint}{self._temp_counter}"
            if name not in existing:
                return name

    # ------------------------------------------------------------------ #
    # Instruction / point queries.
    # ------------------------------------------------------------------ #
    def iter_blocks(self) -> Iterator[BasicBlock]:
        for label in self._block_order:
            yield self.blocks[label]

    def instructions(self) -> Iterator[Tuple[ProgramPoint, Instruction]]:
        """Iterate all instructions with their program points, in layout order."""
        for block in self.iter_blocks():
            for index, inst in enumerate(block.instructions):
                yield ProgramPoint(block.label, index), inst

    def program_points(self) -> List[ProgramPoint]:
        return [point for point, _ in self.instructions()]

    def instruction_at(self, point: ProgramPoint) -> Instruction:
        return self.blocks[point.block].instructions[point.index]

    def point_of(self, inst: Instruction) -> ProgramPoint:
        for point, candidate in self.instructions():
            if candidate is inst:
                return point
        raise ValueError(f"instruction {inst!r} not found in {self.name}")

    def find_by_uid(self, uid: int) -> Optional[Tuple[ProgramPoint, Instruction]]:
        for point, inst in self.instructions():
            if inst.uid == uid:
                return point, inst
        return None

    def num_instructions(self) -> int:
        return sum(len(block) for block in self.iter_blocks())

    def num_phis(self) -> int:
        return sum(
            1 for _, inst in self.instructions() if isinstance(inst, Phi)
        )

    def defined_variables(self) -> set:
        """All registers defined anywhere in the function body."""
        names = set()
        for _, inst in self.instructions():
            names.update(inst.defs())
        return names

    # ------------------------------------------------------------------ #
    # Whole-function transforms.
    # ------------------------------------------------------------------ #
    def clone(self, new_name: Optional[str] = None) -> Tuple["Function", Dict[int, int]]:
        """Deep-copy the function.

        Returns ``(clone, uid_map)`` where ``uid_map`` maps the uid of every
        original instruction to the uid of its copy.  The metadata dict is
        shallow-copied (debug info describes source-level facts shared by
        both versions).
        """
        clone = Function(new_name or self.name, list(self.params))
        uid_map: Dict[int, int] = {}
        for label in self._block_order:
            new_block, block_map = self.blocks[label].copy()
            clone.blocks[label] = new_block
            clone._block_order.append(label)
            uid_map.update(block_map)
        clone.metadata = dict(self.metadata)
        clone._label_counter = self._label_counter
        clone._temp_counter = self._temp_counter
        return clone, uid_map

    def verify_has_terminators(self) -> None:
        for block in self.iter_blocks():
            if block.terminator is None:
                raise ValueError(
                    f"block {block.label} of function {self.name} lacks a terminator"
                )

    def __str__(self) -> str:
        header = f"func @{self.name}({', '.join(self.params)}) {{"
        body = "\n".join(str(self.blocks[label]) for label in self._block_order)
        return f"{header}\n{body}\n}}"

    def __repr__(self) -> str:
        return f"<Function @{self.name} ({len(self._block_order)} blocks)>"


class Module:
    """A collection of functions that can call each other by name."""

    def __init__(self, name: str = "module") -> None:
        self.name = name
        self.functions: Dict[str, Function] = {}

    def add(self, function: Function) -> Function:
        if function.name in self.functions:
            raise ValueError(f"duplicate function {function.name!r}")
        from .intrinsics import is_intrinsic

        if is_intrinsic(function.name):
            # Intrinsic names are reserved: both execution engines resolve
            # them before module functions, so a module definition would
            # silently never run — reject it loudly instead.
            raise ValueError(
                f"function name {function.name!r} is a reserved intrinsic "
                "(see repro.ir.intrinsics)"
            )
        self.functions[function.name] = function
        return function

    def get(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise KeyError(f"module {self.name!r} has no function {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.functions

    def __iter__(self) -> Iterator[Function]:
        return iter(self.functions.values())

    def __len__(self) -> int:
        return len(self.functions)

    def __str__(self) -> str:
        return "\n\n".join(str(f) for f in self.functions.values())

    def __repr__(self) -> str:
        return f"<Module {self.name!r} ({len(self.functions)} functions)>"
