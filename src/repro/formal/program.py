"""The paper's minimal imperative language (Figure 1).

A *formal program* is a plain sequence of instructions indexed by program
points ``1..n``:

* ``I1`` must be ``in x y ...`` (declares the input variables),
* ``In`` must be ``out x y ...`` (declares the output variables),
* the instructions in between are assignments, (conditional) gotos,
  ``skip`` and ``abort``.

This representation exists alongside the block-structured IR because the
paper's Sections 2–4 (OSR mappings, LVE transformations, Algorithm 1 and
its correctness argument) are stated on this language; reproducing them
faithfully — including the rewrite rules of Figure 5 with CTL side
conditions — is easiest on the exact same syntax.  Section 5 onwards uses
the block IR (:mod:`repro.ir`).

Program points are 1-based integers, matching the paper's notation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.expr import Expr, free_vars
from ..ir.parser import parse_expr

__all__ = [
    "FormalInstruction",
    "FAssign",
    "FGoto",
    "FCondGoto",
    "FSkip",
    "FAbort",
    "FIn",
    "FOut",
    "FormalProgram",
    "parse_formal_program",
]


class FormalInstruction:
    """Base class of formal-language instructions."""

    def defined_variable(self) -> Optional[str]:
        """The variable written by this instruction, if any."""
        return None

    def used_variables(self) -> Tuple[str, ...]:
        """Variables read by this instruction."""
        return ()

    def renumbered(self, offset: int) -> "FormalInstruction":
        """A copy with every goto target shifted by ``offset``."""
        return self


@dataclass(frozen=True)
class FAssign(FormalInstruction):
    """``x := e``"""

    dest: str
    expr: Expr

    def defined_variable(self) -> Optional[str]:
        return self.dest

    def used_variables(self) -> Tuple[str, ...]:
        return tuple(sorted(free_vars(self.expr)))

    def __str__(self) -> str:
        return f"{self.dest} := {self.expr}"


@dataclass(frozen=True)
class FGoto(FormalInstruction):
    """``goto m``"""

    target: int

    def renumbered(self, offset: int) -> "FGoto":
        return FGoto(self.target + offset)

    def __str__(self) -> str:
        return f"goto {self.target}"


@dataclass(frozen=True)
class FCondGoto(FormalInstruction):
    """``if (e) goto m`` — jump when ``e`` evaluates to non-zero."""

    cond: Expr
    target: int

    def used_variables(self) -> Tuple[str, ...]:
        return tuple(sorted(free_vars(self.cond)))

    def renumbered(self, offset: int) -> "FCondGoto":
        return FCondGoto(self.cond, self.target + offset)

    def __str__(self) -> str:
        return f"if ({self.cond}) goto {self.target}"


@dataclass(frozen=True)
class FSkip(FormalInstruction):
    """``skip``"""

    def __str__(self) -> str:
        return "skip"


@dataclass(frozen=True)
class FAbort(FormalInstruction):
    """``abort``"""

    def __str__(self) -> str:
        return "abort"


@dataclass(frozen=True)
class FIn(FormalInstruction):
    """``in x y ...`` — the variables that must be defined on entry."""

    variables: Tuple[str, ...]

    def __str__(self) -> str:
        return "in " + " ".join(self.variables)


@dataclass(frozen=True)
class FOut(FormalInstruction):
    """``out x y ...`` — the variables returned as program output."""

    variables: Tuple[str, ...]

    def used_variables(self) -> Tuple[str, ...]:
        return tuple(self.variables)

    def __str__(self) -> str:
        return "out " + " ".join(self.variables)


class FormalProgram:
    """A program of the paper's minimal language (Definition 2.1)."""

    def __init__(self, instructions: Sequence[FormalInstruction]) -> None:
        instructions = list(instructions)
        if len(instructions) < 2:
            raise ValueError("a program needs at least an 'in' and an 'out' instruction")
        if not isinstance(instructions[0], FIn):
            raise ValueError("the first instruction must be 'in ...'")
        if not isinstance(instructions[-1], FOut):
            raise ValueError("the last instruction must be 'out ...'")
        for inst in instructions[1:-1]:
            if isinstance(inst, (FIn, FOut)):
                raise ValueError("'in'/'out' may only appear at the program boundaries")
        self.instructions: List[FormalInstruction] = instructions

    # ------------------------------------------------------------------ #
    # Basic accessors (1-based, matching the paper).
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, point: int) -> FormalInstruction:
        """Instruction at program point ``point`` (1-based)."""
        if not 1 <= point <= len(self.instructions):
            raise IndexError(f"program point {point} out of range 1..{len(self)}")
        return self.instructions[point - 1]

    def points(self) -> range:
        """All program points, ``1..n``."""
        return range(1, len(self.instructions) + 1)

    @property
    def input_variables(self) -> Tuple[str, ...]:
        first = self.instructions[0]
        assert isinstance(first, FIn)
        return first.variables

    @property
    def output_variables(self) -> Tuple[str, ...]:
        last = self.instructions[-1]
        assert isinstance(last, FOut)
        return last.variables

    def variables(self) -> Tuple[str, ...]:
        """All variables mentioned anywhere in the program."""
        names: Dict[str, None] = {}
        for inst in self.instructions:
            defined = inst.defined_variable()
            if defined is not None:
                names.setdefault(defined, None)
            for used in inst.used_variables():
                names.setdefault(used, None)
        for v in self.input_variables:
            names.setdefault(v, None)
        return tuple(names)

    # ------------------------------------------------------------------ #
    # Control-flow structure.
    # ------------------------------------------------------------------ #
    def successors(self, point: int) -> Tuple[int, ...]:
        """Program points that may execute immediately after ``point``.

        The final ``out`` has the virtual successor ``n + 1`` (program
        exit), mirroring the semantics of Figure 2.
        """
        inst = self[point]
        n = len(self)
        if isinstance(inst, FGoto):
            return (inst.target,)
        if isinstance(inst, FCondGoto):
            fallthrough = point + 1
            if inst.target == fallthrough:
                return (fallthrough,)
            return (fallthrough, inst.target)
        if isinstance(inst, FAbort):
            return ()
        if isinstance(inst, FOut):
            return (n + 1,)
        return (point + 1,)

    def predecessors(self, point: int) -> Tuple[int, ...]:
        preds = [
            other
            for other in self.points()
            if point in self.successors(other)
        ]
        return tuple(preds)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FormalProgram) and self.instructions == other.instructions

    def __str__(self) -> str:
        width = len(str(len(self.instructions)))
        return "\n".join(
            f"{str(i + 1).rjust(width)}: {inst}"
            for i, inst in enumerate(self.instructions)
        )

    def __repr__(self) -> str:
        return f"<FormalProgram with {len(self)} instructions>"


def parse_formal_program(text: str) -> FormalProgram:
    """Parse the textual form of a formal program.

    The accepted syntax is one instruction per line (optional ``k:`` point
    prefixes are ignored), e.g.::

        in n
        i := 0
        s := 0
        if (i >= n) goto 8
        s := s + i
        i := i + 1
        goto 4
        out s
    """
    instructions: List[FormalInstruction] = []
    for raw_line in text.splitlines():
        line = raw_line.split(";", 1)[0].strip()
        if not line:
            continue
        # Strip an optional leading "k:" point label.
        if ":" in line:
            head, rest = line.split(":", 1)
            if head.strip().isdigit() and ":=" not in head:
                line = rest.strip()
        if line.startswith("in ") or line == "in":
            instructions.append(FIn(tuple(line.split()[1:])))
        elif line.startswith("out ") or line == "out":
            instructions.append(FOut(tuple(line.split()[1:])))
        elif line == "skip":
            instructions.append(FSkip())
        elif line == "abort":
            instructions.append(FAbort())
        elif line.startswith("goto "):
            instructions.append(FGoto(int(line[len("goto "):])))
        elif line.startswith("if"):
            cond_text, target_text = line[2:].rsplit("goto", 1)
            cond_text = cond_text.strip()
            if cond_text.startswith("(") and cond_text.endswith(")"):
                cond_text = cond_text[1:-1]
            instructions.append(FCondGoto(parse_expr(cond_text), int(target_text)))
        elif ":=" in line:
            dest, expr_text = line.split(":=", 1)
            instructions.append(FAssign(dest.strip(), parse_expr(expr_text)))
        else:
            raise ValueError(f"cannot parse formal instruction {line!r}")
    return FormalProgram(instructions)
