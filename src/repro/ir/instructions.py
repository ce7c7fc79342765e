"""Instruction set of the repro IR.

The IR is a register-based, basic-block structured representation close in
spirit to LLVM IR after ``mem2reg``: virtual registers hold integer values,
memory is accessed only through explicit ``load``/``store``/``alloca``
instructions, and every basic block ends in exactly one terminator.

Each instruction carries a process-unique ``uid``.  The uid is what the
:class:`~repro.core.codemapper.CodeMapper` uses to correlate instructions
across function versions: cloning a function preserves a *mapping* between
old and new uids rather than sharing instruction objects, so the two
versions can be mutated independently (exactly as the paper's LLVM
implementation tracks values across the cloned function and its optimized
variant).
"""

from __future__ import annotations

import itertools
import json
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .expr import Expr, as_expr, free_vars, substitute
from .intrinsics import intrinsic_accesses_memory, is_pure_callee

__all__ = [
    "Instruction",
    "Assign",
    "Load",
    "Store",
    "Alloca",
    "Call",
    "Phi",
    "Guard",
    "Nop",
    "Terminator",
    "Jump",
    "Branch",
    "Return",
    "Abort",
    "fresh_uid",
]

_uid_counter = itertools.count(1)


def fresh_uid() -> int:
    """Return a new process-unique instruction identifier."""
    return next(_uid_counter)


class Instruction:
    """Base class of all IR instructions."""

    is_terminator: bool = False

    def __init__(self) -> None:
        self.uid: int = fresh_uid()
        #: Source line this instruction was lowered from (``None`` when the
        #: instruction has no source counterpart).  Mirrors LLVM debug
        #: locations: transparent to every pass, copied on clone.
        self.source_line: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Def/use interface used by every dataflow analysis.
    # ------------------------------------------------------------------ #
    def defs(self) -> Tuple[str, ...]:
        """Names of virtual registers defined (written) by this instruction."""
        return ()

    def uses(self) -> Tuple[str, ...]:
        """Names of virtual registers read by this instruction."""
        names: List[str] = []
        for expr in self.expressions():
            names.extend(sorted(free_vars(expr)))
        return tuple(dict.fromkeys(names))

    def expressions(self) -> Tuple[Expr, ...]:
        """All expression operands of this instruction."""
        return ()

    # ------------------------------------------------------------------ #
    # Rewriting support.
    # ------------------------------------------------------------------ #
    def replace_uses(self, mapping: Mapping[str, Expr]) -> bool:
        """Destructively replace variable uses according to ``mapping``.

        Returns whether any operand changed (never, for an instruction
        without expression operands).  Definitions (destination
        registers) are never rewritten here; use :meth:`rename_def` for
        that.
        """
        return False

    def rename_def(self, mapping: Mapping[str, str]) -> None:
        """Destructively rename the destination register, if any."""
        # Default: instruction defines nothing.

    def copy(self) -> "Instruction":
        """Return a deep copy with a fresh uid."""
        raise NotImplementedError

    def has_side_effects(self) -> bool:
        """True when the instruction cannot be removed even if its result is dead."""
        return False

    def accesses_memory(self) -> bool:
        """True for instructions that read or write the heap."""
        return False

    def __repr__(self) -> str:
        return f"<{self.__class__.__name__} #{self.uid}: {self}>"


# ---------------------------------------------------------------------- #
# Ordinary (non-terminator) instructions.
# ---------------------------------------------------------------------- #


class Assign(Instruction):
    """``dest = expr`` — a pure register assignment."""

    def __init__(self, dest: str, expr) -> None:
        super().__init__()
        self.dest = dest
        self.expr: Expr = as_expr(expr)

    def defs(self) -> Tuple[str, ...]:
        return (self.dest,)

    def expressions(self) -> Tuple[Expr, ...]:
        return (self.expr,)

    def replace_uses(self, mapping: Mapping[str, Expr]) -> bool:
        before, self.expr = self.expr, substitute(self.expr, mapping)
        return self.expr is not before

    def rename_def(self, mapping: Mapping[str, str]) -> None:
        self.dest = mapping.get(self.dest, self.dest)

    def copy(self) -> "Assign":
        return Assign(self.dest, self.expr)

    def __str__(self) -> str:
        return f"{self.dest} = {self.expr}"


class Load(Instruction):
    """``dest = load addr`` — read one memory cell."""

    def __init__(self, dest: str, addr) -> None:
        super().__init__()
        self.dest = dest
        self.addr: Expr = as_expr(addr)

    def defs(self) -> Tuple[str, ...]:
        return (self.dest,)

    def expressions(self) -> Tuple[Expr, ...]:
        return (self.addr,)

    def replace_uses(self, mapping: Mapping[str, Expr]) -> bool:
        before, self.addr = self.addr, substitute(self.addr, mapping)
        return self.addr is not before

    def rename_def(self, mapping: Mapping[str, str]) -> None:
        self.dest = mapping.get(self.dest, self.dest)

    def copy(self) -> "Load":
        return Load(self.dest, self.addr)

    def accesses_memory(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"{self.dest} = load {self.addr}"


class Store(Instruction):
    """``store addr, value`` — write one memory cell."""

    def __init__(self, addr, value) -> None:
        super().__init__()
        self.addr: Expr = as_expr(addr)
        self.value: Expr = as_expr(value)

    def expressions(self) -> Tuple[Expr, ...]:
        return (self.addr, self.value)

    def replace_uses(self, mapping: Mapping[str, Expr]) -> bool:
        addr, value = self.addr, self.value
        self.addr = substitute(addr, mapping)
        self.value = substitute(value, mapping)
        return self.addr is not addr or self.value is not value

    def copy(self) -> "Store":
        return Store(self.addr, self.value)

    def has_side_effects(self) -> bool:
        return True

    def accesses_memory(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"store {self.addr}, {self.value}"


class Alloca(Instruction):
    """``dest = alloca n`` — allocate ``n`` fresh memory cells.

    The result register holds the address of the first cell.  The frontend
    emits one ``alloca`` per source local; ``mem2reg`` promotes
    single-cell, address-not-escaping allocas to registers.
    """

    def __init__(self, dest: str, size: int = 1) -> None:
        super().__init__()
        if size < 1:
            raise ValueError("alloca size must be at least 1")
        self.dest = dest
        self.size = int(size)

    def defs(self) -> Tuple[str, ...]:
        return (self.dest,)

    def rename_def(self, mapping: Mapping[str, str]) -> None:
        self.dest = mapping.get(self.dest, self.dest)

    def copy(self) -> "Alloca":
        return Alloca(self.dest, self.size)

    def has_side_effects(self) -> bool:
        return True

    def accesses_memory(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"{self.dest} = alloca {self.size}"


class Call(Instruction):
    """``dest = call @callee(args...)`` (dest may be omitted).

    Effect queries consult the intrinsic purity table
    (:mod:`repro.ir.intrinsics`): a call to a known-pure intrinsic is
    removable when dead, CSE-able and hoistable; every other callee keeps
    the conservative may-do-anything treatment.
    """

    def __init__(self, dest: Optional[str], callee: str, args: Sequence = ()) -> None:
        super().__init__()
        self.dest = dest
        self.callee = callee
        self.args: List[Expr] = [as_expr(a) for a in args]

    def defs(self) -> Tuple[str, ...]:
        return (self.dest,) if self.dest is not None else ()

    def expressions(self) -> Tuple[Expr, ...]:
        return tuple(self.args)

    def replace_uses(self, mapping: Mapping[str, Expr]) -> bool:
        before, self.args = self.args, [substitute(a, mapping) for a in self.args]
        return any(new is not old for new, old in zip(self.args, before))

    def rename_def(self, mapping: Mapping[str, str]) -> None:
        if self.dest is not None:
            self.dest = mapping.get(self.dest, self.dest)

    def copy(self) -> "Call":
        return Call(self.dest, self.callee, list(self.args))

    def has_side_effects(self) -> bool:
        return not is_pure_callee(self.callee)

    def accesses_memory(self) -> bool:
        return intrinsic_accesses_memory(self.callee)

    def __str__(self) -> str:
        args = ", ".join(str(a) for a in self.args)
        if self.dest is None:
            return f"call @{self.callee}({args})"
        return f"{self.dest} = call @{self.callee}({args})"


class Phi(Instruction):
    """``dest = phi [pred1: v1, pred2: v2, ...]`` — SSA join point.

    ``incoming`` maps predecessor block labels to the expression (a
    :class:`Var` or :class:`Const`) flowing in along that edge.
    """

    def __init__(self, dest: str, incoming: Mapping[str, object]) -> None:
        super().__init__()
        self.dest = dest
        self.incoming: Dict[str, Expr] = {
            label: as_expr(value) for label, value in incoming.items()
        }

    def defs(self) -> Tuple[str, ...]:
        return (self.dest,)

    def expressions(self) -> Tuple[Expr, ...]:
        return tuple(self.incoming[label] for label in sorted(self.incoming))

    def replace_uses(self, mapping: Mapping[str, Expr]) -> bool:
        before = self.incoming
        self.incoming = {
            label: substitute(value, mapping) for label, value in before.items()
        }
        return any(self.incoming[label] is not value for label, value in before.items())

    def rename_def(self, mapping: Mapping[str, str]) -> None:
        self.dest = mapping.get(self.dest, self.dest)

    def rename_predecessor(self, old: str, new: str) -> None:
        """Re-key an incoming edge after a CFG edit renamed a predecessor."""
        if old in self.incoming:
            self.incoming[new] = self.incoming.pop(old)

    def copy(self) -> "Phi":
        return Phi(self.dest, dict(self.incoming))

    def __str__(self) -> str:
        parts = ", ".join(
            f"{label}: {value}" for label, value in sorted(self.incoming.items())
        )
        return f"{self.dest} = phi [{parts}]"


class Guard(Instruction):
    """``guard cond`` — a speculation checkpoint.

    Speculative optimizations (:mod:`repro.passes.speculate`) assume a
    fact that is only *probably* true — a register always holding one
    value, a branch always going one way — and protect the assumption
    with a guard on the assumed condition.  Executing a guard whose
    condition evaluates to zero does not continue in the current
    version: the interpreter raises
    :class:`~repro.ir.interp.GuardFailure` carrying the live state, and
    the runtime answers with a deoptimizing OSR (or, on a repeat, a
    dispatched OSR into f_base's compiled code) at the guard's program
    point.

    Guards are side-effecting so no pass removes, moves or merges them:
    the deoptimization they trigger is an observable effect.
    """

    def __init__(self, cond, *, reason: Optional[str] = None) -> None:
        super().__init__()
        self.cond: Expr = as_expr(cond)
        #: Human-readable statement of the speculated fact this guard
        #: protects (e.g. ``"assume-constant kind == 0"``).  Set by the
        #: guard-inserting pass, carried into
        #: :class:`~repro.ir.interp.GuardFailure` by every execution
        #: backend, and transparent to all transformations (like debug
        #: metadata).
        self.reason = reason

    def expressions(self) -> Tuple[Expr, ...]:
        return (self.cond,)

    def replace_uses(self, mapping: Mapping[str, Expr]) -> bool:
        before, self.cond = self.cond, substitute(self.cond, mapping)
        return self.cond is not before

    def copy(self) -> "Guard":
        return Guard(self.cond, reason=self.reason)

    def has_side_effects(self) -> bool:
        return True

    def __str__(self) -> str:
        if self.reason is None:
            return f"guard {self.cond}"
        # The reason is part of the canonical text: losing it across a
        # print/parse round-trip would silently disable refutation-based
        # invalidation on reloaded versions (the runtime ignores guard
        # failures whose reason is None).  JSON quoting handles arbitrary
        # content; ';' is escaped so the parser's comment stripping can
        # never truncate a reason.
        spelled = json.dumps(self.reason).replace(";", "\\u003b")
        return f"guard {self.cond} !reason {spelled}"


class Nop(Instruction):
    """``nop`` — the explicit no-op (the paper's ``skip``).

    Hoisting rules in the rewrite-rule formulation expect a ``skip`` slot
    at the destination point; the pass-based pipeline uses genuine
    insertion instead but keeps ``Nop`` for padding and for tests.
    """

    def copy(self) -> "Nop":
        return Nop()

    def __str__(self) -> str:
        return "nop"


# ---------------------------------------------------------------------- #
# Terminators.
# ---------------------------------------------------------------------- #


class Terminator(Instruction):
    """Base class of block terminators."""

    is_terminator = True

    def successors(self) -> Tuple[str, ...]:
        """Labels of the blocks control may transfer to."""
        return ()

    def retarget(self, mapping: Mapping[str, str]) -> None:
        """Destructively rewrite successor labels according to ``mapping``."""


class Jump(Terminator):
    """``jmp target`` — unconditional branch."""

    def __init__(self, target: str) -> None:
        super().__init__()
        self.target = target

    def successors(self) -> Tuple[str, ...]:
        return (self.target,)

    def retarget(self, mapping: Mapping[str, str]) -> None:
        self.target = mapping.get(self.target, self.target)

    def copy(self) -> "Jump":
        return Jump(self.target)

    def __str__(self) -> str:
        return f"jmp {self.target}"


class Branch(Terminator):
    """``br cond ? then : else`` — conditional branch on a non-zero test."""

    def __init__(self, cond, then_target: str, else_target: str) -> None:
        super().__init__()
        self.cond: Expr = as_expr(cond)
        self.then_target = then_target
        self.else_target = else_target

    def successors(self) -> Tuple[str, ...]:
        if self.then_target == self.else_target:
            return (self.then_target,)
        return (self.then_target, self.else_target)

    def retarget(self, mapping: Mapping[str, str]) -> None:
        self.then_target = mapping.get(self.then_target, self.then_target)
        self.else_target = mapping.get(self.else_target, self.else_target)

    def expressions(self) -> Tuple[Expr, ...]:
        return (self.cond,)

    def replace_uses(self, mapping: Mapping[str, Expr]) -> bool:
        before, self.cond = self.cond, substitute(self.cond, mapping)
        return self.cond is not before

    def copy(self) -> "Branch":
        return Branch(self.cond, self.then_target, self.else_target)

    def __str__(self) -> str:
        return f"br {self.cond} ? {self.then_target} : {self.else_target}"


class Return(Terminator):
    """``ret expr`` / ``ret`` — return from the current function."""

    def __init__(self, value=None) -> None:
        super().__init__()
        self.value: Optional[Expr] = as_expr(value) if value is not None else None

    def expressions(self) -> Tuple[Expr, ...]:
        return (self.value,) if self.value is not None else ()

    def replace_uses(self, mapping: Mapping[str, Expr]) -> bool:
        if self.value is None:
            return False
        before, self.value = self.value, substitute(self.value, mapping)
        return self.value is not before

    def copy(self) -> "Return":
        return Return(self.value)

    def has_side_effects(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"ret {self.value}" if self.value is not None else "ret"


class Abort(Terminator):
    """``abort`` — terminate execution abnormally (the paper's ``abort``)."""

    def copy(self) -> "Abort":
        return Abort()

    def has_side_effects(self) -> bool:
        return True

    def __str__(self) -> str:
        return "abort"
