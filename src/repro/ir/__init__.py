"""The repro intermediate representation (IR).

This package provides the IR substrate on which the OSR framework of the
paper is built: expressions, instructions, basic blocks, functions, a
textual parser/printer, a reference interpreter and a verifier.

The representation mirrors LLVM IR after ``mem2reg`` closely enough for
the paper's techniques to transfer directly: virtual registers, explicit
``load``/``store``/``alloca`` memory operations, phi nodes at block heads
and per-instruction program points.
"""

from .expr import (
    BinOp,
    Const,
    Expr,
    UnOp,
    Undef,
    Var,
    as_expr,
    canonical_expr,
    evaluate,
    expr_size,
    fold_constants,
    free_vars,
    is_constant_expr,
    rename_vars,
    substitute,
    walk,
)
from .instructions import (
    Abort,
    Alloca,
    Assign,
    Branch,
    Call,
    Guard,
    Instruction,
    Jump,
    Load,
    Nop,
    Phi,
    Return,
    Store,
    Terminator,
)
from .function import BasicBlock, Function, Module, ProgramPoint
from .debuginfo import DebugInfo, SourceVariable
from .parser import ParseError, parse_expr, parse_function, parse_module
from .printer import format_table, print_function, print_module
from .interp import (
    AbortExecution,
    ExecutionResult,
    GuardFailure,
    Interpreter,
    Memory,
    StepLimitExceeded,
    TraceEntry,
    run_function,
    run_module,
)
from .verify import VerificationError, is_ssa, verify_function

__all__ = [
    # expressions
    "Expr", "Const", "Var", "BinOp", "UnOp", "Undef", "as_expr", "evaluate",
    "free_vars", "substitute", "rename_vars", "fold_constants", "canonical_expr",
    "is_constant_expr", "expr_size", "walk",
    # instructions
    "Instruction", "Assign", "Load", "Store", "Alloca", "Call", "Phi", "Guard",
    "Nop", "Terminator", "Jump", "Branch", "Return", "Abort",
    # structure
    "BasicBlock", "Function", "Module", "ProgramPoint", "DebugInfo", "SourceVariable",
    # text
    "ParseError", "parse_expr", "parse_function", "parse_module",
    "print_function", "print_module", "format_table",
    # execution
    "Interpreter", "Memory", "ExecutionResult", "TraceEntry", "run_function",
    "run_module", "AbortExecution", "StepLimitExceeded", "GuardFailure",
    # verification
    "VerificationError", "verify_function", "is_ssa",
]
