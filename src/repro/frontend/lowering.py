"""Lowering MiniC ASTs to unoptimized (alloca-form) IR — the ``clang -O0`` stage.

Every source variable lives in a single-cell stack slot; every read is a
``load`` and every write a ``store``, so the resulting IR is deliberately
naive.  ``compile_program``/``compile_function`` then run ``mem2reg`` to
produce the f_base the paper starts from (clang -O0 + mem2reg), with
:class:`~repro.ir.debuginfo.DebugInfo` recording which register
carries each source variable at each instruction and ``source_line``
marking the instructions that correspond to source locations.

Implementation notes (documented deviations from C):

* ``&&`` and ``||`` are lowered without short-circuiting (both operands
  are evaluated); the workloads only use them on side-effect-free
  operands, so the semantics coincide.
* all values are unbounded Python integers (no overflow).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ir.debuginfo import DebugInfo
from ..ir.expr import BinOp, Const, Expr, UnOp, Var
from ..ir.function import BasicBlock, Function, Module
from ..ir.instructions import (
    Alloca,
    Assign,
    Branch,
    Call,
    Instruction,
    Jump,
    Load,
    Return,
    Store,
)
from ..ssa.mem2reg import promote_memory_to_registers
from .ast_nodes import (
    Assign as AstAssign,
    Binary,
    Block,
    Break,
    CallExpr,
    Continue,
    ExprStatement,
    Expression,
    For,
    FunctionDef,
    If,
    Index,
    IndexAssign,
    IntLiteral,
    Name,
    Program,
    Return as AstReturn,
    Unary,
    VarDecl,
    While,
)
from .parser import parse_minic

__all__ = ["LoweringError", "lower_program", "lower_function", "compile_program", "compile_function"]

_BINOP_MAP = {
    "+": "add",
    "-": "sub",
    "*": "mul",
    "/": "div",
    "%": "rem",
    "&": "and",
    "|": "or",
    "^": "xor",
    "<<": "shl",
    ">>": "shr",
    "==": "eq",
    "!=": "ne",
    "<": "lt",
    "<=": "le",
    ">": "gt",
    ">=": "ge",
}


class LoweringError(ValueError):
    """Raised for semantic errors (undeclared variables, bad indexing, ...)."""


class _FunctionLowering:
    """Lowers a single MiniC function definition."""

    def __init__(self, definition: FunctionDef) -> None:
        self.definition = definition
        self.function = Function(definition.name, definition.params)
        self.debug = DebugInfo(definition.name)
        self.function.metadata["debug"] = self.debug
        self.scalars: Dict[str, str] = {}   # source name → slot register
        self.arrays: Dict[str, str] = {}    # source name → base-address register
        self.temp_counter = 0
        self.block_counter = 0
        self.current: Optional[BasicBlock] = None
        self.loop_stack: List[Tuple[str, str]] = []  # (continue target, break target)

    # ------------------------------------------------------------------ #
    # Small helpers.
    # ------------------------------------------------------------------ #
    def fresh_temp(self) -> str:
        self.temp_counter += 1
        return f"%t{self.temp_counter}"

    def new_block(self, hint: str) -> str:
        self.block_counter += 1
        label = f"{hint}{self.block_counter}"
        self.function.add_block(label)
        return label

    def emit(self, inst: Instruction, line: int) -> Instruction:
        if self.current is None:
            raise LoweringError("no current block")
        inst.source_line = line if line > 0 else None
        self.current.append(inst)
        return inst

    def set_block(self, label: str) -> None:
        self.current = self.function.blocks[label]

    def terminated(self) -> bool:
        return self.current is not None and self.current.terminator is not None

    # ------------------------------------------------------------------ #
    # Top level.
    # ------------------------------------------------------------------ #
    def lower(self) -> Function:
        entry = self.function.add_block("entry")
        self.current = entry

        # Parameters become mutable locals, exactly as clang -O0 does.
        for param in self.definition.params:
            slot = f"%{param}.addr"
            self.emit(Alloca(slot, 1), self.definition.line)
            self.emit(Store(Var(slot), Var(param)), self.definition.line)
            self.scalars[param] = slot
            self.debug.declare_variable(param, slot, self.definition.line)

        # Hoist every declaration's storage to the entry block so each slot
        # is allocated exactly once (required for promotion).
        assert self.definition.body is not None
        for decl in _collect_declarations(self.definition.body):
            if decl.name in self.scalars or decl.name in self.arrays:
                raise LoweringError(
                    f"line {decl.line}: variable {decl.name!r} declared twice"
                )
            if decl.array_size is None:
                slot = f"%{decl.name}.addr"
                self.emit(Alloca(slot, 1), decl.line)
                self.scalars[decl.name] = slot
                self.debug.declare_variable(decl.name, slot, decl.line)
            else:
                base = f"%{decl.name}.base"
                self.emit(Alloca(base, decl.array_size), decl.line)
                self.arrays[decl.name] = base

        self.lower_block(self.definition.body)
        if not self.terminated():
            self.emit(Return(Const(0)), self.definition.line)

        # Any block left unterminated (e.g. after a `break`-only body) gets
        # an explicit return so the function verifies.
        for block in self.function.iter_blocks():
            if block.terminator is None:
                block.append(Return(Const(0)))
        return self.function

    # ------------------------------------------------------------------ #
    # Statements.
    # ------------------------------------------------------------------ #
    def lower_block(self, block: Block) -> None:
        for statement in block.statements:
            if self.terminated():
                return  # unreachable code after return/break: drop it
            self.lower_statement(statement)

    def lower_statement(self, node) -> None:
        if isinstance(node, VarDecl):
            if node.initializer is not None:
                value = self.lower_expression(node.initializer)
                slot = self.scalars.get(node.name)
                if slot is None:
                    raise LoweringError(
                        f"line {node.line}: cannot initialize array {node.name!r} directly"
                    )
                self.emit(Store(Var(slot), value), node.line)
        elif isinstance(node, AstAssign):
            value = self.lower_expression(node.value)
            slot = self.scalars.get(node.name)
            if slot is None:
                raise LoweringError(f"line {node.line}: assignment to undeclared {node.name!r}")
            self.emit(Store(Var(slot), value), node.line)
        elif isinstance(node, IndexAssign):
            base = self._array_base(node.array, node.line)
            index = self.lower_expression(node.index)
            value = self.lower_expression(node.value)
            address = self.fresh_temp()
            self.emit(Assign(address, BinOp("add", base, index)), node.line)
            self.emit(Store(Var(address), value), node.line)
        elif isinstance(node, If):
            self.lower_if(node)
        elif isinstance(node, While):
            self.lower_while(node)
        elif isinstance(node, For):
            self.lower_for(node)
        elif isinstance(node, AstReturn):
            value = self.lower_expression(node.value) if node.value is not None else Const(0)
            self.emit(Return(value), node.line)
        elif isinstance(node, Break):
            if not self.loop_stack:
                raise LoweringError(f"line {node.line}: break outside a loop")
            self.emit(Jump(self.loop_stack[-1][1]), node.line)
        elif isinstance(node, Continue):
            if not self.loop_stack:
                raise LoweringError(f"line {node.line}: continue outside a loop")
            self.emit(Jump(self.loop_stack[-1][0]), node.line)
        elif isinstance(node, ExprStatement):
            self.lower_expression(node.expression)
        elif isinstance(node, Block):
            self.lower_block(node)
        else:  # pragma: no cover - exhaustive over the AST
            raise LoweringError(f"unsupported statement {node!r}")

    def lower_if(self, node: If) -> None:
        condition = self.lower_expression(node.condition)
        then_label = self.new_block("if.then")
        merge_label = self.new_block("if.end")
        else_label = self.new_block("if.else") if node.else_block else merge_label
        self.emit(Branch(condition, then_label, else_label), node.line)

        self.set_block(then_label)
        self.lower_block(node.then_block)
        if not self.terminated():
            self.emit(Jump(merge_label), node.line)

        if node.else_block is not None:
            self.set_block(else_label)
            self.lower_block(node.else_block)
            if not self.terminated():
                self.emit(Jump(merge_label), node.line)

        self.set_block(merge_label)

    def lower_while(self, node: While) -> None:
        cond_label = self.new_block("while.cond")
        body_label = self.new_block("while.body")
        end_label = self.new_block("while.end")
        self.emit(Jump(cond_label), node.line)

        self.set_block(cond_label)
        condition = self.lower_expression(node.condition)
        self.emit(Branch(condition, body_label, end_label), node.line)

        self.loop_stack.append((cond_label, end_label))
        self.set_block(body_label)
        self.lower_block(node.body)
        if not self.terminated():
            self.emit(Jump(cond_label), node.line)
        self.loop_stack.pop()

        self.set_block(end_label)

    def lower_for(self, node: For) -> None:
        if node.init is not None:
            self.lower_statement(node.init)
        cond_label = self.new_block("for.cond")
        body_label = self.new_block("for.body")
        step_label = self.new_block("for.step")
        end_label = self.new_block("for.end")
        self.emit(Jump(cond_label), node.line)

        self.set_block(cond_label)
        condition = (
            self.lower_expression(node.condition)
            if node.condition is not None
            else Const(1)
        )
        self.emit(Branch(condition, body_label, end_label), node.line)

        self.loop_stack.append((step_label, end_label))
        self.set_block(body_label)
        self.lower_block(node.body)
        if not self.terminated():
            self.emit(Jump(step_label), node.line)
        self.loop_stack.pop()

        self.set_block(step_label)
        if node.update is not None:
            self.lower_statement(node.update)
        if not self.terminated():
            self.emit(Jump(cond_label), node.line)

        self.set_block(end_label)

    # ------------------------------------------------------------------ #
    # Expressions.
    # ------------------------------------------------------------------ #
    def _array_base(self, name: str, line: int) -> Expr:
        if name in self.arrays:
            return Var(self.arrays[name])
        if name in self.scalars:
            # Indexing through a scalar: the scalar holds a base address
            # (e.g. an array passed as a parameter).
            temp = self.fresh_temp()
            self.emit(Load(temp, Var(self.scalars[name])), line)
            return Var(temp)
        raise LoweringError(f"line {line}: unknown array {name!r}")

    def lower_expression(self, node: Expression) -> Expr:
        if isinstance(node, IntLiteral):
            return Const(node.value)
        if isinstance(node, Name):
            slot = self.scalars.get(node.name)
            if slot is None:
                if node.name in self.arrays:
                    return Var(self.arrays[node.name])
                raise LoweringError(f"line {node.line}: undeclared variable {node.name!r}")
            temp = self.fresh_temp()
            self.emit(Load(temp, Var(slot)), node.line)
            return Var(temp)
        if isinstance(node, Index):
            base = self._array_base(node.array, node.line)
            index = self.lower_expression(node.index)
            address = self.fresh_temp()
            self.emit(Assign(address, BinOp("add", base, index)), node.line)
            value = self.fresh_temp()
            self.emit(Load(value, Var(address)), node.line)
            return Var(value)
        if isinstance(node, Unary):
            operand = self.lower_expression(node.operand)
            op = "neg" if node.op == "-" else "not"
            temp = self.fresh_temp()
            self.emit(Assign(temp, UnOp(op, operand)), node.line)
            return Var(temp)
        if isinstance(node, Binary):
            lhs = self.lower_expression(node.lhs)
            rhs = self.lower_expression(node.rhs)
            temp = self.fresh_temp()
            if node.op in ("&&", "||"):
                lhs_bool = UnOp("not", UnOp("not", lhs))
                rhs_bool = UnOp("not", UnOp("not", rhs))
                op = "and" if node.op == "&&" else "or"
                self.emit(Assign(temp, BinOp(op, lhs_bool, rhs_bool)), node.line)
            else:
                self.emit(Assign(temp, BinOp(_BINOP_MAP[node.op], lhs, rhs)), node.line)
            return Var(temp)
        if isinstance(node, CallExpr):
            args = [self.lower_expression(arg) for arg in node.args]
            temp = self.fresh_temp()
            self.emit(Call(temp, node.callee, args), node.line)
            return Var(temp)
        raise LoweringError(f"unsupported expression {node!r}")


def _collect_declarations(block: Block) -> List[VarDecl]:
    """All variable declarations in a statement tree, in source order."""
    found: List[VarDecl] = []

    def visit(node) -> None:
        if isinstance(node, VarDecl):
            found.append(node)
        elif isinstance(node, Block):
            for statement in node.statements:
                visit(statement)
        elif isinstance(node, If):
            visit(node.then_block)
            if node.else_block is not None:
                visit(node.else_block)
        elif isinstance(node, While):
            visit(node.body)
        elif isinstance(node, For):
            if node.init is not None:
                visit(node.init)
            if node.update is not None:
                visit(node.update)
            visit(node.body)

    visit(block)
    return found


def lower_function(definition: FunctionDef) -> Function:
    """Lower one function definition to alloca-form IR (no promotion)."""
    return _FunctionLowering(definition).lower()


def lower_program(program: Program, module_name: str = "minic") -> Module:
    """Lower a whole MiniC program to alloca-form IR (no promotion)."""
    module = Module(module_name)
    for definition in program.functions:
        module.add(lower_function(definition))
    return module


def compile_program(source: str, *, promote: bool = True, module_name: str = "minic") -> Module:
    """Parse, lower and (optionally) promote a MiniC program.

    With ``promote=True`` (the default) the result is the paper's
    ``f_base`` form: SSA registers with debug bindings, ready to be cloned
    and optimized by the OSR-aware pipeline.
    """
    module = lower_program(parse_minic(source), module_name)
    if promote:
        for function in module:
            promote_memory_to_registers(function)
    return module


def compile_function(source: str, name: Optional[str] = None, *, promote: bool = True) -> Function:
    """Compile MiniC source containing (at least) one function; return one of them."""
    module = compile_program(source, promote=promote)
    if name is not None:
        return module.get(name)
    if len(module) != 1:
        raise LoweringError(
            "compile_function needs a single-function source or an explicit name"
        )
    return next(iter(module))
