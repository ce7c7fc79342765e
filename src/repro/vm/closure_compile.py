"""Closure compilation: lowering IR functions to generated Python code.

The tree-walking interpreter (:mod:`repro.ir.interp`) pays a dictionary
lookup per register access, an ``isinstance`` chain per instruction and a
recursive :func:`~repro.ir.expr.evaluate` call per expression node.  This
module removes all three costs by *lowering* a verified IR
:class:`~repro.ir.function.Function` into Python source that is fed to
``compile()``/``exec()`` once and then called many times:

* **registers become Python locals** (``LOAD_FAST``/``STORE_FAST`` —
  faster than the fixed-slot lists a hand-rolled frame would use),
* **expressions become Python expressions** compiled ahead of time,
* **control flow becomes structured Python control flow**: natural loops
  are reconstructed as ``while True:`` statements with ``continue`` on
  back edges and ``break`` on the edges to the loop's follow, and branch
  regions become nested ``if``/``else`` closed at the postdominator
  join — the loop-reconstruction-and-extraction technique of Mosaner
  et al. (arXiv 1909.08815) — so CPython's own bytecode optimizer sees
  real loops instead of a flat block-dispatch switch.  Exit edges to
  any other block (``break`` tails, early ``return`` s) are emitted
  inline at the edge; an exit that must leave more than one open
  ``while`` sets an *exit tag* before ``break`` and is re-dispatched
  after the loop (see :class:`_StructuredEmitter`),
* **phi nodes become parallel edge assignments** materialized on each
  incoming edge (the classic "moves on the edges" out-of-SSA lowering),
* **hot pairs fuse into superinstructions**: a single-use comparison
  feeding a branch compiles to ``if a < b:`` directly (the temp is
  re-materialized as the constant branch outcome on each arm, keeping
  environments bit-identical to the interpreter's), and
  :class:`~repro.passes.fuse.SuperinstructionFusion` performs the
  analogous add+store fusion at the IR level,
* **loop-invariant guards unswitch out of loop bodies**: a loop whose
  guards test conditions reconstructible from registers defined outside
  the loop is emitted twice behind a single pre-check — the fast copy
  omits the guards, the slow copy keeps every guard at its exact program
  point — so guard failures still carry the full deopt live state,
* **guards become inline checks** that raise
  :class:`~repro.ir.interp.GuardFailure` carrying the full live state the
  :class:`~repro.core.codemapper.CodeMapper`-derived deoptimization
  mapping needs (register environment, memory, arrival block),
* **returns hand back the frame's ``locals()`` untranslated**: the
  IR-named final environment is built only if the result's ``env`` is
  read (:class:`CompiledResult`) — a guard failure *is* a transition
  and snapshots eagerly, a return is not.

There is one emitter, and it is total over reducible CFGs — everything
the MiniC frontend and the pass pipeline produce.  An irreducible CFG
(only hand-written IR has one) or nesting deeper than Python compiles
raises :class:`~repro.cfg.structure.UnstructurableCFG`;
:class:`~repro.vm.backend.CompiledBackend` runs such a function on the
interpreter instead.

The lowering also produces **OSR entry stubs**: a variant of the function
whose prologue re-binds every register from a transferred environment,
executes the remainder of the interrupted loop iteration (resolving a
leading phi run against the dynamic predecessor when the landing point
is a block head; a join the remainder runs into is emitted inline, so
every program point is a landing point) and then enters the
*reconstructed* loop at its header — loop extraction in the sense of
Mosaner et al.  This is how a compiled
tier accepts an optimizing-OSR transition mid-loop: the runtime maps an
interpreter :class:`~repro.ir.function.ProgramPoint` to a stub and calls
it with the K_avail-preserving environment produced by the forward
mapping.

Semantics are identical to the interpreter by construction:

* division and remainder are Python's ``//``/``%`` only where those
  agree with C truncation (a dividend >= 0 and a divisor > 0, tested
  inline on a register or literal operand); everything else calls the
  interpreter's truncating helpers, which also raise on a zero divisor;
* the same ``& 63`` shift masking;
* a comparison whose *value* is used (assigned, stored, passed,
  returned) is coerced back to ``int`` with unary ``+`` on the
  ``bool``; one read only for its truth (an ``if``, a guard, an
  unswitching pre-check) is left a ``bool`` (:func:`compile_test`);
* memory cells are read and written in the :class:`Memory`'s own dict,
  and a register stored bare is stored as ``+r`` so an undefined one
  still raises (``Memory.store``'s ``int()`` check, at no call);
* the same ``GuardFailure``/``AbortExecution`` control flow and a step
  budget so miscompiled non-terminating code still fails loudly instead
  of hanging (counted per loop iteration; step totals are
  backend-specific, see :class:`~repro.ir.interp.ExecutionResult`).
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..analysis.fusion import FusedCompareBranch, fusible_compare_branches
from ..cfg.structure import (
    VIRTUAL_EXIT,
    HoistableGuard,
    StructureInfo,
    UnstructurableCFG,
    invariant_guard_plan,
)
from ..ir.expr import BinOp, Const, Expr, UnOp, Undef, Var, int_div, int_rem
from ..ir.function import BasicBlock, Function, ProgramPoint
from ..ir.instructions import (
    Abort,
    Alloca,
    Assign,
    Branch,
    Call,
    Guard,
    Jump,
    Load,
    Nop,
    Phi,
    Return,
    Store,
)
from ..ir.interp import (
    AbortExecution,
    ExecutionResult,
    GuardFailure,
    Memory,
    StepLimitExceeded,
)

__all__ = [
    "CompiledResult",
    "CompiledFunction",
    "emit",
    "mangle",
    "compile_expr",
    "compile_test",
]


class _UndefinedRegister:
    """Sentinel for registers not yet assigned.

    The compiled analogue of the interpreter's ``KeyError`` on unbound
    registers: *any* observation of the sentinel — arithmetic
    (``TypeError``), comparison, truthiness, or hashing (its use as a
    memory address) — fails loudly instead of silently computing with
    garbage.  Identity checks (``is``) remain available to the snapshot
    helper and the OSR prologue.
    """

    __slots__ = ()

    def _refuse(self, *_args):
        raise RuntimeError("register read before assignment in compiled code")

    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _refuse
    __bool__ = __hash__ = _refuse


_UNDEFINED = _UndefinedRegister()


def _raise_undef() -> int:
    raise ValueError("evaluated an undef value")


# ---------------------------------------------------------------------- #
# Name mangling: IR register names -> valid Python identifiers.
# ---------------------------------------------------------------------- #


def mangle(name: str) -> str:
    """Injectively map an IR register name to a Python local name.

    IR names may contain ``%`` (temporaries) and ``.`` (SSA versions);
    each escape starts with ``_`` and a literal ``_`` doubles, so
    distinct IR names always map to distinct locals.
    """
    out = ["r_"]
    for ch in name:
        if ch.isalnum():
            out.append(ch)
        elif ch == "_":
            out.append("__")
        elif ch == "%":
            out.append("_p")
        elif ch == ".":
            out.append("_d")
        else:
            out.append(f"_x{ord(ch):x}_")
    return "".join(out)


# ---------------------------------------------------------------------- #
# Expression lowering.
# ---------------------------------------------------------------------- #

#: Binary operators with a direct Python spelling (int x int -> int).
_DIRECT_BINOPS = {
    "add": "+",
    "sub": "-",
    "mul": "*",
    "and": "&",
    "or": "|",
    "xor": "^",
}

#: Comparison operators: Python yields ``bool``.  As a value, unary
#: ``+`` coerces it back to ``int`` so compiled environments stay
#: integer-typed like the interpreter's; read for its truth only
#: (:func:`compile_test`), it stays a ``bool``.
_COMPARE_BINOPS = {
    "eq": "==",
    "ne": "!=",
    "lt": "<",
    "le": "<=",
    "gt": ">",
    "ge": ">=",
}

#: The comparison that holds exactly when the keyed one does not (ints
#: are totally ordered).
_NEGATED = {"eq": "ne", "ne": "eq", "lt": "ge", "ge": "lt", "le": "gt", "gt": "le"}

#: Division and remainder: Python's operator (exact for a dividend >= 0
#: and a divisor > 0) and the C-truncating helper for everything else.
_DIVISION_BINOPS = {"div": ("//", "_idiv"), "rem": ("%", "_irem")}


def compile_expr(expr: Expr) -> str:
    """Lower one IR expression tree to a Python expression string."""
    if isinstance(expr, Const):
        return f"({expr.value})" if expr.value < 0 else str(expr.value)
    if isinstance(expr, Var):
        return mangle(expr.name)
    if isinstance(expr, Undef):
        return "_undef()"
    if isinstance(expr, UnOp):
        operand = compile_expr(expr.operand)
        if expr.op == "neg":
            return f"(-{operand})"
        if expr.op == "not":
            return f"(+({operand} == 0))"
        if expr.op == "abs":
            return f"abs({operand})"
        raise NotImplementedError(f"unary operator {expr.op!r}")
    if isinstance(expr, BinOp):
        lhs = compile_expr(expr.lhs)
        rhs = compile_expr(expr.rhs)
        op = expr.op
        if op in _DIRECT_BINOPS:
            return f"({lhs} {_DIRECT_BINOPS[op]} {rhs})"
        if op in _COMPARE_BINOPS:
            return f"(+({lhs} {_COMPARE_BINOPS[op]} {rhs}))"
        if op in _DIVISION_BINOPS:
            return _compile_division(expr, lhs, rhs)
        if op == "shl":
            return f"({lhs} << ({rhs} & 63))"
        if op == "shr":
            return f"({lhs} >> ({rhs} & 63))"
        if op == "min":
            return f"min({lhs}, {rhs})"
        if op == "max":
            return f"max({lhs}, {rhs})"
        raise NotImplementedError(f"binary operator {op!r}")
    raise TypeError(f"unknown expression node {expr!r}")


def _compile_division(expr: BinOp, lhs: str, rhs: str) -> str:
    """``/`` or ``%`` with C truncation, inline where the signs allow.

    Python's ``//`` and ``%`` agree with C when the dividend is >= 0 and
    the divisor > 0.  With both operands a register or a literal (so
    nothing is evaluated twice), that test is spelled inline and the
    helper runs only for a negative operand or a zero divisor, where it
    applies the sign rule or raises; other operand shapes call it.
    """
    native, helper = _DIVISION_BINOPS[expr.op]
    call = f"{helper}({lhs}, {rhs})"
    if not isinstance(expr.lhs, (Var, Const)):
        return call
    if isinstance(expr.rhs, Const) and expr.rhs.value > 0:
        return f"({lhs} {native} {rhs} if {lhs} >= 0 else {call})"
    if isinstance(expr.rhs, Var):
        return f"({lhs} {native} {rhs} if {lhs} >= 0 < {rhs} else {call})"
    return call


def compile_test(expr: Expr, negate: bool = False) -> str:
    """Lower an expression read only for its truth (or its falsity).

    The interpreter tests a condition with ``!= 0``; Python's truth test
    of an ``int`` is the same, and a comparison or ``not`` needs no
    ``int`` result to be tested, so neither is coerced here.
    ``negate`` lowers the test for ``== 0`` instead (a guard's failure
    check), flipping a comparison rather than wrapping it in ``not``.
    An undefined register still fails loudly: comparing or testing the
    sentinel raises.
    """
    if isinstance(expr, BinOp) and expr.op in _COMPARE_BINOPS:
        op = _NEGATED[expr.op] if negate else expr.op
        lhs, rhs = compile_expr(expr.lhs), compile_expr(expr.rhs)
        return f"{lhs} {_COMPARE_BINOPS[op]} {rhs}"
    if isinstance(expr, UnOp) and expr.op == "not":
        return compile_test(expr.operand, not negate)
    source = compile_expr(expr)
    return f"not {source}" if negate else source


def _expr_is_total(expr: Expr) -> bool:
    """True when evaluating ``expr`` over bound integers cannot raise.

    Division, remainder and ``undef`` can raise at evaluation time; a
    hoisted pre-check containing them would move the raise from the
    guard's program point (mid-loop, after side effects) to the loop
    entry, which is observable.  Everything else on ints is total.
    """
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Undef):
            return False
        if isinstance(node, BinOp):
            if node.op in ("div", "rem"):
                return False
            stack.append(node.lhs)
            stack.append(node.rhs)
        elif isinstance(node, UnOp):
            stack.append(node.operand)
    return True


# ---------------------------------------------------------------------- #
# The compiled artifact.
# ---------------------------------------------------------------------- #


class CompiledResult(ExecutionResult):
    """The :class:`ExecutionResult` of generated code.

    Generated code returns its frame's ``locals()``; translating them
    back to an IR-named environment walks the function's whole name
    table, and nothing on the call path reads the environment of a
    *returned* result (only paused and failed activations feed a
    transition).  So :attr:`env` is built on its first read — ``==``
    and ``repr`` read it, and so see the same environment the
    interpreter would report.  Until then the result holds the frame's
    locals as they were at the ``return``.
    """

    backend = "compiled"

    def __init__(self, value, steps, frame_locals, snapshot, memory) -> None:
        self.value = value
        self.steps = steps
        self.trace = []
        self.memory = memory
        self._frame = frame_locals
        self._snapshot = snapshot

    @property
    def env(self) -> Dict[str, int]:
        frame = self._frame
        if frame is not None:
            self._env = self._snapshot(frame)
            self._frame = None
        return self._env


class CompiledFunction:
    """One compiled entry (normal or OSR stub) of an IR function.

    A normal entry is called with positional argument values (like
    :meth:`repro.ir.interp.Interpreter.run`); an OSR entry stub is called
    with a transferred environment dict and the arrival block (like
    :meth:`repro.ir.interp.Interpreter.resume`).  Both input shapes go
    through the same ``_in`` parameter of the generated code.
    """

    #: The one emitter there is; what cannot be structured is not
    #: compiled at all (:class:`~repro.cfg.structure.UnstructurableCFG`).
    emitter = "structured"

    def __init__(
        self,
        function: Function,
        entry: Optional[ProgramPoint],
        raw: Callable,
        source: str,
        snapshot: Callable[[Dict[str, object]], Dict[str, int]],
    ) -> None:
        self.function = function
        self.entry = entry
        self._raw = raw
        #: The generated Python source (kept for inspection and tests).
        self.source = source
        self._snapshot = snapshot
        #: The checked entry of a normal artifact, ``(args, memory) ->
        #: ExecutionResult``: arity check and ``int()`` coercion included,
        #: everything else resolved here, once.  What the runtime stores
        #: on a table entry and :meth:`CompiledBackend.run` calls.
        self.invoke = self._bind_entry() if entry is None else None

    def __call__(
        self,
        args_or_env,
        memory: Optional[Memory] = None,
        previous_block: Optional[str] = None,
    ) -> ExecutionResult:
        memory = memory if memory is not None else Memory()
        value, frame_locals, steps = self._raw(args_or_env, memory, previous_block)
        return CompiledResult(value, steps, frame_locals, self._snapshot, memory)

    def _bind_entry(self) -> Callable[..., ExecutionResult]:
        raw, snapshot = self._raw, self._snapshot
        name, arity = self.function.name, len(self.function.params)

        def invoke(args: Sequence[int], memory: Optional[Memory] = None):
            if len(args) != arity:
                raise TypeError(
                    f"function @{name} expects {arity} arguments, got {len(args)}"
                )
            if memory is None:
                memory = Memory()
            value, frame_locals, steps = raw(list(map(int, args)), memory, None)
            return CompiledResult(value, steps, frame_locals, snapshot, memory)

        return invoke


# ---------------------------------------------------------------------- #
# The emitter's entry.
# ---------------------------------------------------------------------- #


def emit(
    function: Function, entry: Optional[ProgramPoint] = None
) -> Tuple[str, Dict[str, object]]:
    """Emit ``function``, or its OSR stub entering at ``entry``.

    Returns the generated source, which defines ``__compiled__``, and
    the globals it reads, bar the two its backend supplies: ``_call``
    (call resolution) and ``_FUEL`` (the step limit).  Raises
    :class:`~repro.cfg.structure.UnstructurableCFG` for a function with
    no structured spelling.
    """
    emitter = _StructuredEmitter(function, entry)
    source = emitter.emit()
    return source, {
        "_U": _UNDEFINED,
        "_GF": GuardFailure,
        "_Abort": AbortExecution,
        "_StepLimit": StepLimitExceeded,
        "_idiv": int_div,
        "_irem": int_rem,
        "_undef": _raise_undef,
        "_snapshot": _make_snapshot(emitter.name_table),
        "_PP": emitter.point_table,
        "_REASONS": emitter.reason_table,
        "_IPATHS": emitter.path_table,
        "_FNAME": function.name,
    }


def _make_snapshot(name_table: List[Tuple[str, str]]):
    """Build the locals() -> IR-environment converter for one function.

    Converts a compiled frame's locals back into an interpreter-style
    environment keyed by IR register names, dropping registers that are
    still undefined.  Runs on the guard-failure edge (the state a
    transition transfers) and when a returned result's ``env`` is read.
    """
    undefined = _UNDEFINED

    def _snapshot(frame_locals: Dict[str, object]) -> Dict[str, int]:
        env: Dict[str, int] = {}
        for mangled_name, original in name_table:
            value = frame_locals.get(mangled_name, undefined)
            if value is not undefined:
                env[original] = value
        return env

    return _snapshot

# ---------------------------------------------------------------------- #
# Structured-control-flow emission.
# ---------------------------------------------------------------------- #

#: Deepest indentation a region may start at.  Python's tokenizer stops
#: at 100 levels; a region writes up to three levels below its start.
_MAX_INDENT = 95

#: Python compiles at most 20 statically nested ``while`` blocks.
_MAX_LOOP_DEPTH = 20

_NO_GUARDS: FrozenSet[ProgramPoint] = frozenset()

#: What an emission step hands back besides ``None`` (control never
#: continues here) and a block label (emit that block next, here).
_FALL = "<fall>"


class _Frame(NamedTuple):
    """One open construct of the emission context.

    A **loop frame** is open between an emitted ``while True:`` and its
    end: a transfer to ``label`` (the header) spells ``continue``, one
    to ``follow`` spells ``break``.  A **join frame** is open while
    emitting the arms of a branch that reconverge at ``label``: a
    transfer there *falls off* the arm, and the join block is emitted
    once after the ``if``/``else``.
    """

    label: str
    is_loop: bool = False
    follow: Optional[str] = None
    #: Loop frames: the targets some transfer left this ``while`` for
    #: through the exit tag, re-dispatched right after the ``while``.
    exits: Optional[List[str]] = None


class _StructuredEmitter:
    """Reconstructs nested ``while``/``if`` Python from a reducible CFG.

    Emission walks the CFG once under a stack of :class:`_Frame` s.  A
    transfer the innermost frames address is spelled ``continue``,
    ``break`` or by falling off the arm; a transfer nothing addresses
    is emitted *inline* at the edge — a loop header opens its
    reconstructed loop, any other block is simply continued (a block
    several such edges share is duplicated per edge; this terminates
    because every cycle passes a loop header, which opens its
    ``while`` and is addressable from then on).  That covers ``break``
    and early-``return`` tails, and the remainder an OSR stub peels.

    A transfer addressed by a frame *behind* one or more open
    ``while`` s (a callee's nested-loop early return spliced into a
    caller's loop) leaves them one at a time: it sets the exit-tag
    local ``_x`` and ``break`` s; the code right after each ``while``
    re-dispatches on the tag until the owning frame is innermost.
    That is per-exit work, never per-iteration.

    Phi moves ride the edges (before ``continue``, before ``break``, on
    arm fall-through).  The arrival block is observable solely through
    :class:`GuardFailure`, so only a guard reads it: a guarded block
    with one predecessor names that block as a constant, and only the
    edges into a guarded block with several predecessors (or into the
    block execution starts in, whose first visit reports the ``_prev``
    argument) write ``_prev``, and not in a loop copy whose guards in the
    target block were all unswitched out.  Fuel is charged once per loop
    iteration.
    """

    def __init__(self, function: Function, entry: Optional[ProgramPoint]) -> None:
        self.function = function
        self.entry = entry
        registers = sorted(function.defined_variables() | set(function.params))
        #: (mangled, original) pairs; the snapshot helper and the OSR
        #: prologue both walk this table.
        self.name_table: List[Tuple[str, str]] = [
            (mangle(name), name) for name in registers
        ]
        #: Guard program points, indexed by emission order.  One guard
        #: may be emitted several times (loop copies, OSR remainders,
        #: duplicated tails); every emission gets its own slot carrying
        #: the same program point.
        self.point_table: List[ProgramPoint] = []
        #: Guard reasons (the speculated facts), same indexing.
        self.reason_table: List[Optional[str]] = []
        #: Virtual call stacks (innermost callee first) for guards inside
        #: inlined code, same indexing; read from the function's
        #: ``"inline_paths"`` metadata stamped by the deopt-plan builder.
        self.path_table: List[Tuple[str, ...]] = []
        self.lines: List[str] = []
        self.info = StructureInfo(function)
        guarded: Dict[str, FrozenSet[ProgramPoint]] = {}
        for block in function.iter_blocks():
            points = frozenset(
                ProgramPoint(block.label, index)
                for index, inst in enumerate(block.instructions)
                if isinstance(inst, Guard)
            )
            if points:
                guarded[block.label] = points
        #: The block execution starts in.
        self.start = function.entry_label if entry is None else entry.block
        #: The arrival block of each guarded block entered along one edge
        #: only (never the start block: its first visit reports ``_prev``).
        self.arrival: Dict[str, str] = {}
        for label in guarded:
            preds = set(self.info.cfg.preds(label))
            if label != self.start and len(preds) == 1:
                self.arrival[label] = preds.pop()
        #: Guarded blocks whose arrival block is dynamic, with their guard
        #: points: an edge into one writes ``_prev`` unless the copy being
        #: emitted omits all of those guards.
        self.tracked: Dict[str, FrozenSet[ProgramPoint]] = {
            label: points
            for label, points in guarded.items()
            if label not in self.arrival
        }
        self.fused: Dict[str, FusedCompareBranch] = fusible_compare_branches(function)
        #: Guard-unswitching plans per loop header.  Disabled in OSR
        #: stubs: a stub enters mid-iteration, where the pre-check's
        #: "guards cannot fail in the fast copy" argument does not cover
        #: the resumed partial iteration.
        self.plans: Dict[str, List[HoistableGuard]] = {}
        if entry is None and guarded:
            for header, guards in invariant_guard_plan(function, self.info).items():
                safe = [g for g in guards if _expr_is_total(g.precheck)]
                if safe:
                    self.plans[header] = safe
        #: Exit-tag value per target label (1-based; 0 means "no tag").
        self.tags: Dict[str, int] = {}

    # -------------------------------------------------------------- #
    def _w(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def _emit_prelude(self) -> None:
        self._w(0, "def __compiled__(_in, _memory, _prev):")
        self._w(1, "_cells = _memory.cells; _mload = _cells.get")
        self._w(1, "_alloc = _memory.allocate")
        self._w(1, "_fuel = _FUEL")
        # All registers start undefined so the guard-failure snapshot can
        # distinguish "never assigned" from any integer value.
        mangled = [m for m, _ in self.name_table]
        for chunk_start in range(0, len(mangled), 8):
            chunk = mangled[chunk_start : chunk_start + 8]
            self._w(1, " = ".join(chunk) + " = _U")

    def _emit_entry_bindings(self) -> Tuple[str, int]:
        """Bind the inputs and return the ``(block, index)`` start point.

        A normal entry binds positional parameters; an OSR stub restores
        every register present in the transferred environment and, when
        landing on a phi head, resolves the parallel assignment against
        the dynamic predecessor exactly like ``Interpreter.resume``.
        """
        fn = self.function
        if self.entry is None:
            for i, param in enumerate(fn.params):
                self._w(1, f"{mangle(param)} = _in[{i}]")
            return fn.entry_label, 0

        # OSR entry stub: re-bind every register present in the
        # transferred environment (missing ones stay undefined, like
        # the interpreter's resume with a partial environment).
        for mangled_name, original in self.name_table:
            self._w(1, f"{mangled_name} = _in.get({original!r}, _U)")
        start_block = self.entry.block
        start_index = self.entry.index

        landing_block = fn.blocks[start_block]
        phis = landing_block.phis()
        if 0 < start_index < len(phis):
            raise ValueError(
                f"@{fn.name}: cannot compile an OSR entry inside the leading "
                f"phi run at {self.entry}"
            )
        if start_index == 0 and phis:
            preds = sorted({p for phi in phis for p in phi.incoming})
            first = True
            for pred in preds:
                kw = "if" if first else "elif"
                first = False
                self._w(1, f"{kw} _prev == {pred!r}:")
                self._emit_phi_moves(2, phis, pred)
            message = (
                f"@{fn.name}: reached phi block {start_block} without a "
                "known predecessor"
            )
            self._w(1, "else:")
            self._w(2, f"raise RuntimeError({message!r})")
            start_index = len(phis)
        return start_block, start_index

    def _emit_phi_moves(self, indent: int, phis: List[Phi], pred: str) -> None:
        """Parallel assignment for the phi run of a block, along edge ``pred``."""
        dests: List[str] = []
        sources: List[str] = []
        for phi in phis:
            incoming = phi.incoming.get(pred)
            if incoming is None:
                message = (
                    f"@{self.function.name}: phi {phi.dest} has no incoming "
                    f"value for predecessor {pred!r}"
                )
                self._w(indent, f"raise RuntimeError({message!r})")
                return
            dests.append(mangle(phi.dest))
            sources.append(compile_expr(incoming))
        if not dests:
            self._w(indent, "pass")
            return
        if len(dests) == 1:
            self._w(indent, f"{dests[0]} = {sources[0]}")
        else:
            self._w(indent, f"{', '.join(dests)} = {', '.join(sources)}")

    def _emit_simple(self, indent: int, block: BasicBlock, index: int) -> None:
        """Emit one position-independent instruction (no jumps/branches)."""
        inst = block.instructions[index]
        label = block.label
        if isinstance(inst, Phi):
            # A phi past the leading run is ill-formed; the verifier
            # rejects it before lowering ever starts.
            raise ValueError(
                f"@{self.function.name}: phi outside the block head at "
                f"{label}:{index}"
            )
        if isinstance(inst, Assign):
            self._w(indent, f"{mangle(inst.dest)} = {compile_expr(inst.expr)}")
        elif isinstance(inst, Load):
            addr = compile_expr(inst.addr)
            self._w(indent, f"{mangle(inst.dest)} = _mload({addr}, 0)")
        elif isinstance(inst, Store):
            # Every other expression yields an int or raises; a bare
            # register may hold the undefined sentinel, which ``+``
            # refuses like ``Memory.store``'s ``int()``.
            value = compile_expr(inst.value)
            if isinstance(inst.value, Var):
                value = f"+{value}"
            self._w(indent, f"_cells[{compile_expr(inst.addr)}] = {value}")
        elif isinstance(inst, Alloca):
            self._w(indent, f"{mangle(inst.dest)} = _alloc({inst.size})")
        elif isinstance(inst, Call):
            args = ", ".join(compile_expr(a) for a in inst.args)
            call = f"_call({inst.callee!r}, [{args}], _memory)"
            if inst.dest is not None:
                self._w(indent, f"{mangle(inst.dest)} = {call}")
            else:
                self._w(indent, call)
        elif isinstance(inst, Guard):
            point = ProgramPoint(label, index)
            slot = len(self.point_table)
            self.point_table.append(point)
            self.reason_table.append(inst.reason)
            paths = self.function.metadata.get("inline_paths", {})
            self.path_table.append(tuple(paths.get(point, ())))
            arrival = self.arrival.get(label)
            prev = "_prev" if arrival is None else repr(arrival)
            self._w(indent, f"if {compile_test(inst.cond, negate=True)}:")
            self._w(
                indent + 1,
                f"raise _GF(_FNAME, _PP[{slot}], _snapshot(locals()), _memory, "
                f"{prev}, reason=_REASONS[{slot}], inline_path=_IPATHS[{slot}])",
            )
        elif isinstance(inst, Nop):
            self._w(indent, "pass")
        elif isinstance(inst, Return):
            value = compile_expr(inst.value) if inst.value is not None else "None"
            # The frame's locals leave as they are: translating them to
            # an IR environment is the reader's cost (CompiledResult.env).
            self._w(indent, f"return ({value}, locals(), _FUEL - _fuel)")
        elif isinstance(inst, Abort):
            message = f"@{self.function.name}: abort at {label}:{index}"
            self._w(indent, f"raise _Abort({message!r})")
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown instruction {inst!r}")


    # -------------------------------------------------------------- #
    # Structured control flow.
    # -------------------------------------------------------------- #
    def emit(self) -> str:
        self._emit_prelude()
        tag_init = len(self.lines)
        start_block, start_index = self._emit_entry_bindings()
        first: Optional[str] = start_block
        if start_index > len(self.function.blocks[start_block].phis()):
            # Mid-block entry: peel the remainder of the interrupted
            # iteration as straight-line code; its terminator re-enters
            # reconstructed loops at their headers (loop extraction).
            # A block-head entry needs nothing special — landing on a
            # loop header opens the reconstructed loop directly.
            first = self._emit_block_body(start_block, (), 1, start_index, _NO_GUARDS)
        self._emit_chain(first, (), 1, _NO_GUARDS)
        if self.tags:
            self.lines.insert(tag_init, "    _x = 0")
        return "\n".join(self.lines) + "\n"

    def _emit_chain(
        self,
        label: Optional[str],
        ctx: Tuple[_Frame, ...],
        indent: int,
        omitted: FrozenSet[ProgramPoint],
    ) -> bool:
        """Emit the region starting at ``label`` (or nothing, for the
        ``None``/``_FALL`` an emission step returned); True if control
        falls off toward the innermost pending join.

        Code that is merely *next* — a jump target, the join after an
        ``if``, the follow after a ``while`` — is emitted by this loop,
        so only real nesting recurses and deepens the indentation.
        """
        if indent > _MAX_INDENT:
            raise UnstructurableCFG(
                f"@{self.function.name}: nests deeper than Python compiles"
            )
        while label is not None and label is not _FALL:
            if label in self.info.follows:
                # A loop header nothing addresses: its loop is not open.
                label = self._emit_loop(label, ctx, indent, omitted)
            else:
                phis = len(self.function.blocks[label].phis())
                label = self._emit_block_body(label, ctx, indent, phis, omitted)
        return label is _FALL

    def _resolve(
        self, to_label: str, ctx: Tuple[_Frame, ...]
    ) -> Tuple[Optional[str], int]:
        """How the context spells a transfer to ``to_label``.

        Returns the spelling under the innermost frame addressing it —
        ``"fall"``, ``"continue"``, ``"break"``, or ``None`` when no
        frame does (emit it inline) — and how many open ``while`` s
        sit in front of that frame.
        """
        whiles = 0
        joins = 0
        for frame in reversed(ctx):
            if not frame.is_loop:
                if frame.label == to_label:
                    if joins:
                        # A pending join postdominates everything in its
                        # arms, inner joins included: unreachable for a
                        # reducible CFG, refused rather than miscompiled.
                        raise UnstructurableCFG(
                            f"@{self.function.name}: no structured spelling "
                            f"for a transfer to {to_label}"
                        )
                    return "fall", whiles
                joins += 1
            elif frame.label == to_label:
                return "continue", whiles
            elif frame.follow == to_label:
                return "break", whiles
            else:
                whiles += 1
        return None, 0

    def _emit_goto(
        self,
        indent: int,
        to_label: str,
        ctx: Tuple[_Frame, ...],
        tagged: bool = False,
    ) -> Optional[str]:
        """Spell a transfer whose edge moves are already emitted.

        ``tagged`` marks the re-dispatch after a ``while`` the transfer
        left through the exit tag.  Returns ``_FALL``, ``None`` or —
        when nothing addresses it — ``to_label`` itself, to emit next.
        """
        spelling, whiles = self._resolve(to_label, ctx)
        if spelling is None:
            return to_label
        if whiles:
            # The frame is behind open whiles: leave the innermost one
            # with the tag set; the code after it takes the next step.
            loop = next(frame for frame in reversed(ctx) if frame.is_loop)
            if to_label not in loop.exits:
                loop.exits.append(to_label)
            if not tagged:
                tag = self.tags.setdefault(to_label, len(self.tags) + 1)
                self._w(indent, f"_x = {tag}")
            self._w(indent, "break")
            return None
        if tagged:
            self._w(indent, "_x = 0")
        if spelling == "fall":
            return _FALL
        self._w(indent, spelling)
        return None

    # -------------------------------------------------------------- #
    def _emit_loop(
        self,
        header: str,
        ctx: Tuple[_Frame, ...],
        indent: int,
        omitted: FrozenSet[ProgramPoint],
    ) -> Optional[str]:
        if sum(frame.is_loop for frame in ctx) >= _MAX_LOOP_DEPTH:
            raise UnstructurableCFG(
                f"@{self.function.name}: nests more loops than Python compiles"
            )
        follow = self.info.follows[header]
        frame = _Frame(header, True, follow, [])
        inner = ctx + (frame,)
        guards = [g for g in self.plans.get(header, ()) if g.point not in omitted]
        if guards:
            # Guard unswitching: one pre-check picks between a fast copy
            # with the invariant guards omitted and a slow copy keeping
            # every guard at its exact program point (so a failing guard
            # carries interpreter-identical deopt state).
            self._w(indent, f"if {self._precheck(guards)}:")
            fast = omitted | {g.point for g in guards}
            self._emit_while(header, inner, indent + 1, fast)
            self._w(indent, "else:")
            self._emit_while(header, inner, indent + 1, omitted)
        else:
            self._emit_while(header, inner, indent, omitted)
        # Transfers that left through the exit tag take their next step
        # here; the phi moves for every way of reaching a target (the
        # follow included) were emitted on the ``break`` edges.
        falls = False
        for n, target in enumerate(frame.exits):
            self._w(indent, f"{'elif' if n else 'if'} _x == {self.tags[target]}:")
            falls |= self._emit_goto(indent + 1, target, ctx, tagged=True) is _FALL
        if follow is None:
            return _FALL if falls else None  # no exit lands after the loop
        if not falls:
            return self._emit_goto(indent, follow, ctx)
        self._w(indent, "else:")
        mark = len(self.lines)
        self._emit_chain(
            self._emit_goto(indent + 1, follow, ctx), ctx, indent + 1, omitted
        )
        if len(self.lines) == mark:
            self._w(indent + 1, "pass")
        return _FALL

    def _emit_while(
        self,
        header: str,
        inner: Tuple[_Frame, ...],
        indent: int,
        omitted: FrozenSet[ProgramPoint],
    ) -> None:
        self._w(indent, "while True:")
        self._w(indent + 1, "_fuel -= 1")
        self._w(indent + 1, "if _fuel < 0:")
        self._w(
            indent + 2,
            "raise _StepLimit('compiled execution exceeded the step limit "
            "of %d block transfers' % _FUEL)",
        )
        phis = len(self.function.blocks[header].phis())
        # Never falls: a pending join outside the loop is behind it.
        self._emit_chain(
            self._emit_block_body(header, inner, indent + 1, phis, omitted),
            inner,
            indent + 1,
            omitted,
        )

    def _precheck(self, guards: Sequence[HoistableGuard]) -> str:
        checks = sorted({name for g in guards for name in g.undef_checks})
        parts = [f"{mangle(name)} is not _U" for name in checks]
        seen = set()
        for g in guards:
            src = compile_test(g.precheck)
            if src not in seen:
                seen.add(src)
                parts.append(src)
        return " and ".join(parts)

    # -------------------------------------------------------------- #
    def _emit_block_body(
        self,
        label: str,
        ctx: Tuple[_Frame, ...],
        indent: int,
        body_start: int,
        omitted: FrozenSet[ProgramPoint],
    ) -> Optional[str]:
        block = self.function.blocks[label]
        insts = block.instructions
        last = len(insts) - 1  # the terminator: verify_function ran
        fused = self.fused.get(label)
        if fused is not None and body_start > last - 1:
            # Entering past the comparison (OSR remainder): the operands
            # may be absent from the transferred environment, so branch
            # on the transferred temp like the interpreter would.
            fused = None
        for index in range(body_start, last):
            if fused is not None and index == last - 1:
                continue  # the comparison is folded into the branch below
            inst = insts[index]
            if isinstance(inst, Guard) and ProgramPoint(label, index) in omitted:
                continue  # unswitched out of this loop copy
            self._emit_simple(indent, block, index)
        term = insts[last]
        if isinstance(term, Jump):
            return self._emit_transfer(indent, label, term.target, ctx, omitted)
        if isinstance(term, Branch):
            return self._emit_branch(block, term, ctx, indent, omitted, fused)
        self._emit_simple(indent, block, last)  # Return / Abort
        return None

    def _emit_transfer(
        self,
        indent: int,
        from_label: str,
        to_label: str,
        ctx: Tuple[_Frame, ...],
        omitted: FrozenSet[ProgramPoint],
    ) -> Optional[str]:
        """Emit one CFG edge: its phi moves, then the spelled transfer."""
        target = self.function.blocks.get(to_label)
        if target is None:
            message = f"@{self.function.name}: unknown block {to_label!r}"
            self._w(indent, f"raise KeyError({message!r})")
            return None
        phis = target.phis()
        if phis:
            self._emit_phi_moves(indent, phis, from_label)
        points = self.tracked.get(to_label)
        if points is not None and (to_label == self.start or not points <= omitted):
            self._w(indent, f"_prev = {from_label!r}")
        return self._emit_goto(indent, to_label, ctx)

    def _emit_arm(
        self,
        indent: int,
        from_label: str,
        to_label: str,
        ctx: Tuple[_Frame, ...],
        omitted: FrozenSet[ProgramPoint],
    ) -> bool:
        """One branch arm: the edge, then whatever it leads to inline."""
        return self._emit_chain(
            self._emit_transfer(indent, from_label, to_label, ctx, omitted),
            ctx,
            indent,
            omitted,
        )

    def _emit_branch(
        self,
        block: BasicBlock,
        inst: Branch,
        ctx: Tuple[_Frame, ...],
        indent: int,
        omitted: FrozenSet[ProgramPoint],
        fused: Optional[FusedCompareBranch],
    ) -> Optional[str]:
        label = block.label
        then_t, else_t = inst.then_target, inst.else_target
        if then_t == else_t:
            # Degenerate branch: still evaluate the condition (it may
            # observe an unbound register, like the interpreter would).
            self._w(indent, f"if {compile_test(inst.cond)}:")
            self._w(indent + 1, "pass")
            return self._emit_transfer(indent, label, then_t, ctx, omitted)

        if fused is not None:
            cond_src = compile_test(fused.compare)
            # The fused temp stays environment-observable (snapshots at
            # guards and returns contain every register the interpreter
            # assigned), so re-materialize it as the constant branch
            # outcome on each arm.
            then_extra: Optional[str] = f"{mangle(fused.temp)} = 1"
            else_extra: Optional[str] = f"{mangle(fused.temp)} = 0"
        else:
            cond_src = compile_test(inst.cond)
            then_extra = else_extra = None

        # The arms reconverge at the branch's immediate postdominator;
        # if nothing addresses it yet, it is emitted after the ``if``.
        join = self.info.postdoms.immediate(label)
        if join is not None and (
            join == VIRTUAL_EXIT or self._resolve(join, ctx)[0] is not None
        ):
            join = None
        arm_ctx = ctx + (_Frame(join),) if join is not None else ctx

        self._w(indent, f"if {cond_src}:")
        mark = len(self.lines)
        if then_extra:
            self._w(indent + 1, then_extra)
        then_falls = self._emit_arm(indent + 1, label, then_t, arm_ctx, omitted)
        if len(self.lines) == mark:
            self._w(indent + 1, "pass")
        if then_falls:
            self._w(indent, "else:")
            mark = len(self.lines)
            if else_extra:
                self._w(indent + 1, else_extra)
            else_falls = self._emit_arm(indent + 1, label, else_t, arm_ctx, omitted)
            if len(self.lines) == mark:
                self._w(indent + 1, "pass")
        else:
            # The then arm never reaches the code after the ``if`` —
            # dedent the else arm instead of nesting it.
            if else_extra:
                self._w(indent, else_extra)
            if join is None:
                return self._emit_transfer(indent, label, else_t, ctx, omitted)
            else_falls = self._emit_arm(indent, label, else_t, arm_ctx, omitted)

        if not (then_falls or else_falls):
            return None
        return _FALL if join is None else join
