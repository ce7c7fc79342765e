"""Reference interpreter for the repro IR.

The interpreter is the executable semantics of the IR — the analogue of the
big-step semantics of Figure 2 in the paper, extended with basic blocks,
phi nodes, memory and calls.  It is deliberately simple and is used for:

* running workloads and examples,
* validating transformations (an optimized function must compute the same
  result as the original on the same inputs),
* empirical live-variable-bisimulation checking
  (:mod:`repro.core.bisimulation`),
* executing OSR transitions: execution can be *resumed* at an arbitrary
  program point with a given environment, which is exactly what an OSR
  landing pad does (:meth:`Interpreter.resume`).

States, traces and stores follow the paper's terminology: a state is a
pair ``(environment, program point)`` and a trace is the sequence of states
visited by a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .expr import evaluate
from .function import Function, Module, ProgramPoint
from .intrinsics import call_intrinsic, is_intrinsic, reject_reserved_names
from .instructions import (
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

__all__ = [
    "AbortExecution",
    "StepLimitExceeded",
    "GuardFailure",
    "Memory",
    "TraceEntry",
    "ExecutionResult",
    "Interpreter",
    "run_function",
    "run_module",
]


class AbortExecution(RuntimeError):
    """Raised when an ``abort`` instruction is executed."""


class StepLimitExceeded(RuntimeError):
    """Raised when execution exceeds the configured step budget."""


class GuardFailure(RuntimeError):
    """Raised when a ``guard`` condition evaluates to zero.

    Carries the paused state at the failing guard — exactly the state a
    deoptimizing OSR transfers: the function, the guard's program point,
    the environment, the memory and the block execution arrived from.
    The speculative runtime catches this and lands in the unoptimized
    code instead of crashing.
    """

    def __init__(
        self,
        function: str,
        point: ProgramPoint,
        env: Dict[str, int],
        memory: "Memory",
        previous_block: Optional[str],
        *,
        reason: Optional[str] = None,
        inline_path: Tuple[str, ...] = (),
    ) -> None:
        detail = f" ({reason})" if reason else ""
        super().__init__(f"@{function}: guard failed at {point}{detail}")
        self.function = function
        self.point = point
        self.env = env
        self.memory = memory
        self.previous_block = previous_block
        #: The speculated fact the failing guard protected (when the
        #: guard-inserting pass recorded one) — pure diagnostics.
        self.reason = reason
        #: The virtual call stack the guard sits in, innermost callee
        #: first (empty when the guard is in straight caller code).  Set
        #: from the function's ``"inline_paths"`` metadata recorded by
        #: the inlining pass; the multi-frame deoptimization plan for
        #: this point reconstructs exactly ``len(inline_path) + 1``
        #: frames.  Both execution backends attach the same path, which
        #: the differential tests assert.
        self.inline_path = tuple(inline_path)
        #: Materialized per-frame environments, filled in by the runtime
        #: once the deoptimization plan has run (observability only).
        self.frames: List["FrameState"] = []


class Memory:
    """A flat integer-addressed memory.

    Addresses are allocated by ``alloca`` (and by the host via
    :meth:`allocate`); uninitialized cells read as 0, matching the
    zero-filled arrays the workloads expect.

    :attr:`cells` is the backing ``{address: value}`` dict itself, so
    generated code reads a cell with ``cells.get(address, 0)`` (exactly
    :meth:`load`) and writes one by subscript, without a method frame
    per access.  Every value in it is an ``int``: :meth:`store` coerces,
    and a writer of ``cells`` must store ``int`` s only.
    """

    def __init__(self) -> None:
        self.cells: Dict[int, int] = {}
        self._next_address = 1  # address 0 is reserved as a "null" marker

    def allocate(self, size: int = 1) -> int:
        """Reserve ``size`` consecutive cells and return the base address."""
        if size < 1:
            raise ValueError("allocation size must be positive")
        base = self._next_address
        self._next_address += size
        return base

    def load(self, address: int) -> int:
        return self.cells.get(address, 0)

    def store(self, address: int, value: int) -> None:
        self.cells[address] = int(value)

    def write_array(self, address: int, values: Sequence[int]) -> None:
        """Bulk-initialize consecutive cells starting at ``address``."""
        for offset, value in enumerate(values):
            self.store(address + offset, value)

    def read_array(self, address: int, length: int) -> List[int]:
        return [self.load(address + offset) for offset in range(length)]

    def snapshot(self) -> Dict[int, int]:
        """A copy of all written cells (used by store-invariant checks)."""
        return dict(self.cells)

    def copy(self) -> "Memory":
        clone = Memory()
        clone.cells = dict(self.cells)
        clone._next_address = self._next_address
        return clone


@dataclass
class TraceEntry:
    """One observed state: the point about to execute and the live environment."""

    function: str
    point: ProgramPoint
    env: Dict[str, int]


@dataclass
class ExecutionResult:
    """Outcome of running (or resuming) a function.

    ``stopped_at`` is set when execution paused at a ``break_at`` point
    instead of returning: it names the program point about to execute, and
    ``env``/``memory`` hold the state at that moment (this is exactly the
    state an OSR transition transfers).
    """

    value: Optional[int]
    steps: int
    trace: List[TraceEntry] = field(default_factory=list)
    env: Dict[str, int] = field(default_factory=dict)
    memory: Optional[Memory] = None
    stopped_at: Optional[ProgramPoint] = None
    previous_block: Optional[str] = None
    #: Name of the execution backend that produced this result.  For the
    #: interpreter ``steps`` counts instructions; compiled backends count
    #: block transfers instead (per-instruction accounting is exactly the
    #: overhead they exist to remove).
    backend: str = "interp"


#: Signature of host (native) functions callable from IR code.
NativeFunction = Callable[[List[int], Memory], int]


class Interpreter:
    """Executes functions of a :class:`~repro.ir.function.Module`.

    Parameters
    ----------
    module:
        The module providing callee functions.  A standalone function can
        be run by wrapping it in a throwaway module.
    step_limit:
        Maximum number of instructions executed per top-level run,
        including callees.  Guards against accidentally non-terminating
        transformed programs in tests.
    natives:
        Host functions callable as ``call @name(...)`` when ``name`` is not
        defined in the module.
    profiler:
        Optional value/branch/call profile sink (duck-typed; see
        :class:`repro.vm.profile.ValueProfile`).  When set, the
        interpreter reports every defined register value via
        ``record_value(function, register, value)``, every
        conditional-branch outcome via
        ``record_branch(function, point, taken)`` and every executed
        call site via ``record_call(function, point, callee, args)`` —
        the raw material the speculative and interprocedural tiers'
        guard-insertion and inlining passes consume.
    """

    def __init__(
        self,
        module: Optional[Module] = None,
        *,
        step_limit: int = 1_000_000,
        natives: Optional[Mapping[str, NativeFunction]] = None,
        profiler=None,
    ) -> None:
        self.module = module or Module("anonymous")
        self.step_limit = step_limit
        self.natives: Dict[str, NativeFunction] = dict(natives or {})
        # Intrinsics resolve before natives; a colliding registration
        # would silently never run, so refuse it up front.
        reject_reserved_names(self.natives)
        self.profiler = profiler
        self._steps = 0

    # ------------------------------------------------------------------ #
    # Public entry points.
    # ------------------------------------------------------------------ #
    def run(
        self,
        function: Function,
        args: Sequence[int] = (),
        *,
        memory: Optional[Memory] = None,
        collect_trace: bool = False,
        trace_filter: Optional[Callable[[ProgramPoint], bool]] = None,
        break_at: Optional[ProgramPoint] = None,
        break_on_visit: int = 1,
    ) -> ExecutionResult:
        """Run ``function`` from its entry with the given argument values.

        When ``break_at`` is given, execution pauses just before the
        ``break_on_visit``-th time that point would execute; the result's
        ``stopped_at``/``env``/``memory`` capture the paused state.
        """
        if len(args) != len(function.params):
            raise TypeError(
                f"function @{function.name} expects {len(function.params)} arguments, "
                f"got {len(args)}"
            )
        env = {name: int(value) for name, value in zip(function.params, args)}
        if self.profiler is not None:
            for name, value in env.items():
                self.profiler.record_value(function.name, name, value)
        entry_point = ProgramPoint(function.entry_label, 0)
        return self._execute(
            function,
            entry_point,
            env,
            memory if memory is not None else Memory(),
            previous_block=None,
            collect_trace=collect_trace,
            trace_filter=trace_filter,
            reset_steps=True,
            break_at=break_at,
            break_on_visit=break_on_visit,
        )

    def resume(
        self,
        function: Function,
        point: ProgramPoint,
        env: Mapping[str, int],
        *,
        memory: Optional[Memory] = None,
        previous_block: Optional[str] = None,
        collect_trace: bool = False,
        trace_filter: Optional[Callable[[ProgramPoint], bool]] = None,
        break_at: Optional[ProgramPoint] = None,
        break_on_visit: int = 1,
    ) -> ExecutionResult:
        """Resume execution of ``function`` at ``point`` with environment ``env``.

        This models the landing side of an OSR transition: the caller is
        responsible for having run the compensation code that produced
        ``env``.  ``previous_block`` must be supplied when ``point`` sits
        inside a leading run of phi nodes (the phis need to know which
        edge execution "arrived" from); resuming after the phis is the
        common case and needs no predecessor.
        """
        return self._execute(
            function,
            point,
            dict(env),
            memory if memory is not None else Memory(),
            previous_block=previous_block,
            collect_trace=collect_trace,
            trace_filter=trace_filter,
            reset_steps=True,
            break_at=break_at,
            break_on_visit=break_on_visit,
        )

    # ------------------------------------------------------------------ #
    # Core execution loop.
    # ------------------------------------------------------------------ #
    def _execute(
        self,
        function: Function,
        start: ProgramPoint,
        env: Dict[str, int],
        memory: Memory,
        *,
        previous_block: Optional[str],
        collect_trace: bool,
        trace_filter: Optional[Callable[[ProgramPoint], bool]],
        reset_steps: bool,
        break_at: Optional[ProgramPoint] = None,
        break_on_visit: int = 1,
    ) -> ExecutionResult:
        if reset_steps:
            self._steps = 0
        trace: List[TraceEntry] = []
        block_label = start.block
        index = start.index
        prev_block = previous_block
        visits_remaining = break_on_visit

        while True:
            block = function.blocks.get(block_label)
            if block is None:
                raise KeyError(f"@{function.name}: unknown block {block_label!r}")
            instructions = block.instructions

            # Phi nodes at the head of a block are evaluated as a parallel
            # assignment using values from the edge we arrived on.
            if index == 0 and instructions and isinstance(instructions[0], Phi):
                phis = [i for i in instructions if isinstance(i, Phi)]
                if prev_block is None:
                    raise RuntimeError(
                        f"@{function.name}: reached phi block {block_label} "
                        "without a known predecessor"
                    )
                updates: Dict[str, int] = {}
                for phi in phis:
                    incoming = phi.incoming.get(prev_block)
                    if incoming is None:
                        raise RuntimeError(
                            f"@{function.name}: phi {phi} has no incoming value "
                            f"for predecessor {prev_block!r}"
                        )
                    updates[phi.dest] = evaluate(incoming, env)
                    if self.profiler is not None:
                        self.profiler.record_value(
                            function.name, phi.dest, updates[phi.dest]
                        )
                    self._count_step()
                    if collect_trace and (trace_filter is None or trace_filter(
                        ProgramPoint(block_label, instructions.index(phi))
                    )):
                        trace.append(
                            TraceEntry(
                                function.name,
                                ProgramPoint(block_label, instructions.index(phi)),
                                dict(env),
                            )
                        )
                env.update(updates)
                index = len(phis)

            while index < len(instructions):
                inst = instructions[index]
                point = ProgramPoint(block_label, index)
                if break_at is not None and point == break_at:
                    visits_remaining -= 1
                    if visits_remaining <= 0:
                        return ExecutionResult(
                            None,
                            self._steps,
                            trace,
                            env,
                            memory,
                            stopped_at=point,
                            previous_block=prev_block,
                        )
                if collect_trace and (trace_filter is None or trace_filter(point)):
                    trace.append(TraceEntry(function.name, point, dict(env)))
                self._count_step()

                if isinstance(inst, Phi):
                    # A phi encountered mid-block (after resumption past the
                    # leading run) re-reads its incoming edge; this only
                    # happens when resuming exactly at a phi, which OSR
                    # avoids by landing after the phi run.
                    raise RuntimeError(
                        f"@{function.name}: cannot execute phi at {point} outside "
                        "the block head"
                    )
                if isinstance(inst, Assign):
                    env[inst.dest] = evaluate(inst.expr, env)
                    if self.profiler is not None:
                        self.profiler.record_value(function.name, inst.dest, env[inst.dest])
                elif isinstance(inst, Load):
                    env[inst.dest] = memory.load(evaluate(inst.addr, env))
                    if self.profiler is not None:
                        self.profiler.record_value(function.name, inst.dest, env[inst.dest])
                elif isinstance(inst, Store):
                    memory.store(evaluate(inst.addr, env), evaluate(inst.value, env))
                elif isinstance(inst, Alloca):
                    env[inst.dest] = memory.allocate(inst.size)
                elif isinstance(inst, Call):
                    result = self._call(inst, env, memory, collect_trace, function, point)
                    if inst.dest is not None:
                        env[inst.dest] = result
                        if self.profiler is not None:
                            self.profiler.record_value(function.name, inst.dest, result)
                elif isinstance(inst, Guard):
                    if evaluate(inst.cond, env) == 0:
                        paths = function.metadata.get("inline_paths", {})
                        raise GuardFailure(
                            function.name,
                            point,
                            dict(env),
                            memory,
                            prev_block,
                            reason=inst.reason,
                            inline_path=paths.get(point, ()),
                        )
                elif isinstance(inst, Nop):
                    pass
                elif isinstance(inst, Jump):
                    prev_block = block_label
                    block_label = inst.target
                    index = 0
                    break
                elif isinstance(inst, Branch):
                    taken = evaluate(inst.cond, env) != 0
                    if self.profiler is not None:
                        self.profiler.record_branch(function.name, point, taken)
                    prev_block = block_label
                    block_label = inst.then_target if taken else inst.else_target
                    index = 0
                    break
                elif isinstance(inst, Return):
                    value = evaluate(inst.value, env) if inst.value is not None else None
                    return ExecutionResult(value, self._steps, trace, env, memory)
                elif isinstance(inst, Abort):
                    raise AbortExecution(f"@{function.name}: abort at {point}")
                else:  # pragma: no cover - defensive
                    raise TypeError(f"unknown instruction {inst!r}")
                index += 1
            else:
                # Fell off the end of a block without a terminator.
                raise RuntimeError(
                    f"@{function.name}: block {block_label} ended without a terminator"
                )

    def _call(
        self,
        inst: Call,
        env: Dict[str, int],
        memory: Memory,
        collect_trace: bool,
        caller: Function,
        point: ProgramPoint,
    ) -> int:
        arg_values = [evaluate(arg, env) for arg in inst.args]
        if self.profiler is not None:
            self.profiler.record_call(caller.name, point, inst.callee, arg_values)
        # Intrinsic names are reserved (see repro.ir.intrinsics): they
        # resolve before module functions so the optimizer's purity facts
        # can never be invalidated by a shadowing definition.
        if is_intrinsic(inst.callee):
            result = call_intrinsic(inst.callee, arg_values)
            assert result is not None
            return result
        if inst.callee in self.module:
            callee = self.module.get(inst.callee)
            sub_env = {
                name: value for name, value in zip(callee.params, arg_values)
            }
            if self.profiler is not None:
                for name, value in sub_env.items():
                    self.profiler.record_value(callee.name, name, value)
            result = self._execute(
                callee,
                ProgramPoint(callee.entry_label, 0),
                sub_env,
                memory,
                previous_block=None,
                collect_trace=False,
                trace_filter=None,
                reset_steps=False,
            )
            return result.value if result.value is not None else 0
        native = self.natives.get(inst.callee)
        if native is None:
            raise KeyError(f"call to unknown function @{inst.callee}")
        return int(native(arg_values, memory))

    def _count_step(self) -> None:
        self._steps += 1
        if self._steps > self.step_limit:
            raise StepLimitExceeded(
                f"execution exceeded the step limit of {self.step_limit}"
            )


def run_function(
    function: Function,
    args: Sequence[int] = (),
    *,
    module: Optional[Module] = None,
    memory: Optional[Memory] = None,
    step_limit: int = 1_000_000,
    collect_trace: bool = False,
) -> ExecutionResult:
    """Convenience wrapper: run a single function with default settings."""
    interpreter = Interpreter(module, step_limit=step_limit)
    return interpreter.run(
        function, args, memory=memory, collect_trace=collect_trace
    )


def run_module(
    module: Module,
    entry: str,
    args: Sequence[int] = (),
    *,
    step_limit: int = 1_000_000,
) -> ExecutionResult:
    """Run ``entry`` within ``module``."""
    interpreter = Interpreter(module, step_limit=step_limit)
    return interpreter.run(module.get(entry), args)
