"""Executable OSR-transition checks over IR functions.

The paper's correctness story has three layers.  The two formal ones —
live-variable bisimulation (Definitions 4.1–4.4) and mapping soundness
(Definition 3.1) over the minimal language — are checked in
:mod:`repro.formal.bisimulation`.  This module holds the IR-level layer,
Section 6.1's "compile and run a sample of all feasible OSR pairs":

* :func:`check_ir_osr_transition` runs a function up to a point,
  transfers the state through a mapping and resumes in the other
  version, comparing the final result against an uninterrupted run;
* :func:`check_guarded_deopt` and :func:`check_multiframe_deopt` do the
  same for a guard failure inside speculative (and inlined) code.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from ..ir.function import Function, ProgramPoint
from ..ir.interp import GuardFailure, Interpreter, Memory
from .mapping import OSRMapping

__all__ = ["check_ir_osr_transition", "check_guarded_deopt", "check_multiframe_deopt"]


def check_ir_osr_transition(
    source: Function,
    target: Function,
    mapping: OSRMapping,
    source_point: ProgramPoint,
    args: Sequence[int],
    *,
    module=None,
    memory: Optional[Memory] = None,
    step_limit: int = 1_000_000,
    backend=None,
) -> bool:
    """Validate one IR-level OSR transition by actually executing it.

    Runs ``source`` with ``args`` until just before ``source_point`` would
    execute (the interpreter's ``break_at`` support pauses execution with
    the live environment and memory), transfers the environment through
    ``mapping`` and resumes ``target`` at the landing point with the same
    memory.  The final return value must match an uninterrupted run of
    ``source``.

    ``backend`` (any :class:`~repro.vm.backend.ExecutionBackend`-shaped
    object) selects the engine that executes the *landing* side — pass
    the compiled backend to validate that an OSR entry stub resumed in
    compiled code is bisimilar to an interpreter resume.  The paused
    source run always uses the interpreter (pausing needs ``break_at``).

    Returns ``True`` when the transition produced the same result, and
    also when ``source`` never reaches ``source_point`` on these arguments
    (there is nothing to validate in that case).
    """
    entry = mapping.lookup(source_point)
    if entry is None:
        raise KeyError(f"mapping does not support OSR at {source_point}")

    reference = Interpreter(module, step_limit=step_limit).run(
        source, args, memory=memory.copy() if memory is not None else None
    )

    paused = Interpreter(module, step_limit=step_limit).run(
        source,
        args,
        memory=memory.copy() if memory is not None else None,
        break_at=source_point,
    )
    if paused.stopped_at is None:
        return True  # the point is never reached on these inputs

    landing_env = mapping.transfer(source_point, paused.env)
    if backend is not None:
        resumed = backend.run_from(
            target,
            entry.target,
            landing_env,
            memory=paused.memory,
            previous_block=paused.previous_block,
        )
    else:
        resumed = Interpreter(module, step_limit=step_limit).resume(
            target,
            entry.target,
            landing_env,
            memory=paused.memory,
            previous_block=paused.previous_block,
        )
    return resumed.value == reference.value


def check_guarded_deopt(
    base: Function,
    optimized: Function,
    plans: Mapping[ProgramPoint, "DeoptPlan"],
    args: Sequence[int],
    *,
    module=None,
    memory: Optional[Memory] = None,
    step_limit: int = 1_000_000,
    backend=None,
) -> bool:
    """Validate a guard failure → deoptimizing OSR round trip end to end.

    Runs the speculative ``optimized`` version on inputs expected to
    violate a speculated assumption; ``plans`` are the pair's
    ``deopt_plans()``, what the runtime itself transfers state through
    (single-frame here).  ``backend`` selects the engine that
    executes the optimized version and the f_base landing — pass the
    compiled backend to validate that a guard failing *in compiled code*
    carries exactly the live state the deoptimization needs.  When a
    guard fails, three facts are checked — the executable reading of
    Definition 3.1 applied to the deopt point:

    1. **realizability** — the transferred environment (restricted to the
       variables live at the landing point) equals the state f_base
       itself exhibits at that point on some visit of an uninterrupted
       run: the live state at the deopt point is bisimilar to a real
       f_base state, not merely type-correct;
    2. **completeness** — the compensation code produced a value for
       every variable live at the landing point;
    3. **equivalence** — resuming f_base from the transferred state
       returns exactly what an uninterrupted f_base run returns.

    When no guard fires on these inputs, the optimized result must
    simply equal the base result (speculation held).
    """
    reference = Interpreter(module, step_limit=step_limit).run(
        base, args, memory=memory.copy() if memory is not None else None
    )
    try:
        run_memory = memory.copy() if memory is not None else None
        if backend is not None:
            speculative = backend.run(optimized, args, memory=run_memory)
        else:
            speculative = Interpreter(module, step_limit=step_limit).run(
                optimized, args, memory=run_memory
            )
        return speculative.value == reference.value
    except GuardFailure as exc:
        failure = exc  # the except-clause name is scoped to its block

    plan = plans.get(failure.point)
    if plan is None:
        return False  # an uncovered guard fired: speculation was unsound
    if plan.is_multiframe:
        return False  # a guard inside inlined code: check_multiframe_deopt's contract
    frame = plan.frames[0]
    landing_env = frame.transfer(failure.env)

    # (2) completeness: every variable live at the landing point is defined.
    if not set(frame.live_at_target) <= set(landing_env):
        return False

    # (1) realizability: f_base, run uninterrupted, passes through the
    # landing point in exactly this live state on some visit.
    traced = Interpreter(module, step_limit=step_limit).run(
        base,
        args,
        memory=memory.copy() if memory is not None else None,
        collect_trace=True,
        trace_filter=lambda point: point == frame.target,
    )
    realizable = any(
        all(state.env.get(name) == landing_env[name] for name in landing_env)
        for state in traced.trace
    )
    if not realizable:
        return False

    # (3) equivalence: finishing in f_base from the transferred state
    # produces the uninterrupted f_base result.
    if backend is not None:
        resumed = backend.run_from(
            base,
            frame.target,
            landing_env,
            memory=failure.memory,
            previous_block=failure.previous_block,
        )
    else:
        resumed = Interpreter(module, step_limit=step_limit).resume(
            base,
            frame.target,
            landing_env,
            memory=failure.memory,
            previous_block=failure.previous_block,
        )
    return resumed.value == reference.value


def check_multiframe_deopt(
    base: Function,
    optimized: Function,
    plans: Mapping[ProgramPoint, "DeoptPlan"],
    args: Sequence[int],
    *,
    module=None,
    memory: Optional[Memory] = None,
    step_limit: int = 1_000_000,
    backend=None,
    require_multiframe: bool = True,
) -> bool:
    """Validate a guard failure inside inlined code end to end.

    Runs the interprocedurally optimized ``optimized`` on inputs expected
    to violate a speculated assumption inside an inlined body, and checks
    the multi-frame contract of :mod:`repro.core.frames`:

    1. **coverage** — the failing guard has a deoptimization plan, and
       (with ``require_multiframe``) the plan reconstructs more than one
       frame, i.e. the guard really sat inside inlined code and the
       failure's ``inline_path`` names the same virtual stack;
    2. **completeness** — every frame's rebuilt environment defines every
       variable live at that frame's landing point (minus the call
       destination the runtime binds from the inner frame's return
       value);
    3. **equivalence** — unwinding the stack innermost-to-outermost in
       the base tier (each frame's return value bound into the enclosing
       frame's destination) produces exactly what an uninterrupted base
       run of the caller produces.

    ``backend`` selects the engine that executes the optimized version
    (the resumes always use the interpreter: multi-frame unwinding is a
    base-tier activity).  When no guard fires on these inputs, the
    optimized result must simply equal the base result.
    """
    reference = Interpreter(module, step_limit=step_limit).run(
        base, args, memory=memory.copy() if memory is not None else None
    )
    try:
        run_memory = memory.copy() if memory is not None else None
        if backend is not None:
            speculative = backend.run(optimized, args, memory=run_memory)
        else:
            speculative = Interpreter(module, step_limit=step_limit).run(
                optimized, args, memory=run_memory
            )
        return speculative.value == reference.value
    except GuardFailure as exc:
        failure = exc

    plan = plans.get(failure.point)
    if plan is None:
        return False  # an uncovered guard fired: speculation was unsound
    if require_multiframe and len(plan.frames) < 2:
        return False
    if failure.inline_path != plan.inline_path():
        return False  # the raised failure mislabels its virtual stack

    interpreter = Interpreter(module, step_limit=step_limit)
    value: Optional[int] = None
    result = None
    for index, frame in enumerate(plan.frames):
        env = frame.transfer(failure.env)
        # (2) completeness, modulo the runtime-bound destination.
        needed = set(frame.live_at_target) - ({frame.dest} if frame.dest else set())
        if not needed <= set(env):
            return False
        if frame.dest is not None:
            env[frame.dest] = value if value is not None else 0
        result = interpreter.resume(
            frame.function,
            frame.target,
            env,
            memory=failure.memory,
            previous_block=(
                frame.translate_block(failure.previous_block) if index == 0 else None
            ),
        )
        value = result.value

    # (3) equivalence with the uninterrupted base-tier run.
    return result is not None and result.value == reference.value
