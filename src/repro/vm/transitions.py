"""Transitions: every application of an OSR mapping at run time.

In the vocabulary of "On-Stack Replacement à la Carte" a *transition*
is a mapping application.  This module is the one client of
:mod:`repro.core.frames`, :mod:`repro.core.osrkit` and the
forward/backward :class:`~repro.core.mapping.OSRMapping` objects a
:class:`~repro.vm.version.CompiledVersion` carries:

* **Optimizing OSR** (:meth:`Transitions.enter_mid_flight`) — the call
  that triggered a synchronous compile pauses f_base at a mapped point,
  transfers its state through the forward mapping and lands in the
  optimized code.
* **Guard failure** (:meth:`Transitions.guard_failed`) — the live state
  goes back to f_base through the failing guard's plan: one frame (with
  a Deoptless-style dispatched continuation cached for repeat failures)
  or, for a guard inside inlined code, the whole virtual call stack.
* **Forced deoptimization** (:meth:`Transitions.deoptimize_at`) — an
  external invalidation pauses the optimized code at a point and maps
  back through the version's full backward mapping.

Every transition resolves against exactly the table entry the
activation started with: other activations may invalidate or replace
entries while this one is on the stack, and its failure must use the
plans of the version that actually raised it.  What a failure *means*
for the table is the coordinator's policy bookkeeping (``note_failure``).
Locks are held only around counter and cache updates, never across
execution or event publication.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..cfg.dominance import DominatorTree
from ..cfg.graph import ControlFlowGraph
from ..cfg.loops import find_loops
from ..core.frames import DeoptPlan, FrameState
from ..core.osrkit import ContinuationInfo, make_continuation
from ..engine.events import (
    ContinuationCached,
    ContinuationEvicted,
    DeoptimizingOSR,
    DispatchedOSR,
    GuardFailed,
    MultiFrameDeopt,
    OptimizingOSR,
    OSREntryRejected,
)
from ..ir.expr import evaluate, free_vars
from ..ir.function import Function, ProgramPoint
from ..ir.instructions import Guard, Phi
from ..ir.interp import ExecutionResult, GuardFailure, Interpreter, Memory
from ..passes import ConstantPropagationPass
from .profile import VersionKey
from .version import CompiledVersion, SpecializedVersion

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runtime import AdaptiveRuntime, TieredFunction

__all__ = [
    "ContinuationKey",
    "CachedContinuation",
    "Transitions",
    "describe_continuations",
]

#: Identity of a dispatched-OSR target: the version (by its entry-profile
#: key — at most one version per key is ever live), the failing guard's
#: program point in the optimized code, plus the *shape* of the live
#: state being transferred (the set of variables live at the landing
#: point).  For the strict mappings the runtime builds today the shape is
#: fully determined by the point — its job is defensive: a cached
#: continuation's parameter list derives from the shape, so if a future
#: non-strict mapping ever produces a different live set at the same
#: point, it gets its own continuation instead of a mis-parameterized
#: call.  Keying by version keeps a continuation specialized against one
#: version from ever serving another's deopt.
ContinuationKey = Tuple[VersionKey, ProgramPoint, FrozenSet[str]]


@dataclass
class CachedContinuation:
    """One specialized continuation plus its dispatch statistics."""

    info: ContinuationInfo
    hits: int = 0


def describe_continuations(
    continuations: Dict[ContinuationKey, CachedContinuation],
) -> List[Dict[str, object]]:
    """JSON-safe rows for a continuation cache (caller holds its lock)."""
    return [
        {"key": str(key), "point": str(point), "live": sorted(live), "hits": cached.hits}
        for (key, point, live), cached in sorted(
            continuations.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))
        )
    ]


def osr_entry_candidates(
    base: Function, version: CompiledVersion
) -> Tuple[List[ProgramPoint], List[ProgramPoint]]:
    """Mapped, pause-capable OSR entry points of f_base (+ loop subset).

    Optimizing OSR is most valuable when a long-running loop is already
    in flight, so the loop subset is computed for the policy to prefer.
    Phi points are excluded: a block's leading phi run executes as one
    parallel step before ``break_at`` checks, so the interpreter can
    never pause there.
    """
    loops = find_loops(ControlFlowGraph(base))
    loop_blocks = {label for loop in loops for label in loop.body}
    candidates = [
        point
        for point in version.forward_mapping.domain()
        if isinstance(point, ProgramPoint)
        and not isinstance(base.instruction_at(point), Phi)
    ]
    loop_points = [point for point in candidates if point.block in loop_blocks]
    return candidates, loop_points


def speculation_holds(
    version: CompiledVersion, env: Dict[str, int], landing: ProgramPoint
) -> bool:
    """Check that the speculated facts hold for an in-flight state.

    The guards needing validation are exactly those that *dominate* the
    landing point: an OSR entry jumps over them, yet the code it lands
    in already relies on their speculated constants.  Their conditions
    are evaluated against the paused f_base environment — the
    speculative pass keeps register names aligned with f_base, and a
    dominating guard's condition registers were computed by the base
    run before the pause, with this iteration's values.

    A guard that does *not* dominate the landing point needs no check:
    it sits immediately after its speculated definition (or in place of
    its speculated branch), so any path from the landing point to a
    speculated use re-executes the definition and the guard first,
    which protects itself.  A dominating guard whose condition cannot
    be evaluated rejects the entry: correctness over speed.  Guards
    inside inlined code read renamed callee registers that no f_base
    state ever holds, so a dominating inlined guard always rejects the
    mid-flight entry — fresh calls still run the inlined version from
    its entry.
    """
    optimized = version.optimized
    domtree = DominatorTree(ControlFlowGraph(optimized))
    for point, inst in optimized.instructions():
        if not isinstance(inst, Guard):
            continue
        if point.block == landing.block:
            if point.index >= landing.index:
                continue
        elif not domtree.dominates(point.block, landing.block):
            continue
        if not free_vars(inst.cond) <= set(env):
            return False  # cannot validate the assumption: stay in f_base
        if evaluate(inst.cond, env) == 0:
            return False
    return True


def build_continuation(
    base: Function, point: ProgramPoint, plan: DeoptPlan, version: CompiledVersion
) -> ContinuationInfo:
    """Specialize an f_base continuation for one guard's deopt target."""
    frame = plan.frames[0]
    info = make_continuation(
        base,
        frame.target,
        frame.compensation,
        sorted(version.pair.opt_view.live_in(point)),
        name=f"{base.name}.deopt.{point.block}.{point.index}",
    )
    # The continuation is not SSA (compensation re-defines registers of
    # the code it jumps into), so only run transforms that are sound
    # without SSA: constant folding.
    ConstantPropagationPass().run(info.function)
    return info


class Transitions:
    """Executes OSR entries, guard-failure deopts and forced deopts.

    Shares the runtime's config, policy, bus, profile sink and backends;
    owns no state of its own (the continuation cache and the transition
    counters live on the ``TieredFunction``, under its lock).
    """

    def __init__(self, runtime: "AdaptiveRuntime") -> None:
        self.config = runtime.config
        self.policy = runtime.policy
        self.publish = runtime.bus.publish
        self.profile = runtime.profile
        self.opt_backend = runtime.opt_backend
        self.base_backend = runtime.base_backend
        #: Host dispatchers routing residual calls back through the runtime.
        self.natives = runtime._dispatchers
        #: ``(state, failure, entry, args, multiframe=...)`` — the
        #: coordinator's failure-policy bookkeeping.
        self.note_failure = runtime._note_failure

    # ------------------------------------------------------------------ #
    # Optimizing OSR: f_base → f_opt, mid-call.
    # ------------------------------------------------------------------ #
    def enter_mid_flight(
        self,
        state: "TieredFunction",
        entry: SpecializedVersion,
        args: Sequence[int],
        memory: Optional[Memory],
    ) -> Optional[ExecutionResult]:
        """Run this call in f_base up to an OSR point, then enter ``entry``.

        The policy picks the point; ``None`` from it (returned as
        ``None`` here) means "no mid-flight entry — run the optimized
        code from its start".
        """
        base = state.base
        version = entry.version
        candidates, loop_points = osr_entry_candidates(base, version)
        osr_point = self.policy.select_osr_point(
            state, candidates, loop_points, self.config
        )
        if osr_point is None:
            return None
        if osr_point not in candidates:
            raise ValueError(
                f"policy selected OSR point {osr_point}, which is "
                f"not a mapped pause-capable point of @{base.name}"
            )
        # Pausing at a point needs ``break_at``, which only the
        # interpreter supports; module callees still tier normally.  A
        # fresh instance per use: nothing is shared across threads.
        interpreter = Interpreter(
            step_limit=self.config.step_limit,
            natives=self.natives,
            profiler=self.profile,
        )
        paused = interpreter.run(base, args, memory=memory, break_at=osr_point)
        if paused.stopped_at is None:
            return paused  # the loop never ran; nothing to transfer
        landing = version.forward_mapping.lookup(osr_point)
        assert landing is not None

        def finish_in_base() -> ExecutionResult:
            """Reject the OSR entry: complete this call in f_base."""
            self.publish(OSREntryRejected(base.name, osr_point))
            return interpreter.resume(
                base,
                paused.stopped_at,
                paused.env,
                memory=paused.memory,
                previous_block=paused.previous_block,
            )

        # Entering speculative code mid-flight skips every guard that sits
        # before the landing point; their assumptions must be validated
        # against the in-flight state instead of silently trusted.
        if version.speculative and not speculation_holds(
            version, paused.env, landing.target
        ):
            return finish_in_base()

        landing_env = version.forward_mapping.transfer(osr_point, paused.env)

        # K_avail support: deopt compensations may read values that are
        # dead at the landing point of the *forward* transition; the
        # runtime keeps them alive by carrying them across.  If one is
        # not reconstructible from the paused base state, entering the
        # optimized code would make a later guard failure unrecoverable —
        # finish this call in f_base instead.
        for name in sorted(version.keep_alive):
            if name in landing_env:
                continue
            if name not in paused.env:
                return finish_in_base()
            landing_env[name] = paused.env[name]

        with state.lock:
            state.osr_entries += 1
        self.publish(OptimizingOSR(base.name, osr_point))
        try:
            # The backend's OSR entry stub maps the landing ProgramPoint
            # into its own dispatch (a resume for the interpreter, a
            # compiled stub entering mid-loop for the closure backend).
            return self.opt_backend.run_from(
                version.optimized,
                landing.target,
                landing_env,
                memory=paused.memory,
                previous_block=paused.previous_block,
            )
        except GuardFailure as failure:
            return self.guard_failed(state, failure, entry, args)

    # ------------------------------------------------------------------ #
    # Guard failure: f_opt → f_base through the failing guard's plan.
    # ------------------------------------------------------------------ #
    def guard_failed(
        self,
        state: "TieredFunction",
        failure: GuardFailure,
        entry: SpecializedVersion,
        args: Sequence[int],
    ) -> ExecutionResult:
        version = entry.version
        base = state.base
        with state.lock:
            state.guard_failures += 1
        plan = version.plans.get(failure.point)
        if plan is None:  # pragma: no cover - publication guarantees coverage
            raise RuntimeError(
                f"guard at {failure.point} fired with no deoptimization plan"
            )
        self.publish(
            GuardFailed(
                base.name,
                failure.point,
                reason=failure.reason,
                multiframe=plan.is_multiframe,
            )
        )
        if plan.is_multiframe:
            return self._unwind_multiframe(state, failure, plan, entry, args)
        self.note_failure(state, failure, entry, args, multiframe=False)

        frame = plan.frames[0]
        landing_env = frame.transfer(failure.env)
        key: ContinuationKey = (entry.key, failure.point, frozenset(landing_env))
        previous_block = (
            failure.previous_block if failure.previous_block in base.blocks else None
        )

        with state.lock:
            cached = state.continuations.get(key)
            if cached is not None:
                # Dispatched OSR: jump straight into the specialized
                # continuation instead of re-deoptimizing through f_base.
                cached.hits += 1
                hits = cached.hits
                state.dispatch_hits += 1
            else:
                state.dispatch_misses += 1
                state.osr_exits += 1
        if cached is not None:
            self.publish(DispatchedOSR(base.name, failure.point, hits=hits))
            # Strict lookup: a parameter missing from both environments
            # is a state-transfer bug that must fail loudly, not run the
            # continuation on a fabricated value.
            call_args = [
                failure.env[param] if param in failure.env else landing_env[param]
                for param in cached.info.entry_params
            ]
            return self.opt_backend.run(
                cached.info.function, call_args, memory=failure.memory
            )

        # Slow path: classic deoptimizing OSR back into f_base.
        self.publish(DeoptimizingOSR(base.name, failure.point, from_guard=True))
        result = self.base_backend.run_from(
            base,
            frame.target,
            landing_env,
            memory=failure.memory,
            previous_block=previous_block,
            profiler=self.profile,
        )
        # Pay the continuation build off the critical path of *this*
        # failure; the next failure with the same shape dispatches.  Skip
        # the cache when the installed version is no longer the one that
        # failed (another activation invalidated it): a continuation
        # specialized against a stale version must not serve a new one.
        # Plans with value seeds are also excluded: a seeded variable is
        # rebuilt only by the plan's transfer, which the baked-in
        # continuation entry cannot reproduce — those guards always take
        # the slow path.  The policy gets the final (non-correctness)
        # veto, and the cache is bounded: oldest entry out first.  The
        # insert re-checks version identity and key absence under the
        # lock, so concurrent failures of the same shape cache (and
        # publish) exactly once.
        if (
            any(live is entry for live in state.versions)
            and not frame.param_seeds
            and self.policy.should_cache_continuation(
                state, failure.point, plan, self.config
            )
        ):
            continuation = build_continuation(base, failure.point, plan, version)
            evicted: List[Tuple[ProgramPoint, CachedContinuation]] = []
            with state.lock:
                stored = (
                    any(live is entry for live in state.versions)
                    and key not in state.continuations
                )
                if stored:
                    state.continuations[key] = CachedContinuation(continuation)
                    while (
                        len(state.continuations)
                        > self.config.continuation_cache_size
                    ):
                        evicted_key = next(iter(state.continuations))
                        evicted.append(
                            (evicted_key[1], state.continuations.pop(evicted_key))
                        )
            if stored:
                self.publish(ContinuationCached(base.name, failure.point))
                for point, victim in evicted:
                    self.opt_backend.discard(victim.info.function)
                    self.publish(ContinuationEvicted(base.name, point))
        return result

    def _unwind_multiframe(
        self,
        state: "TieredFunction",
        failure: GuardFailure,
        plan: DeoptPlan,
        entry: SpecializedVersion,
        args: Sequence[int],
    ) -> ExecutionResult:
        """Materialize and resume the reconstructed virtual call stack.

        Every frame's environment is rebuilt from the *same* failure
        snapshot first (outer frames must not observe state mutated by
        resuming inner ones), then the stack unwinds innermost-to-
        outermost in the base tier: each frame runs to completion and its
        return value is bound into the enclosing frame's call
        destination before that frame resumes past its call site.
        """
        with state.lock:
            state.osr_exits += 1
            state.multiframe_deopts += 1
        self.publish(
            MultiFrameDeopt(state.base.name, failure.point, frames=len(plan.frames))
        )
        self.note_failure(state, failure, entry, args, multiframe=True)
        environments = [frame.transfer(failure.env) for frame in plan.frames]
        failure.frames = [
            FrameState(
                function=frame.function.name,
                point=frame.target,
                env=dict(env),
                dest=frame.dest,
            )
            for frame, env in zip(plan.frames, environments)
        ]
        inner = plan.frames[0]
        result = self.base_backend.run_from(
            inner.function,
            inner.target,
            environments[0],
            memory=failure.memory,
            previous_block=inner.translate_block(failure.previous_block),
            profiler=self.profile,
        )
        value = result.value
        for frame, env in zip(plan.frames[1:], environments[1:]):
            if frame.dest is not None:
                env[frame.dest] = value if value is not None else 0
            result = self.base_backend.run_from(
                frame.function,
                frame.target,
                env,
                memory=failure.memory,
                previous_block=None,
                profiler=self.profile,
            )
            value = result.value
        return result

    # ------------------------------------------------------------------ #
    # Forced deoptimization (external invalidation).
    # ------------------------------------------------------------------ #
    def deoptimize_at(
        self,
        state: "TieredFunction",
        entry: SpecializedVersion,
        point: ProgramPoint,
        args: Sequence[int],
        memory: Optional[Memory],
    ) -> ExecutionResult:
        """Run ``entry``'s optimized code until ``point``, then OSR to f_base.

        ``state`` and ``entry`` arrive as one matched set, and the
        mapping is the entry's own: resolving it through a second
        by-name lookup could pair this version's paused environment with
        a concurrently rebuilt version's register mapping.
        """
        version = entry.version
        mapping = entry.backward_mapping(self.config.mode)
        landing = mapping.lookup(point)
        if landing is None:
            raise KeyError(f"deoptimization not supported at {point}")
        try:
            # Pausing at an arbitrary point needs ``break_at``, which only
            # the interpreter provides: a forced external invalidation is
            # an observation-heavy path, so it runs observably regardless
            # of the optimized tier's backend.
            paused = Interpreter(
                step_limit=self.config.step_limit, natives=self.natives
            ).run(version.optimized, args, memory=memory, break_at=point)
        except GuardFailure as failure:
            # A speculation failed before reaching the requested point;
            # the guard's own deoptimization wins.
            return self.guard_failed(state, failure, entry, list(args))
        if paused.stopped_at is None:
            return paused
        landing_env = mapping.transfer(point, paused.env)
        with state.lock:
            state.osr_exits += 1
        self.publish(DeoptimizingOSR(state.base.name, point, from_guard=False))
        return self.base_backend.run_from(
            state.base,
            landing.target,
            landing_env,
            memory=paused.memory,
            previous_block=paused.previous_block,
        )
