"""The adaptive runtime's coordinator: one version lifecycle, end to end.

Every function of a module is tiered independently: each ``call @f(...)``
executed by *any* engine dispatches back through
:meth:`AdaptiveRuntime.call`, so callees are counted, profiled and
compiled on their own and a guard failure inside a callee's optimized
code is handled entirely within that callee's activation.

A version's life is **build → verify → admit → select → fail → retire**,
each step existing once: :func:`repro.vm.version.build_version` and
``verify_gate`` (pure; all a compile worker runs),
:meth:`AdaptiveRuntime._publish_version` (the only path into
``TieredFunction.versions``), :meth:`AdaptiveRuntime._call_tiered`
(select), :mod:`repro.vm.transitions` (OSR entries and deopts) and
:meth:`AdaptiveRuntime._note_failure` (what a failure means for the
table).  Around them this module keeps registration, the compile
claim / submit / sticky-error pipeline and :meth:`introspect`.

Locks: ``TieredFunction.lock`` guards that function's counters, table
swaps, continuation cache, failure bookkeeping and compile-claim flags;
it is never held across execution, compilation or event delivery, and
``versions`` (always a complete immutable tuple) may be read without it.
``TieredFunction.announce`` orders table changes with their events.
Recursion fuel is per thread (:class:`ExecutionContext`), as are the
profile shards.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.mapping import OSRMapping
from ..engine.config import EngineConfig, verify_deopt_from_env
from ..engine.events import (
    REREGISTERED,
    EntryDispatched,
    EventBus,
    Invalidated,
    RingBufferRecorder,
    RuntimeEvent,
    SoundnessViolation,
    SpeculationRejected,
    Tier,
    TierUp,
    VersionAdded,
    VersionRestored,
    VersionRetired,
)
from ..engine.policy import HotnessPolicy, TieringPolicy
from ..ir.function import Function, Module, ProgramPoint
from ..ir.interp import (
    ExecutionResult,
    GuardFailure,
    Memory,
    NativeFunction,
    StepLimitExceeded,
)
from .backend import ExecutionBackend, resolve_backend
from .profile import GENERIC_KEY, EntryClusterer, ShardedValueProfile, VersionKey
from .transitions import (
    CachedContinuation,
    ContinuationKey,
    Transitions,
    describe_continuations,
)
from .version import (
    NO_GAUGES,
    CompiledVersion,
    SpecializedVersion,
    admit,
    build_version,
    drop_continuations,
    excluded_reasons,
    select,
    verify_gate,
    without,
)

#: ``TieredFunction`` fields that are plain transition counters.
COUNTERS = (
    "osr_entries", "osr_exits", "guard_failures", "multiframe_deopts",
    "invalidations", "dispatch_hits", "dispatch_misses", "versions_added",
    "versions_retired", "entry_dispatches", "soundness_violations",
)

__all__ = [
    "ContinuationKey",
    "CachedContinuation",
    "CompiledVersion",
    "SpecializedVersion",
    "ExecutionContext",
    "TieredFunction",
    "AdaptiveRuntime",
]


class ExecutionContext:
    """Per-thread mutable call state (today: the recursion fuel).

    One per thread, created on its first :meth:`AdaptiveRuntime.call`;
    nested calls share it and every call restores the depth it found,
    so the depth budget measures one logical call stack, interleaved
    callers never charge each other's fuel, and no unwind path leaks
    depth into a later call.
    """

    __slots__ = ("depth",)

    def __init__(self) -> None:
        self.depth = 0


@dataclass
class TieredFunction:
    """Per-function state kept by the runtime.

    Mutable fields are protected by :attr:`lock`; :attr:`versions` is
    additionally safe to *read* without it (see the module docstring).
    """

    base: Function
    #: Every live optimized version, oldest first; at most one per
    #: entry-profile key, bounded by ``EngineConfig.max_versions``.
    versions: Tuple[SpecializedVersion, ...] = ()
    #: The table's only entry when that entry is generic, else ``None``.
    #: Every call then selects it and none of them is a version switch;
    #: resolved by the table's writers so the call path need not
    #: re-derive it (``None`` merely sends a call through ``select``).
    sole: Optional[SpecializedVersion] = None
    #: Entry-profile clusterer feeding the specialization keys.
    clusterer: EntryClusterer = field(default_factory=EntryClusterer)
    call_count: int = 0
    osr_entries: int = 0
    osr_exits: int = 0
    guard_failures: int = 0
    multiframe_deopts: int = 0
    invalidations: int = 0
    dispatch_hits: int = 0
    dispatch_misses: int = 0
    #: Monotonic entry-dispatch clock (drives per-version LRU stamps).
    dispatch_seq: int = 0
    #: Entry dispatches that *switched* versions (phase transitions).
    entry_dispatches: int = 0
    versions_added: int = 0
    versions_retired: int = 0
    #: Obligations the soundness verifier failed in warn mode.
    soundness_violations: int = 0
    #: Key the most recent call dispatched to (marked by introspection).
    last_dispatched_key: Optional[VersionKey] = None
    #: Cluster a failing version's guards nominated for the next build.
    pending_key: Optional[VersionKey] = None
    #: Key the in-flight compile claim is building (informational).
    compile_key: Optional[VersionKey] = None
    #: Guard reasons refuted by repeated failures, per version key
    #: (see :func:`repro.vm.version.excluded_reasons`).
    refuted_reasons: Dict[VersionKey, set] = field(default_factory=dict)
    continuations: Dict[ContinuationKey, CachedContinuation] = field(default_factory=dict)
    #: True while a compile job (sync or background) is claimed.
    compile_inflight: bool = False
    #: Set when the in-flight compile finishes (success or failure).
    compile_done: Optional[threading.Event] = None
    #: A background compile failure, re-raised on the next call.
    compile_error: Optional[BaseException] = None
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)
    #: Orders table changes *with* their announcements: held from before
    #: a version is admitted or invalidated until its events are
    #: delivered, so the stats fold sees gauges in table order.  Reentrant
    #: (a subscriber may call back in); never taken on the call path.
    announce: threading.RLock = field(default_factory=threading.RLock, repr=False, compare=False)

    @property
    def version(self) -> Optional[CompiledVersion]:
        """The *newest* live version, or ``None`` in the base tier."""
        versions = self.versions
        return versions[-1].version if versions else None

    @property
    def is_compiled(self) -> bool:
        return bool(self.versions)


class AdaptiveRuntime:
    """The tiering *mechanism*: an N-tier, module-level runtime.

    Every *decision* (when to compile, where to enter, whether to cache
    or invalidate) is delegated to a
    :class:`~repro.engine.policy.TieringPolicy`, every knob comes from a
    frozen :class:`~repro.engine.config.EngineConfig`, and every
    transition is published as a typed
    :class:`~repro.engine.events.RuntimeEvent`.  Prefer embedding
    through :class:`repro.engine.Engine`, which wires those together.
    One runtime may be shared by any number of threads.
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        *,
        policy: Optional[TieringPolicy] = None,
        bus: Optional[EventBus] = None,
    ) -> None:
        self.config = config if config is not None else EngineConfig()
        self.policy: TieringPolicy = policy if policy is not None else HotnessPolicy()
        self.bus = (
            bus
            if bus is not None
            else EventBus(RingBufferRecorder(self.config.event_buffer_size))
        )
        self.profile = ShardedValueProfile()
        #: Resolved soundness-verifier mode: ``config.verify_deopt`` when
        #: set, otherwise ``REPRO_VERIFY_DEOPT`` (validated eagerly).
        self.verify_deopt: str = self.config.verify_deopt or verify_deopt_from_env()
        self.opt_backend: ExecutionBackend = resolve_backend(
            self.config.opt_backend, step_limit=self.config.step_limit
        )
        #: The profiled base tier always interprets: only the
        #: interpreter feeds a profiler and pauses at a ``break_at`` point.
        self.base_backend: ExecutionBackend = resolve_backend(
            "interp", step_limit=self.config.step_limit
        )
        # A module-bearing backend resolves callees internally,
        # bypassing the dispatchers this runtime relies on for
        # independent tiering and the call-depth fuel.
        if getattr(self.opt_backend, "module", None) is not None:
            raise ValueError(
                "runtime backends must not carry a module; register "
                "functions with register_module() so calls dispatch "
                "through the runtime"
            )
        self.functions: Dict[str, TieredFunction] = {}
        #: Host dispatchers routing residual ``call`` instructions (in
        #: any tier, on any engine) back through :meth:`call`.
        self._dispatchers: Dict[str, NativeFunction] = {}
        self.transitions = Transitions(self)
        #: Whether compilation runs on the worker pool (off the call path).
        self.background_compile = self.config.compile_workers >= 1
        self._tls = threading.local()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._executor_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------ #
    # Worker-pool lifecycle.
    # ------------------------------------------------------------------ #
    def _ensure_executor(self) -> Optional[ThreadPoolExecutor]:
        with self._executor_lock:
            if self._closed:
                return None
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.config.compile_workers,
                    thread_name_prefix="repro-compile",
                )
            return self._executor

    def shutdown(self, *, wait: bool = True) -> None:
        """Stop the compile worker pool (idempotent).

        With ``wait=True`` in-flight compiles finish (and publish) first;
        compile claims after shutdown fall back to the base tier.
        """
        with self._executor_lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait)

    def __enter__(self) -> "AdaptiveRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def wait_for_compilation(
        self, name: Optional[str] = None, *, timeout: Optional[float] = None
    ) -> bool:
        """Block until in-flight compiles (of ``name``, or all) finish.

        ``timeout`` is one budget for the whole wait (``False`` when it
        runs out).  A compile failure surfaces on the next :meth:`call`.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        names = [name] if name is not None else list(self.functions)
        for state in [self.functions[each] for each in names]:
            with state.lock:
                done = state.compile_done if state.compile_inflight else None
            if done is None:
                continue
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                return False
            if not done.wait(remaining):
                return False
        return True

    # ------------------------------------------------------------------ #
    # Registration.
    # ------------------------------------------------------------------ #
    def register(
        self, function: Function, *, replace: bool = False
    ) -> TieredFunction:
        """Register a function for tiering.

        A name that already exists is a loud error unless
        ``replace=True``: the runtime then swaps in a fresh state,
        discards the old profile (its program points need not line up
        with the new body's) and publishes ``Invalidated`` with
        ``reason=REREGISTERED`` so observers (including the stats fold)
        drop everything derived from the old version.  Calls already
        executing the old version finish on it; events they publish land
        *after* the stats reset, so mechanism-vs-fold agreement is only
        guaranteed again once they have drained.
        """
        existing = self.functions.get(function.name)
        if existing is not None and not replace:
            raise ValueError(
                f"a function named @{function.name} is already registered; "
                f"pass replace=True to supersede it (the old version, its "
                f"cached continuations and its statistics are discarded)"
            )
        state = TieredFunction(
            base=function,
            clusterer=EntryClusterer(max_clusters=self.config.max_versions),
        )
        self.functions[function.name] = state
        if existing is not None:
            # The superseded state keeps its table for the activations
            # still on it (they hold what they run); only the backend's
            # cached artifacts go.
            with existing.lock:
                dead = [entry.version.optimized for entry in existing.versions]
                dead += [c.info.function for c in existing.continuations.values()]
            self._discard_artifacts(dead)
            self.profile.discard(function.name)
            self.bus.publish(Invalidated(function.name, None, reason=REREGISTERED))
        if function.name not in self._dispatchers:
            dispatcher = self._make_dispatcher(function.name)
            self._dispatchers[function.name] = dispatcher
            self.opt_backend.register_native(function.name, dispatcher)
            if self.base_backend is not self.opt_backend:
                self.base_backend.register_native(function.name, dispatcher)
        return state

    def register_module(
        self, module: Module, *, replace: bool = False
    ) -> List[TieredFunction]:
        """Register every function of a module for independent tiering."""
        return [self.register(function, replace=replace) for function in module]

    def _make_dispatcher(self, name: str) -> NativeFunction:
        def dispatch(args: List[int], memory: Memory) -> int:
            result = self.call(name, args, memory=memory)
            return result.value if result.value is not None else 0

        return dispatch

    def _resolve_base(self, name: str) -> Optional[Function]:
        state = self.functions.get(name)
        return state.base if state is not None else None

    # ------------------------------------------------------------------ #
    # The compile pipeline: claim → build → publish (→ sticky error).
    # ------------------------------------------------------------------ #
    @staticmethod
    def _claim_locked(state: TieredFunction, key: VersionKey) -> None:
        state.compile_inflight = True
        state.compile_key = key
        state.compile_done = threading.Event()

    def _release_compile_claim(self, state: TieredFunction) -> None:
        with state.lock:
            state.compile_inflight = False
            state.compile_key = None
            done, state.compile_done = state.compile_done, None
        if done is not None:
            done.set()

    def _compile_now(
        self, state: TieredFunction, key: VersionKey, *, sticky_errors: bool
    ) -> None:
        """Run the compile job claimed for ``key`` (build + publish).

        With ``sticky_errors`` a failure is stored on the state and
        re-raised on the function's next call — the background pipeline
        must never swallow a compiler bug silently.
        """
        try:
            start = time.perf_counter()
            snapshot = self.profile.merged()
            with state.lock:
                excluded = excluded_reasons(
                    state.refuted_reasons, key, state.base.params
                )
            version, rejected = build_version(
                state.base, key, snapshot, excluded, self.config, self._resolve_base
            )
            if rejected is not None:
                self.bus.publish(SpeculationRejected(state.base.name, rejected))
            self._publish_version(
                state, version, key, compile_seconds=time.perf_counter() - start
            )
        except BaseException as exc:
            if sticky_errors:
                with state.lock:
                    state.compile_error = exc
            raise
        finally:
            self._release_compile_claim(state)

    def _submit_compile(self, state: TieredFunction, key: VersionKey) -> None:
        """Hand a claimed compile job to the worker pool."""
        executor = self._ensure_executor()
        if executor is None:
            self._release_compile_claim(state)
            return

        def job() -> None:
            try:
                self._compile_now(state, key, sticky_errors=True)
            except BaseException:
                pass  # stored as compile_error; re-raised on the next call

        try:
            executor.submit(job)
        except RuntimeError:  # pool shut down between claim and submit
            self._release_compile_claim(state)

    def _publish_version(
        self,
        state: TieredFunction,
        version: CompiledVersion,
        key: VersionKey,
        *,
        restored: bool = False,
        origin: Optional[object] = None,
        compile_seconds: float = 0.0,
    ) -> bool:
        """Publish a finished version: the only path into the version table.

        Verify gate → backend artifact → admission under the lock →
        events outside it.  ``restored`` marks a version hydrated from a
        persisted artifact (``origin`` says from where): nothing was
        compiled here, so it announces ``VersionRestored`` rather than
        ``TierUp`` and never counts as *added*.  The gate covers
        hydrated artifacts identically (they are trusted *less*).

        Returns whether the version went live: not when a
        re-registration superseded the state meanwhile, and not when the
        table has one slot and ``key`` is specialized — one slot must
        serve every caller, so only the generic version may hold it.
        """
        if self.config.max_versions <= 1 and not key.generic:
            return False
        name = state.base.name
        # Gate first: a strict rejection must come before the backend
        # spends work on an artifact that will never be published.
        report = verify_gate(version, key, name, self.verify_deopt, origin)
        if report is not None and not report.ok:  # warn mode let it through
            with state.lock:
                state.soundness_violations += len(report.violations)
            for violation in report.violations:
                point = violation.point
                self.bus.publish(
                    SoundnessViolation(
                        name,
                        ProgramPoint.parse(point) if point is not None else None,
                        obligation=violation.name,
                        detail=violation.detail,
                        key=str(key),
                    )
                )
        # Build the backend artifact and bind its entry here, so no call
        # pays the closure lowering or an artifact lookup.
        run = self.opt_backend.prepare(version.optimized)
        gauges = version.gauges()
        with state.announce:
            with state.lock:
                if self.functions.get(name) is not state:
                    self.opt_backend.discard(version.optimized)
                    return False  # superseded by a re-registration meanwhile
                state.dispatch_seq += 1
                entry = SpecializedVersion(
                    key=key,
                    version=version,
                    last_used=state.dispatch_seq,
                    verify_report=report,
                    run=run,
                )
                table, retired = admit(
                    state.versions, entry, self.config.max_versions
                )
                dead = self._install_locked(state, table)
                live = len(table)
                continuations = len(state.continuations)
                added = not restored and (
                    key.specificity > 0 or live > 1 or bool(retired)
                )
                state.versions_added += added
                state.versions_retired += len(retired)
            tag = {"key": str(key), "versions": live}
            events: List[RuntimeEvent] = [
                VersionRestored(name, **tag, **gauges)
                if restored
                else TierUp(
                    name, compile_seconds=round(compile_seconds, 6), **tag, **gauges
                )
            ]
            if added:
                events.append(VersionAdded(name, **tag))
            # Gauges on a retirement describe the newest survivor — the
            # version just published.
            events += [
                VersionRetired(
                    name,
                    key=str(victim.key),
                    versions=live,
                    continuations=continuations,
                    **gauges,
                )
                for victim in retired
            ]
            self._discard_artifacts(dead)
            for event in events:
                self.bus.publish(event)
        return True

    @staticmethod
    def _install_locked(
        state: TieredFunction, table: Tuple[SpecializedVersion, ...]
    ) -> List[Function]:
        """Swap ``table`` in with everything derived from it (lock held).

        The one place ``TieredFunction.versions`` is assigned.  Whatever
        is a function of the table alone is settled here, not per call:
        :attr:`TieredFunction.sole`, and the cached continuations of the
        entries that left (retired, invalidated or replaced under the
        same key).  Returns the code nothing will dispatch to again —
        those entries' optimized functions and continuations — for
        :meth:`_discard_artifacts` once the lock is released.
        """
        gone = [
            old for old in state.versions if all(old is not live for live in table)
        ]
        state.versions = table
        state.sole = table[0] if len(table) == 1 and table[0].key.generic else None
        dropped = drop_continuations(state.continuations, [old.key for old in gone])
        return [old.version.optimized for old in gone] + [
            cached.info.function for cached in dropped
        ]

    def _discard_artifacts(self, dead: Sequence[Function]) -> None:
        """Let the optimized tier's backend forget code that left a table.

        Without this a caching backend pins every version ever built;
        an activation still running one holds its own reference.
        """
        for function in dead:
            self.opt_backend.discard(function)

    def ensure_compiled(self, name: str) -> CompiledVersion:
        """The installed version of ``name``, compiling (and waiting) if needed."""
        return self._ensure_compiled_state(name)[1].version

    def _ensure_compiled_state(
        self, name: str
    ) -> Tuple[TieredFunction, SpecializedVersion]:
        """The current state *and* its newest table entry, as a matched pair.

        The state is re-fetched by name on every turn: a
        ``register(replace=True)`` can supersede it mid-wait, and
        publishing against the stale object would be refused forever.
        """
        while True:
            state = self.functions[name]
            with state.lock:
                if state.versions:
                    return state, state.versions[-1]
                if state.compile_error is not None:
                    raise state.compile_error
                done = state.compile_done if state.compile_inflight else None
                if done is None:
                    self._claim_locked(state, GENERIC_KEY)
            if done is None:
                self._compile_now(
                    state, GENERIC_KEY, sticky_errors=self.background_compile
                )
            else:
                done.wait()

    # ------------------------------------------------------------------ #
    # Execution: count → (claim) → select → run.
    # ------------------------------------------------------------------ #
    def call(
        self,
        name: str,
        args: Sequence[int],
        *,
        memory: Optional[Memory] = None,
    ) -> ExecutionResult:
        """Call a registered function, applying the tiering policy.

        Nested calls (from either engine) re-enter here and share the
        thread's :class:`ExecutionContext`: the depth accounting is
        *backend-independent* recursion fuel, exhausted at the same
        depth on both engines instead of overflowing the Python stack.
        """
        try:
            context = self._tls.context
        except AttributeError:
            context = self._tls.context = ExecutionContext()
        context.depth = depth = context.depth + 1
        try:
            if depth > self.config.max_call_depth:
                raise StepLimitExceeded(
                    f"call depth exceeded the budget of "
                    f"{self.config.max_call_depth} activations (at @{name})"
                )
            return self._call_tiered(name, args, memory)
        finally:
            context.depth = depth - 1

    @staticmethod
    def _note_dispatch_locked(
        state: TieredFunction, entry: SpecializedVersion
    ) -> Optional[EntryDispatched]:
        """Record an entry dispatch to ``entry`` (lock held).

        Returns the ``EntryDispatched`` to publish once the lock is
        released, if any: it announces *version switches* (the selected
        key differs from the previous call's), so steady-state traffic
        inside one phase stays event-free.
        """
        state.dispatch_seq = entry.last_used = state.dispatch_seq + 1
        entry.hits += 1
        previous, state.last_dispatched_key = state.last_dispatched_key, entry.key
        if entry is state.sole or previous is entry.key or previous == entry.key:
            return None
        if len(state.versions) > 1 or not entry.key.generic:
            state.entry_dispatches += 1
            return EntryDispatched(
                state.base.name, key=str(entry.key), versions=len(state.versions)
            )
        return None

    def _propose_key_locked(
        self,
        state: TieredFunction,
        args: Sequence[int],
        matched: Optional[SpecializedVersion],
    ) -> Optional[VersionKey]:
        """The key to claim a compile for, or ``None`` (lock held).

        * **Empty table** — ``policy.should_compile`` decides.  The
          first build is generic; after an invalidation emptied the
          table, the triggering call's own cluster is specialized
          instead when it is hot and stable.
        * **No matching version** — every live version is specialized
          away from ``args``: grow the multiverse with this call's
          cluster (generic when clustering is unstable).  With a single
          slot only the generic version can serve every caller.
        * **Nominated cluster** — a live version's guards keep failing
          for a cluster (``pending_key``): the first call *from that
          cluster* claims the build that pins the refuting profile.

        Growth (the latter two) also needs the cluster hot and the
        policy's :meth:`should_add_version` consent.
        """
        config = self.config
        if not state.versions:
            if not self.policy.should_compile(state, config):
                return None
            if config.max_versions <= 1 or state.invalidations == 0:
                return GENERIC_KEY
            key = state.clusterer.key_for(args)
            if (
                key.generic
                or state.clusterer.cluster_samples(key) < config.hotness_threshold
            ):
                return GENERIC_KEY
            return key
        if config.max_versions <= 1:
            if matched is None and self.policy.should_compile(state, config):
                return GENERIC_KEY
            return None
        if matched is None:
            key = state.clusterer.key_for(args)
        else:
            key = state.pending_key
            if key is None or not key.matches(args):
                return None
        if any(entry.key == key for entry in state.versions):
            if state.pending_key == key:
                state.pending_key = None
            return None
        if not key.generic and (
            state.clusterer.cluster_samples(key) < config.hotness_threshold
        ):
            return None
        if not self.policy.should_add_version(state, key, config):
            return None
        if state.pending_key == key:
            state.pending_key = None
        return key

    def _call_tiered(
        self,
        name: str,
        args: Sequence[int],
        memory: Optional[Memory],
    ) -> ExecutionResult:
        state = self.functions[name]
        claim_key: Optional[VersionKey] = None
        switch: Optional[EntryDispatched] = None
        with state.lock:
            state.call_count += 1
            state.clusterer.observe(args)
            error = state.compile_error
            entry = None
            if error is None:
                entry = state.sole
                if entry is None:
                    entry = select(state.versions, args)
                # Only an unmatched call or a nominated cluster can
                # propose a build: with a match and no nomination
                # ``_propose_key_locked`` answers ``None`` untouched.
                if (
                    entry is None or state.pending_key is not None
                ) and not state.compile_inflight:
                    claim_key = self._propose_key_locked(state, args, entry)
                    if claim_key is not None:
                        self._claim_locked(state, claim_key)
                # A synchronous claim re-selects after its build below.
                if entry is not None and (
                    claim_key is None or self.background_compile
                ):
                    switch = self._note_dispatch_locked(state, entry)
        if error is not None:
            raise error

        # Synchronous mode compiles now and OSR-enters the optimized
        # code mid-call; background mode submits the job and keeps this
        # call in its current tier until the version is published.
        if claim_key is not None:
            if self.background_compile:
                self._submit_compile(state, claim_key)
            else:
                self._compile_now(state, claim_key, sticky_errors=False)
                with state.lock:
                    entry = select(state.versions, args)
                    if entry is not None:
                        switch = self._note_dispatch_locked(state, entry)
                if switch is not None:
                    self.bus.publish(switch)
                    switch = None
                if entry is not None:
                    result = self.transitions.enter_mid_flight(
                        state, entry, args, memory
                    )
                    if result is not None:
                        return result
        if switch is not None:
            self.bus.publish(switch)
        if entry is not None:
            # ``entry`` was selected once: other activations may replace
            # table entries while this one runs, and its failure must
            # resolve against the version that actually raised it.
            try:
                return entry.run(args, memory)
            except GuardFailure as failure:
                return self.transitions.guard_failed(state, failure, entry, args)
        return self.base_backend.run(
            state.base, args, memory=memory, profiler=self.profile
        )

    # ------------------------------------------------------------------ #
    # Failure policy: what a guard failure means for the version table.
    # ------------------------------------------------------------------ #
    def _note_failure(
        self,
        state: TieredFunction,
        failure: GuardFailure,
        entry: SpecializedVersion,
        args: Sequence[int],
        *,
        multiframe: bool,
    ) -> None:
        """Count a guard failure; past the policy's threshold, act on it.

        Once ``should_invalidate`` says the guard failed often enough,
        the failing call's entry cluster is nominated
        (:attr:`TieredFunction.pending_key`): the next call *from that
        cluster* claims a build pinning exactly the values that kept
        refuting ``entry`` — the multiverse answer to a phase change.

        A **single-frame** guard stops there: cached continuations make
        its repeat failures cheap, and the specialized newcomer will
        out-match the failing version for the refuting cluster.  A
        **multi-frame** guard pays a full stack reconstruction per
        failure, so its reason is also blacklisted *for this version's
        key* and the version discarded (if it is still the live one);
        siblings, whose entry profiles may make the same speculation
        sound, stay live.

        Known limitation: reasons embed the inliner's frame tags, which
        a recompile over a grown set of hot sites can renumber; a
        refuted reason may then fail to match once and cost one extra
        refute/recompile round — never unsoundness.
        """
        with state.lock:
            count = entry.failures_at.get(failure.point, 0) + 1
            entry.failures_at[failure.point] = count
        if failure.reason is None or not self.policy.should_invalidate(
            state, failure.point, count, self.config
        ):
            return
        with state.announce:
            with state.lock:
                if multiframe:
                    state.refuted_reasons.setdefault(entry.key, set()).add(
                        failure.reason
                    )
                if self.config.max_versions > 1:
                    seed = state.clusterer.key_for(args)
                    if (
                        not seed.generic
                        and seed != entry.key
                        and all(live.key != seed for live in state.versions)
                    ):
                        state.pending_key = seed
                if not multiframe or all(
                    live is not entry for live in state.versions
                ):
                    return
                survivors = without(state.versions, entry)
                dead = self._install_locked(state, survivors)
                state.invalidations += 1
                continuations = len(state.continuations)
            self._discard_artifacts(dead)
            gauges = survivors[-1].version.gauges() if survivors else NO_GAUGES
            self.bus.publish(
                Invalidated(
                    state.base.name,
                    failure.point,
                    reason=failure.reason,
                    tier=Tier.OPTIMIZED if survivors else Tier.BASE,
                    key=str(entry.key),
                    versions=len(survivors),
                    continuations=continuations,
                    **gauges,
                )
            )

    # ------------------------------------------------------------------ #
    # Forced deoptimization (external invalidation).
    # ------------------------------------------------------------------ #
    def deopt_mapping(self, name: str) -> OSRMapping:
        """The full point-by-point deoptimization mapping of a function
        (compiled first if necessary; built lazily by the entry)."""
        _, entry = self._ensure_compiled_state(name)
        return entry.backward_mapping(self.config.mode)

    def deoptimize_at(
        self,
        name: str,
        point: ProgramPoint,
        args: Sequence[int],
        *,
        memory: Optional[Memory] = None,
    ) -> ExecutionResult:
        """Run the optimized code until ``point``, then OSR back to f_base.

        Models invalidation of a speculative assumption by an external
        event.  Raises :class:`KeyError` when ``point`` has no backward
        mapping entry — deoptimization is not supported there.
        """
        state, entry = self._ensure_compiled_state(name)
        return self.transitions.deoptimize_at(state, entry, point, args, memory)

    # ------------------------------------------------------------------ #
    # Introspection: one snapshot, everything else a projection.
    # ------------------------------------------------------------------ #
    def introspect(self, name: str) -> Dict[str, object]:
        """A read-only, JSON-safe snapshot of one function's tier state.

        The single place the state lock is taken to *describe* a
        function: its counters, the live version table, the continuation
        cache, the refuted reasons per version key and the compile
        claim.  :meth:`stats`, ``FunctionHandle.versions`` and the
        ``repro inspect`` tables are projections of it.
        """
        state = self.functions[name]
        with state.lock:
            return {
                "function": name,
                "tier": "optimized" if state.versions else "base",
                "calls": state.call_count,
                "params": list(state.base.params),
                "verify_deopt": self.verify_deopt,
                "counters": {name: getattr(state, name) for name in COUNTERS},
                "versions": [
                    entry.describe(dispatched=entry.key == state.last_dispatched_key)
                    for entry in state.versions
                ],
                "continuations": describe_continuations(state.continuations),
                "continuation_capacity": self.config.continuation_cache_size,
                "refuted_reasons": {
                    str(key): sorted(str(reason) for reason in reasons)
                    for key, reasons in sorted(
                        state.refuted_reasons.items(), key=lambda kv: str(kv[0])
                    )
                    if reasons
                },
                "compile_inflight": state.compile_inflight,
                "compile_key": None if state.compile_key is None else str(state.compile_key),
                "compile_error": None if state.compile_error is None else repr(state.compile_error),
            }

    def stats(self, name: str) -> Dict[str, int]:
        """Per-function statistics from the mechanism's own counters.

        Deliberately independent of the event-derived
        :class:`~repro.engine.stats.EngineStats`: the test suite asserts
        the two agree, so a forgotten or double-fired event shows up as
        a stats divergence instead of passing silently.
        """
        detail = self.introspect(name)
        versions = detail["versions"]
        newest = versions[-1] if versions else {}
        return {
            "calls": detail["calls"],
            "compiled": int(bool(versions)),
            "speculative": int(newest.get("speculative", False)),
            "guards": newest.get("guards", 0),
            "inlined_frames": newest.get("inlined_frames", 0),
            "continuations": len(detail["continuations"]),
            "versions": len(versions),
            **detail["counters"],
        }
