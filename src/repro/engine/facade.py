"""The `Engine` facade: one object from source text to tiered execution.

:class:`Engine` packages the whole frontend → lowering → mem2reg →
registration → tiered execution flow:

    from repro.engine import Engine, EngineConfig

    engine = Engine.from_source(SOURCE)          # parse, lower, register
    fib = engine.function("fib")                 # a callable handle
    for _ in range(5):
        fib(20)                                  # warm → tier-up
    print(fib.tier, fib.stats.osr_entries)

    unsubscribe = engine.subscribe(print)        # typed RuntimeEvents

An :class:`Engine` owns the event bus (with its bounded ring-buffer
recorder), the one :class:`~repro.engine.stats.StatsCollector` reducing
the event stream — into per-function
:class:`~repro.engine.stats.EngineStats` (:meth:`Engine.stats`) and the
labeled streams a scrape serves (:meth:`Engine.stats_snapshot`; the
metrics exporter and ``repro top`` render that, they do not fold
events themselves) — and the
:class:`~repro.vm.runtime.AdaptiveRuntime` mechanism configured
by a frozen :class:`~repro.engine.config.EngineConfig` and steered by a
pluggable :class:`~repro.engine.policy.TieringPolicy`.

One engine may serve any number of threads concurrently: handles are
shareable, calls are safe to interleave, and with
``EngineConfig.compile_workers >= 1`` tier-up work runs on a bounded
background pool instead of stalling the triggering call (use the
engine as a context manager, or call :meth:`Engine.close`, to stop the
pool deterministically).  See the README's "Concurrency & background
compilation" section for the full threading model.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..frontend import compile_program
from ..ir.function import Function, Module, ProgramPoint
from ..ir.interp import ExecutionResult, Memory
from ..vm.profile import FunctionProfile
from ..vm.runtime import AdaptiveRuntime, TieredFunction
from .config import EngineConfig
from .events import EventBus, RingBufferRecorder, RuntimeEvent, Subscriber, Tier
from .policy import TieringPolicy
from .stats import EngineStats, StatsCollector, StatsSnapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..store.artifacts import ArtifactKey
    from ..store.persist import ArtifactStore, EngineSnapshot

__all__ = ["Engine", "FunctionHandle", "EngineSnapshot", "VersionInfo"]

#: What callers may pass wherever a store is expected.
StoreLike = Union["ArtifactStore", str, Path]


def __getattr__(name: str):
    # Re-exported here so ``from repro.engine import EngineSnapshot`` works
    # without the facade importing the store package at module load.
    if name == "EngineSnapshot":
        from ..store.persist import EngineSnapshot

        return EngineSnapshot
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class VersionInfo:
    """A read-only description of one installed version.

    Its :class:`~repro.engine.events.Tier`, whether it speculates (and
    on how many guards), how many frames its deopt plans reconstruct,
    and the :class:`~repro.store.artifacts.ArtifactKey` it would be
    persisted under (``None`` while the function is base-tier).  A
    function may hold several at once — one per entry-profile cluster,
    see :attr:`FunctionHandle.versions`: ``key`` renders the version's
    :class:`~repro.vm.profile.VersionKey` (``"generic"`` for the
    unspecialized build), ``hits`` counts the entry dispatches it
    served, ``dispatched`` marks the one the most recent call selected.
    """

    tier: Tier = Tier.BASE
    speculative: bool = False
    guards: int = 0
    inlined_frames: int = 0
    artifact_key: Optional["ArtifactKey"] = None
    key: str = "generic"
    hits: int = 0
    dispatched: bool = False

    @property
    def is_compiled(self) -> bool:
        return self.tier is Tier.OPTIMIZED


class FunctionHandle:
    """A callable view of one registered function.

    Calling the handle runs the function through the engine's tiering
    (``handle(3, 4)`` returns the result value); :meth:`call` returns
    the full :class:`~repro.ir.interp.ExecutionResult` when the caller
    needs the final environment or the shared memory.  The properties
    expose the function's current tier, its value/branch/call-site
    profile, and its event-derived statistics.
    """

    def __init__(self, engine: "Engine", name: str) -> None:
        self._engine = engine
        self.name = name

    def __call__(self, *args: int, memory: Optional[Memory] = None) -> Optional[int]:
        return self.call(args, memory=memory).value

    def call(
        self, args: Sequence[int] = (), *, memory: Optional[Memory] = None
    ) -> ExecutionResult:
        return self._engine.call(self.name, args, memory=memory)

    @property
    def state(self) -> TieredFunction:
        """The runtime's mechanism-level per-function state."""
        return self._engine.runtime.functions[self.name]

    @property
    def tier(self) -> Tier:
        """The installed-version :class:`Tier` (string-comparable)."""
        return Tier.OPTIMIZED if self.state.is_compiled else Tier.BASE

    @property
    def version(self) -> VersionInfo:
        """A read-only :class:`VersionInfo` for the newest installed version.

        A stable snapshot — safe to hold across tier transitions — that
        carries the artifact key the version persists under.
        """
        infos = self.versions
        return infos[-1] if infos else VersionInfo()

    @property
    def versions(self) -> List[VersionInfo]:
        """The live version multiverse, oldest first (read-only).

        One frozen :class:`VersionInfo` per installed version — a
        projection of :meth:`introspect` — each carrying its
        entry-profile ``key`` and dispatch ``hits``; the version the
        most recent call dispatched to has ``dispatched=True``.  Empty
        while the function is base-tier.
        """
        described = self.introspect()["versions"]
        if not described:
            return []
        from ..store.artifacts import ArtifactKey, function_ir_hash

        artifact_key = ArtifactKey(
            function=self.name,
            base_ir_hash=function_ir_hash(self.state.base),
            config_fingerprint=self._engine.config.fingerprint(),
        )
        return [
            VersionInfo(
                tier=Tier.OPTIMIZED,
                speculative=version["speculative"],
                guards=version["guards"],
                inlined_frames=version["inlined_frames"],
                artifact_key=artifact_key,
                key=version["key"],
                hits=version["hits"],
                dispatched=version["dispatched"],
            )
            for version in described
        ]

    @property
    def speculative(self) -> bool:
        return self.version.speculative

    @property
    def profile(self) -> FunctionProfile:
        """The base tier's value/branch/call-site profile."""
        return self._engine.runtime.profile.function(self.name)

    @property
    def stats(self) -> EngineStats:
        return self._engine.stats(self.name)

    def introspect(self) -> Dict[str, object]:
        """A JSON-safe snapshot of this function's full tier state (the
        operator view behind ``repro inspect``); see
        :meth:`repro.vm.runtime.AdaptiveRuntime.introspect`."""
        return self._engine.runtime.introspect(self.name)

    def deopt_points(self) -> List[ProgramPoint]:
        """The optimized-code points supporting forced deoptimization.

        Compiles the function first if necessary; any returned point is a
        valid argument to :meth:`deoptimize_at`.
        """
        return [
            point
            for point in self._engine.runtime.deopt_mapping(self.name).domain()
            if isinstance(point, ProgramPoint)
        ]

    def deoptimize_at(
        self,
        point: ProgramPoint,
        args: Sequence[int],
        *,
        memory: Optional[Memory] = None,
    ) -> ExecutionResult:
        """Force an external deoptimizing OSR at ``point`` (see runtime)."""
        return self._engine.runtime.deoptimize_at(
            self.name, point, args, memory=memory
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FunctionHandle({self.name!r}, tier={self.tier.value!r})"


class Engine:
    """The embedding facade over the adaptive runtime."""

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        *,
        policy: Optional[TieringPolicy] = None,
    ) -> None:
        self.config = config if config is not None else EngineConfig()
        self.bus = EventBus(RingBufferRecorder(self.config.event_buffer_size))
        #: The engine's one fold of its event stream: read it
        #: (``function``/``snapshot``), never feed it.
        self.collector = StatsCollector()
        self.bus.subscribe(self.collector)
        self.runtime = AdaptiveRuntime(self.config, policy=policy, bus=self.bus)
        self._handles: Dict[str, FunctionHandle] = {}
        #: Names whose compiled tier was re-installed from a store by
        #: :meth:`Engine.open` (empty for cold-started engines).
        self.restored_functions: Tuple[str, ...] = ()

    # ------------------------------------------------------------------ #
    # Construction.
    # ------------------------------------------------------------------ #
    @classmethod
    def from_source(
        cls,
        source: str,
        *,
        config: Optional[EngineConfig] = None,
        policy: Optional[TieringPolicy] = None,
        module_name: str = "minic",
    ) -> "Engine":
        """Frontend → lowering → mem2reg → registration, in one call.

        ``source`` is a MiniC program (one or more ``func`` definitions);
        every function is registered for independent tiering.
        """
        module = compile_program(source, module_name=module_name)
        return cls.from_module(module, config=config, policy=policy)

    @classmethod
    def from_module(
        cls,
        module: Module,
        *,
        config: Optional[EngineConfig] = None,
        policy: Optional[TieringPolicy] = None,
    ) -> "Engine":
        engine = cls(config, policy=policy)
        engine.register_module(module)
        return engine

    @classmethod
    def from_functions(
        cls,
        *functions: Function,
        config: Optional[EngineConfig] = None,
        policy: Optional[TieringPolicy] = None,
    ) -> "Engine":
        engine = cls(config, policy=policy)
        for function in functions:
            engine.register(function)
        return engine

    @classmethod
    def open(
        cls,
        source: str,
        store: StoreLike,
        *,
        config: Optional[EngineConfig] = None,
        policy: Optional[TieringPolicy] = None,
        on_stale: str = "error",
        module_name: str = "minic",
    ) -> "Engine":
        """Warm-start an engine: compile ``source``, then hydrate from ``store``.

        Every registered function with a matching artifact (same base-IR
        hash, same config fingerprint, all deopt-plan callees unchanged)
        gets its persisted profile folded in and its compiled tier
        re-installed — the first call runs optimized with **zero**
        ``TierUp`` events (a ``VersionRestored`` event is published per
        restored function instead).  A mismatched artifact raises a
        typed :class:`~repro.store.artifacts.StaleArtifactError` /
        :class:`~repro.store.artifacts.ConfigMismatchError` unless
        ``on_stale="skip"``, which leaves those functions cold.

        ``store`` may be an :class:`~repro.store.persist.ArtifactStore`
        or a path to one.  Restored names land in
        :attr:`restored_functions`.
        """
        from ..store.persist import hydrate_runtime

        engine = cls.from_source(
            source, config=config, policy=policy, module_name=module_name
        )
        engine.restored_functions = tuple(
            hydrate_runtime(engine.runtime, store, on_stale=on_stale)
        )
        return engine

    # ------------------------------------------------------------------ #
    # Persistence.
    # ------------------------------------------------------------------ #
    def snapshot(self) -> "EngineSnapshot":
        """Export everything this engine has learned, as pure data.

        Waits for in-flight background compiles first (so a snapshot
        taken right after warming captures the optimized tier), then
        captures one artifact per registered function: the merged
        profile, and the installed compiled version (optimized IR,
        per-guard deopt plans, OSR mappings) when there is one.
        """
        from ..store.persist import snapshot_runtime

        self.wait_for_compilation()
        return snapshot_runtime(self.runtime)

    def save(self, store: StoreLike) -> List["ArtifactKey"]:
        """Snapshot and publish to ``store`` (merge-and-republish).

        Profiles accumulate into existing entries under per-entry file
        locks — concurrent savers (engines in other processes) merge
        rather than clobber.  Returns the published artifact keys.
        """
        return self.snapshot().save(store)

    # ------------------------------------------------------------------ #
    # Lifecycle.
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop the background compile pool (idempotent).

        In-flight compiles finish (and publish) first; registered
        functions keep working in whatever tier they reached.  Only
        meaningful with ``compile_workers >= 1`` — a no-op otherwise.
        """
        self.runtime.shutdown()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def wait_for_compilation(
        self, name: Optional[str] = None, *, timeout: Optional[float] = None
    ) -> bool:
        """Block until in-flight background compiles finish.

        With ``name`` waits for that function only; otherwise for every
        registered function.  Returns ``False`` on timeout.  Useful for
        tests and benchmarks that want the optimized steady state before
        measuring.
        """
        return self.runtime.wait_for_compilation(name, timeout=timeout)

    # ------------------------------------------------------------------ #
    # Registration and lookup.
    # ------------------------------------------------------------------ #
    def register(self, function: Function, *, replace: bool = False) -> FunctionHandle:
        """Register ``function`` for tiering.

        A name collision raises unless ``replace=True``, which discards
        the old version (publishing ``Invalidated(reason=REREGISTERED)``
        and resetting that name's statistics and profile) — see
        :meth:`repro.vm.runtime.AdaptiveRuntime.register`.
        """
        self.runtime.register(function, replace=replace)
        return self.function(function.name)

    def register_module(
        self, module: Module, *, replace: bool = False
    ) -> List[FunctionHandle]:
        self.runtime.register_module(module, replace=replace)
        return [self.function(function.name) for function in module]

    def function(self, name: str) -> FunctionHandle:
        if name not in self.runtime.functions:
            raise KeyError(f"no function @{name} is registered with this engine")
        handle = self._handles.get(name)
        if handle is None:
            handle = self._handles[name] = FunctionHandle(self, name)
        return handle

    def __contains__(self, name: str) -> bool:
        return name in self.runtime.functions

    def function_names(self) -> List[str]:
        return list(self.runtime.functions)

    # ------------------------------------------------------------------ #
    # Execution and observation.
    # ------------------------------------------------------------------ #
    def call(
        self,
        name: str,
        args: Sequence[int] = (),
        *,
        memory: Optional[Memory] = None,
    ) -> ExecutionResult:
        return self.runtime.call(name, args, memory=memory)

    def subscribe(self, subscriber: Subscriber) -> Callable[[], None]:
        """Observe every :class:`RuntimeEvent`; returns an unsubscriber."""
        return self.bus.subscribe(subscriber)

    @property
    def events(self) -> List[RuntimeEvent]:
        """Typed events retained by the bounded ring-buffer recorder."""
        return self.bus.events()

    def stats(self, name: str) -> EngineStats:
        """Event-derived stats for ``name`` (+ the live call-count gauge).

        Warm calls deliberately publish no event, so ``calls`` is read
        from the mechanism; every transition counter is the event fold.
        """
        from dataclasses import replace

        state = self.runtime.functions[name]
        return replace(self.collector.function(name), calls=state.call_count)

    def stats_all(self) -> Dict[str, EngineStats]:
        """Per-function :class:`EngineStats` for every registered function."""
        return {name: self.stats(name) for name in self.runtime.functions}

    def stats_snapshot(self) -> StatsSnapshot:
        """The collector's whole state — functions *and* labeled streams —
        read atomically, with every registered function present and its
        live ``calls`` filled in.  What :mod:`repro.ops.metrics` renders.
        """
        snapshot = self.collector.snapshot()
        for name, state in self.runtime.functions.items():
            record = snapshot.records.setdefault(name, EngineStats().as_dict())
            record["calls"] = state.call_count
        return snapshot
