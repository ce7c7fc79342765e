"""The public embedding API of the adaptive OSR runtime.

Three pieces (*OSR à la Carte*'s "OSR as a composable library"
argument, with *Deoptless*'s policy knobs made first-class):

* :class:`EngineConfig` — every tuning knob as one frozen, validated
  value.
* :class:`TieringPolicy` — the strategy protocol deciding *when* to
  compile, where to OSR-enter, whether to add a version and when to
  invalidate; :class:`HotnessPolicy` is the default,
  :class:`AlwaysCompile`/:class:`NeverCompile` pin tiers for tests.
* :class:`Engine` — the facade: :meth:`Engine.from_source` runs
  frontend → lowering → mem2reg → registration in one call,
  :meth:`Engine.function` returns a callable :class:`FunctionHandle`,
  and :meth:`Engine.subscribe` observes every tier transition as a
  typed :class:`RuntimeEvent`.
"""

from .config import EngineConfig
from .events import (
    EVENT_TYPES,
    REREGISTERED,
    DeoptimizingOSR,
    DispatchedOSR,
    EntryDispatched,
    EventBus,
    GuardFailed,
    Invalidated,
    MultiFrameDeopt,
    OptimizingOSR,
    OSREntryRejected,
    RingBufferRecorder,
    RuntimeEvent,
    SoundnessViolation,
    SpeculationRejected,
    Tier,
    TierUp,
    VersionAdded,
    VersionRestored,
    VersionRetired,
    event_as_dict,
    event_from_dict,
)
from .policy import AlwaysCompile, HotnessPolicy, NeverCompile, TieringPolicy
from .stats import EngineStats, StatsCollector, StatsSnapshot


def __getattr__(name):
    # The facade pulls in repro.vm (which itself loads repro.engine.config
    # at import time); loading it lazily keeps `import repro.vm` and
    # `import repro.engine` both cycle-free regardless of order.
    if name in ("Engine", "FunctionHandle", "EngineSnapshot", "VersionInfo"):
        from . import facade

        return getattr(facade, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Engine",
    "FunctionHandle",
    "EngineSnapshot",
    "VersionInfo",
    "EngineConfig",
    "Tier",
    "TieringPolicy",
    "HotnessPolicy",
    "AlwaysCompile",
    "NeverCompile",
    "EngineStats",
    "StatsCollector",
    "StatsSnapshot",
    "RuntimeEvent",
    "TierUp",
    "VersionRestored",
    "VersionAdded",
    "VersionRetired",
    "EntryDispatched",
    "SpeculationRejected",
    "OptimizingOSR",
    "OSREntryRejected",
    "GuardFailed",
    "DeoptimizingOSR",
    "DispatchedOSR",
    "MultiFrameDeopt",
    "SoundnessViolation",
    "Invalidated",
    "REREGISTERED",
    "EventBus",
    "RingBufferRecorder",
    "EVENT_TYPES",
    "event_as_dict",
    "event_from_dict",
]
