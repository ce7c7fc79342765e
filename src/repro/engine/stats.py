"""Engine statistics derived from the event stream.

The transition counters are a *fold* over the structured event stream:
:class:`StatsCollector` subscribes to the bus and reduces every
:class:`~repro.engine.events.RuntimeEvent` into a per-function
:class:`EngineStats`.  Because the collector sees
events as they are published, its numbers are exact even when the
bounded ring buffer has evicted old events.

A few fields are gauges of the current mechanism state rather than
event counts — ``calls`` (warm calls deliberately emit no event) and
the installed-version facts (``compiled``/``speculative``/``guards``/
``inlined_frames``, seeded by ``TierUp`` and cleared by
``Invalidated``).  :meth:`Engine.stats` fills ``calls`` in at query
time; everything else is pure reduction.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass, fields, replace
from typing import Dict, Mapping

from .events import (
    REREGISTERED,
    ContinuationCached,
    ContinuationEvicted,
    DeoptimizingOSR,
    DispatchedOSR,
    EntryDispatched,
    GuardFailed,
    Invalidated,
    MultiFrameDeopt,
    OptimizingOSR,
    RuntimeEvent,
    SoundnessViolation,
    TierUp,
    VersionAdded,
    VersionRestored,
    VersionRetired,
)

__all__ = ["EngineStats", "StatsCollector"]


@dataclass(frozen=True)
class EngineStats:
    """Per-function tiering statistics."""

    calls: int = 0
    compiled: int = 0
    speculative: int = 0
    guards: int = 0
    inlined_frames: int = 0
    osr_entries: int = 0
    osr_exits: int = 0
    guard_failures: int = 0
    multiframe_deopts: int = 0
    invalidations: int = 0
    dispatch_hits: int = 0
    dispatch_misses: int = 0
    continuations: int = 0
    #: Live versions in the function's multiverse (gauge).
    versions: int = 0
    versions_added: int = 0
    versions_retired: int = 0
    entry_dispatches: int = 0
    #: Obligations the static soundness verifier failed in warn mode
    #: (strict mode raises instead and never publishes a version).
    soundness_violations: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Field name → value, the shape ``AdaptiveRuntime.stats()`` returns."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, int]) -> "EngineStats":
        """Inverse of :meth:`as_dict` — ``from_dict(s.as_dict()) == s``.

        The JSON round-trip the CLI and metrics exporter rely on.
        Unknown keys raise (a stats dict from a newer engine must not
        load silently); missing keys default to zero so a reduced
        rendering still parses.
        """
        known = {spec.name for spec in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown EngineStats field(s) {unknown}; known: {sorted(known)}"
            )
        return cls(**{key: int(value) for key, value in data.items()})


class StatsCollector:
    """A bus subscriber folding events into per-function `EngineStats`.

    The fold is a read-modify-write per event, so it is serialized by a
    lock: events published concurrently (request threads, background
    compile workers) are each folded exactly once — the stress suite
    asserts the reduction stays exact under contention.
    """

    def __init__(self) -> None:
        self._stats: Dict[str, EngineStats] = {}
        self._lock = threading.Lock()

    def function(self, name: str) -> EngineStats:
        """The reduced stats for ``name`` (zeros if never observed)."""
        with self._lock:
            return self._stats.get(name, EngineStats())

    def functions(self) -> Dict[str, EngineStats]:
        with self._lock:
            return dict(self._stats)

    def __call__(self, event: RuntimeEvent) -> None:
        if isinstance(event, Invalidated) and event.reason == REREGISTERED:
            # A re-registration discards the whole per-name history, not
            # just the installed version: the mechanism starts a fresh
            # TieredFunction, so the fold starts a fresh EngineStats to
            # stay in exact agreement with it.  (Activations still
            # executing the superseded version may publish events after
            # this reset; agreement is guaranteed again once they drain.)
            with self._lock:
                self._stats[event.function] = EngineStats()
            return
        with self._lock:
            self._fold(event)

    def _fold(self, event: RuntimeEvent) -> None:
        stats = self._stats.get(event.function, EngineStats())
        if isinstance(event, (TierUp, VersionRestored)):
            # A warm-started version is indistinguishable from a locally
            # compiled one as far as the installed-version gauges go.
            stats = replace(
                stats,
                compiled=1,
                speculative=int(event.speculative),
                guards=event.guards,
                inlined_frames=event.inlined_frames,
                versions=event.versions,
            )
        elif isinstance(event, VersionAdded):
            stats = replace(
                stats,
                versions=event.versions,
                versions_added=stats.versions_added + 1,
            )
        elif isinstance(event, VersionRetired):
            stats = replace(
                stats,
                versions=event.versions,
                versions_retired=stats.versions_retired + 1,
                compiled=int(event.versions > 0),
                speculative=int(event.speculative),
                guards=event.guards,
                inlined_frames=event.inlined_frames,
                continuations=event.continuations,
            )
        elif isinstance(event, EntryDispatched):
            stats = replace(stats, entry_dispatches=stats.entry_dispatches + 1)
        elif isinstance(event, OptimizingOSR):
            stats = replace(stats, osr_entries=stats.osr_entries + 1)
        elif isinstance(event, GuardFailed):
            stats = replace(stats, guard_failures=stats.guard_failures + 1)
        elif isinstance(event, MultiFrameDeopt):
            stats = replace(
                stats,
                osr_exits=stats.osr_exits + 1,
                multiframe_deopts=stats.multiframe_deopts + 1,
            )
        elif isinstance(event, DeoptimizingOSR):
            stats = replace(
                stats,
                osr_exits=stats.osr_exits + 1,
                dispatch_misses=stats.dispatch_misses + int(event.from_guard),
            )
        elif isinstance(event, DispatchedOSR):
            stats = replace(stats, dispatch_hits=stats.dispatch_hits + 1)
        elif isinstance(event, ContinuationCached):
            stats = replace(stats, continuations=stats.continuations + 1)
        elif isinstance(event, ContinuationEvicted):
            stats = replace(stats, continuations=stats.continuations - 1)
        elif isinstance(event, SoundnessViolation):
            stats = replace(
                stats,
                soundness_violations=stats.soundness_violations + 1,
            )
        elif isinstance(event, Invalidated):
            # The discarded version's gauges are replaced by the payload
            # of the surviving newest version (all zeros — the historical
            # full reset — when the multiverse is now empty); its
            # continuations died with it.
            stats = replace(
                stats,
                invalidations=stats.invalidations + 1,
                compiled=int(event.versions > 0),
                speculative=int(event.speculative),
                guards=event.guards,
                inlined_frames=event.inlined_frames,
                continuations=event.continuations,
                versions=event.versions,
            )
        self._stats[event.function] = stats
