"""Engine statistics: the one fold over the event stream.

:class:`StatsCollector` is the only reduction of
:class:`~repro.engine.events.RuntimeEvent` streams in ``src/``.  Every
:class:`~repro.engine.facade.Engine` subscribes one to its bus; each
published event is dispatched, by ``type(event)``, to one small updater
that mutates that function's record and the labeled streams operators
read (tier-ups by version key, guard failures by reason, events by
kind, compile latency, ...).  Everything that shows numbers —
:meth:`Engine.stats`, the Prometheus/JSON renderer in
:mod:`repro.ops.metrics`, ``repro top`` — is a projection
of :meth:`StatsCollector.snapshot`, so two views of one engine cannot
disagree, whenever they started looking.  Because the collector sees
events as they are published, its numbers are exact even when the
bounded ring buffer has evicted old events; an offline replay feeds the
same events to a fresh collector and reaches the same snapshot.

A few :class:`EngineStats` fields are gauges of the current mechanism
state rather than event counts — ``calls`` (warm calls deliberately emit
no event) and the installed-version facts (``compiled``/``speculative``/
``guards``/``inlined_frames``, seeded by ``TierUp`` and cleared by
``Invalidated``).  :meth:`Engine.stats` fills ``calls`` in at query
time; everything else is pure reduction.
"""

from __future__ import annotations

import copy
import threading
from bisect import bisect_left
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Dict, List, Mapping, Tuple

from .events import (
    REREGISTERED,
    DeoptimizingOSR,
    DispatchedOSR,
    EntryDispatched,
    GuardFailed,
    Invalidated,
    MultiFrameDeopt,
    OptimizingOSR,
    OSREntryRejected,
    RuntimeEvent,
    SoundnessViolation,
    SpeculationRejected,
    TierUp,
    VersionAdded,
    VersionRestored,
    VersionRetired,
)

__all__ = [
    "EngineStats",
    "StatsSnapshot",
    "StatsCollector",
    "DEFAULT_BUCKETS",
]

#: Compile latencies are milliseconds-to-seconds; buckets follow the
#: Prometheus convention of a roughly logarithmic ladder ending in +Inf.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
)

#: The label values one stream sample is keyed by, in documented order.
LabelValues = Tuple[str, ...]


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


_ZEROS: Dict[str, int] = {spec.name: 0 for spec in fields(EngineStats)}


@dataclass
class StatsSnapshot:
    """The whole state of the fold.

    A :class:`StatsCollector` mutates one under its lock and
    :meth:`StatsCollector.snapshot` hands out deep copies, so a reader
    owns what it gets.  Beside the per-function records it holds the
    labeled streams ``EngineStats`` has no room for, each keyed by its
    label values in the order the comment gives.  Streams are monotonic:
    re-registering a name resets its record, not its stream samples.
    """

    #: function → its ``EngineStats`` field → value record.
    records: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: ``(function, key)`` → versions built and installed in this process.
    tier_ups: Dict[LabelValues, int] = field(default_factory=dict)
    #: ``(function,)`` → versions re-installed from an artifact store.
    versions_restored: Dict[LabelValues, int] = field(default_factory=dict)
    #: ``(function, reason)`` → guards fired in optimized code.
    guard_failures: Dict[LabelValues, int] = field(default_factory=dict)
    #: ``(function,)`` → speculative builds discarded for a missing plan.
    speculation_rejected: Dict[LabelValues, int] = field(default_factory=dict)
    #: ``(function,)`` → mid-flight entries refused by a dominating guard.
    osr_entries_rejected: Dict[LabelValues, int] = field(default_factory=dict)
    #: ``(kind,)`` → events published, every type counted.
    events: Dict[LabelValues, int] = field(default_factory=dict)
    #: ``(function,)`` → ``TierUp.compile_seconds`` as ``[observations per
    #: DEFAULT_BUCKETS bound (not cumulative), sum, count]``.
    compile_seconds: Dict[LabelValues, List] = field(default_factory=dict)


#: An updater folds one event: ``(state, record, event)``, where
#: ``record`` is ``state.records[event.function]``.
Updater = Callable[[StatsSnapshot, Dict[str, int], RuntimeEvent], None]


def _bump(stream: Dict[LabelValues, int], labels: LabelValues) -> None:
    stream[labels] = stream.get(labels, 0) + 1


def _counts(*names: str) -> Updater:
    """An updater that only increments record fields."""

    def update(state, record, event) -> None:
        for name in names:
            record[name] += 1

    return update


def _version_gauges(record: Dict[str, int], event) -> None:
    # The payload describes the newest live version — the one just
    # installed (a warm-started version is indistinguishable from a
    # locally compiled one), or the survivor of a discard (all zeros when
    # the multiverse is now empty).
    record["compiled"] = int(event.versions > 0)
    record["speculative"] = int(event.speculative)
    record["guards"] = event.guards
    record["inlined_frames"] = event.inlined_frames
    record["versions"] = event.versions


def _tier_up(state, record, event) -> None:
    _version_gauges(record, event)
    _bump(state.tier_ups, (event.function, event.key))
    histogram = state.compile_seconds.setdefault(
        (event.function,), [[0] * len(DEFAULT_BUCKETS), 0.0, 0]
    )
    index = bisect_left(DEFAULT_BUCKETS, event.compile_seconds)
    if index < len(DEFAULT_BUCKETS):
        histogram[0][index] += 1
    histogram[1] += event.compile_seconds
    histogram[2] += 1


def _version_restored(state, record, event) -> None:
    _version_gauges(record, event)
    _bump(state.versions_restored, (event.function,))


def _version_added(state, record, event) -> None:
    record["versions"] = event.versions
    record["versions_added"] += 1


def _version_retired(state, record, event) -> None:
    _version_gauges(record, event)
    record["versions_retired"] += 1


def _invalidated(state, record, event) -> None:
    if event.reason == REREGISTERED:
        # A re-registration discards the whole per-name history, not
        # just the installed version: the mechanism starts a fresh
        # TieredFunction, so the fold starts a fresh record to stay in
        # exact agreement with it.  (Activations still executing the
        # superseded version may publish events after this reset;
        # agreement is guaranteed again once they drain.)
        record.update(_ZEROS)
        return
    _version_gauges(record, event)
    record["invalidations"] += 1


def _guard_failed(state, record, event) -> None:
    record["guard_failures"] += 1
    _bump(state.guard_failures, (event.function, event.reason or "unknown"))


def _deoptimizing_osr(state, record, event) -> None:
    record["osr_exits"] += 1
    record["dispatch_misses"] += int(event.from_guard)


def _speculation_rejected(state, record, event) -> None:
    _bump(state.speculation_rejected, (event.function,))


def _osr_entry_rejected(state, record, event) -> None:
    _bump(state.osr_entries_rejected, (event.function,))


_UPDATERS: Dict[type, Updater] = {
    TierUp: _tier_up,
    VersionRestored: _version_restored,
    VersionAdded: _version_added,
    VersionRetired: _version_retired,
    EntryDispatched: _counts("entry_dispatches"),
    SpeculationRejected: _speculation_rejected,
    OptimizingOSR: _counts("osr_entries"),
    OSREntryRejected: _osr_entry_rejected,
    GuardFailed: _guard_failed,
    DeoptimizingOSR: _deoptimizing_osr,
    DispatchedOSR: _counts("dispatch_hits"),
    MultiFrameDeopt: _counts("osr_exits", "multiframe_deopts"),
    SoundnessViolation: _counts("soundness_violations"),
    Invalidated: _invalidated,
}


class StatsCollector:
    """A bus subscriber folding events into one :class:`StatsSnapshot`.

    The fold is a read-modify-write per event, so it is serialized by a
    lock: events published concurrently (request threads, background
    compile workers) are each folded exactly once — the stress suite
    asserts the reduction stays exact under contention.  Every event is
    counted in ``events`` by kind, whether or not its type has an
    updater, so a new event type cannot go unnoticed.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._state = StatsSnapshot()

    def __call__(self, event: RuntimeEvent) -> None:
        with self._lock:
            state = self._state
            _bump(state.events, (event.kind,))
            record = state.records.get(event.function)
            if record is None:
                record = state.records[event.function] = dict(_ZEROS)
            update = _UPDATERS.get(type(event))
            if update is not None:
                update(state, record, event)

    def function(self, name: str) -> EngineStats:
        """The reduced stats for ``name`` (zeros if never observed)."""
        with self._lock:
            return EngineStats(**self._state.records.get(name, _ZEROS))

    def snapshot(self) -> StatsSnapshot:
        """Per-function records and every labeled stream, read atomically."""
        with self._lock:
            return copy.deepcopy(self._state)
