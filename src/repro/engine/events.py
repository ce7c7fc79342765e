"""Structured runtime events: a typed hierarchy, a bus, and a bounded log.

The adaptive runtime narrates its life through

* a :class:`RuntimeEvent` dataclass hierarchy — one class per tier
  transition, each carrying the structured facts a client actually
  wants (the guard reason, the continuation hit count, the number of
  reconstructed frames, ...);

* an :class:`EventBus` with subscriber registration — embedders observe
  transitions as they happen instead of polling a log; and

* a :class:`RingBufferRecorder` — a *bounded* event log (default
  capacity 4096) so long-running workloads no longer grow memory
  without bound.  Evictions are counted, never silent.

The bus is deliberately cheap when idle: steady-state warm calls emit
no events at all, and publishing is one recorder append plus one call
per subscriber.

Both the bus and the recorder are **thread-safe**: the concurrent
runtime publishes tier transitions from request threads and from
background compile workers alike.  Registration order is preserved,
subscriptions are identified by token (subscribing the same callable
twice yields two independent registrations, each with its own
unsubscriber), publish delivers to a snapshot of the subscriber list
(so a subscriber unsubscribing — itself or another — mid-publish can
never make a different subscriber miss the event), and subscriber
callbacks run *outside* the bus lock so a callback may freely
subscribe, unsubscribe, or publish without deadlocking.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, fields
from enum import Enum
from typing import (
    Callable,
    ClassVar,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Type,
)

from ..ir.function import ProgramPoint

__all__ = [
    "Tier",
    "EVENT_TYPES",
    "event_as_dict",
    "event_from_dict",
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
    "ContinuationHit",
    "ContinuationCached",
    "ContinuationEvicted",
    "MultiFrameDeopt",
    "SoundnessViolation",
    "Invalidated",
    "REREGISTERED",
    "EventBus",
    "RingBufferRecorder",
    "Subscriber",
]


class Tier(str, Enum):
    """The execution tier a function currently runs in.

    Values are the historical strings (``"base"`` / ``"optimized"``), and
    the enum derives from :class:`str`, so existing comparisons like
    ``handle.tier == "optimized"`` keep passing while new code gets a
    real type to switch on.
    """

    BASE = "base"
    OPTIMIZED = "optimized"

    def __str__(self) -> str:  # "base", not "Tier.BASE", in rendered events
        return self.value


@dataclass(frozen=True)
class RuntimeEvent:
    """Base class of every tier-transition event.

    ``function`` is the registered function the transition concerns and
    ``point`` the program point it happened at (``None`` for whole-
    function transitions such as a tier-up).  ``kind`` is a stable
    machine-readable tag (the JSON codec's class discriminator).
    """

    function: str
    point: Optional[ProgramPoint] = None

    kind: ClassVar[str] = "event"


@dataclass(frozen=True)
class TierUp(RuntimeEvent):
    """A function crossed the compile threshold and installed a version."""

    speculative: bool = False
    guards: int = 0
    inlined_frames: int = 0
    #: The tier the function landed in (always optimized for a tier-up).
    tier: Tier = Tier.OPTIMIZED
    #: The entry-profile cluster the version is keyed by (rendered
    #: :class:`~repro.vm.profile.VersionKey`; ``"generic"`` matches all).
    key: str = "generic"
    #: Live versions in the function's multiverse after the install.
    versions: int = 1
    #: Wall-clock seconds the build spent (optimization pipeline plus
    #: deopt-plan construction), measured on the compiling thread.
    #: ``0.0`` when the producer did not time the build (events built by
    #: hand in tests, pre-metrics recordings).
    compile_seconds: float = 0.0

    kind: ClassVar[str] = "tier-up"


@dataclass(frozen=True)
class VersionRestored(RuntimeEvent):
    """A persisted compiled version was re-installed from an artifact store.

    Deliberately *not* a :class:`TierUp`: a warm start serves its first
    call from the compiled tier without ever re-warming, and clients
    (and tests) that count tier-ups as "compilation work done in this
    process" must see zero.  Carries the same payload so stats fold it
    identically.
    """

    speculative: bool = False
    guards: int = 0
    inlined_frames: int = 0
    tier: Tier = Tier.OPTIMIZED
    key: str = "generic"
    versions: int = 1

    kind: ClassVar[str] = "version-restored"


@dataclass(frozen=True)
class VersionAdded(RuntimeEvent):
    """The multiverse grew: a version joined a function's version table.

    Published alongside the :class:`TierUp` (or :class:`VersionRestored`)
    whenever the installed version is *specialized* (non-generic key) or
    joins a table that already holds another live version.  The very
    first generic install of a single-version function publishes only
    the plain :class:`TierUp`, so pre-multiverse event streams are
    unchanged.
    """

    key: str = "generic"
    #: Live versions in the table after the add.
    versions: int = 1

    kind: ClassVar[str] = "version-added"


@dataclass(frozen=True)
class VersionRetired(RuntimeEvent):
    """A cold version was evicted to keep the multiverse within bound.

    Carries the same gauge payload as :class:`Invalidated` (the facts of
    the surviving newest version) so the stats fold stays an exact
    mirror of the runtime's own counters.
    """

    key: str = "generic"
    #: Live versions in the table after the eviction.
    versions: int = 0
    speculative: bool = False
    guards: int = 0
    inlined_frames: int = 0
    #: Cached continuations surviving the eviction (the retired
    #: version's continuations die with it).
    continuations: int = 0

    kind: ClassVar[str] = "version-retired"


@dataclass(frozen=True)
class EntryDispatched(RuntimeEvent):
    """A call (or OSR entry) was dispatched to a best-matching version.

    Only multiverse dispatches publish this — the selected version is
    specialized, or the table held more than one candidate.  A function
    living its whole life as a single generic version emits none, which
    keeps warm steady-state calls event-free exactly as before.
    """

    key: str = "generic"
    #: Live versions the dispatch chose among.
    versions: int = 1

    kind: ClassVar[str] = "entry-dispatched"


@dataclass(frozen=True)
class SpeculationRejected(RuntimeEvent):
    """A speculative build was discarded: some guard had no deopt plan."""

    kind: ClassVar[str] = "speculation-rejected"


@dataclass(frozen=True)
class OptimizingOSR(RuntimeEvent):
    """An in-flight base-tier activation transferred into optimized code."""

    kind: ClassVar[str] = "optimizing-osr"


@dataclass(frozen=True)
class OSREntryRejected(RuntimeEvent):
    """A mid-flight entry was refused (a dominating guard would not hold)."""

    kind: ClassVar[str] = "osr-entry-rejected"


@dataclass(frozen=True)
class GuardFailed(RuntimeEvent):
    """A speculation guard fired in optimized code."""

    reason: Optional[str] = None
    multiframe: bool = False

    kind: ClassVar[str] = "guard-failed"


@dataclass(frozen=True)
class DeoptimizingOSR(RuntimeEvent):
    """Execution transferred back to f_base through a deopt mapping.

    ``from_guard`` distinguishes a guard-failure deopt (the dispatched-
    continuation miss path) from an external :meth:`deoptimize_at`
    invalidation.
    """

    from_guard: bool = True

    kind: ClassVar[str] = "deoptimizing-osr"


@dataclass(frozen=True)
class DispatchedOSR(RuntimeEvent):
    """A repeated guard failure jumped straight to a cached continuation."""

    hits: int = 0

    kind: ClassVar[str] = "dispatched-osr"


#: A dispatched OSR *is* a continuation-cache hit; both names are public.
ContinuationHit = DispatchedOSR


@dataclass(frozen=True)
class ContinuationCached(RuntimeEvent):
    """A specialized deopt continuation was built and cached."""

    kind: ClassVar[str] = "continuation-cached"


@dataclass(frozen=True)
class ContinuationEvicted(RuntimeEvent):
    """The bounded continuation cache evicted its oldest entry."""

    kind: ClassVar[str] = "continuation-evicted"


@dataclass(frozen=True)
class MultiFrameDeopt(RuntimeEvent):
    """A guard inside inlined code materialized a virtual call stack."""

    frames: int = 0

    kind: ClassVar[str] = "multiframe-deopt"


@dataclass(frozen=True)
class SoundnessViolation(RuntimeEvent):
    """The static soundness verifier failed an obligation in warn mode.

    Published once per violated obligation when ``verify_deopt="warn"``
    lets an unproven version through — ``obligation`` is the dotted
    ``pack/rule`` name (e.g. ``"completeness/definite-assignment"``)
    and ``detail`` the human-readable finding.  Strict mode raises
    :class:`~repro.analysis.soundness.UnsoundVersionError` instead and
    publishes nothing (the version never exists).
    """

    obligation: str = ""
    detail: str = ""
    #: The entry-profile key of the version that failed verification.
    key: str = "generic"

    kind: ClassVar[str] = "soundness-violation"


#: ``Invalidated.reason`` used when a name is re-registered with a new
#: function body: the old version, its continuations, its profile and
#: its statistics are all discarded, not just the installed code.
REREGISTERED = "re-registered"


@dataclass(frozen=True)
class Invalidated(RuntimeEvent):
    """Repeated failures refuted a speculation; the version was discarded.

    Also published (with ``reason=REREGISTERED``) when a registered name
    is explicitly replaced by a new function body — subscribers holding
    anything derived from the old version must drop it.
    """

    reason: Optional[str] = None
    #: The tier the function falls back to — base when the discarded
    #: version was the last one, optimized when other versions survive.
    tier: Tier = Tier.BASE
    #: The key of the discarded version.
    key: str = "generic"
    #: Live versions surviving the discard (0 == the historical
    #: single-version invalidation, which drops to the base tier).
    versions: int = 0
    #: Gauge payload of the surviving newest version (all zero when
    #: nothing survives), mirrored into the stats fold.
    speculative: bool = False
    guards: int = 0
    inlined_frames: int = 0
    #: Cached continuations surviving the discard.
    continuations: int = 0

    kind: ClassVar[str] = "invalidated"


#: Every concrete event class, keyed by its stable ``kind`` tag.  The
#: JSON codec below (and anything replaying a serialized stream — the
#: fleet's JSON-lines sinks, ``repro top --follow``) resolves classes
#: through this table, so adding an event type is one entry here.
EVENT_TYPES: Dict[str, Type[RuntimeEvent]] = {
    cls.kind: cls
    for cls in (
        TierUp,
        VersionRestored,
        VersionAdded,
        VersionRetired,
        EntryDispatched,
        SpeculationRejected,
        OptimizingOSR,
        OSREntryRejected,
        GuardFailed,
        DeoptimizingOSR,
        DispatchedOSR,
        ContinuationCached,
        ContinuationEvicted,
        MultiFrameDeopt,
        SoundnessViolation,
        Invalidated,
    )
}


def event_as_dict(event: RuntimeEvent) -> Dict[str, object]:
    """A JSON-safe rendering of ``event`` (inverse of :func:`event_from_dict`).

    ``kind`` identifies the concrete class; program points render as
    their canonical ``"block:index"`` text and tiers as their string
    value, so the result round-trips through ``json.dumps`` losslessly.
    """
    data: Dict[str, object] = {"kind": event.kind}
    for spec in fields(event):
        value = getattr(event, spec.name)
        if isinstance(value, Tier):  # before the str check: Tier is a str
            value = value.value
        elif isinstance(value, ProgramPoint):
            value = str(value)
        data[spec.name] = value
    return data


def event_from_dict(data: Dict[str, object]) -> RuntimeEvent:
    """Rebuild the typed event a :func:`event_as_dict` rendering describes.

    Unknown kinds and unknown fields raise :class:`ValueError` loudly —
    a stream written by a newer engine must not half-decode.
    """
    kind = data.get("kind")
    cls = EVENT_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(
            f"unknown event kind {kind!r}; known: {sorted(EVENT_TYPES)}"
        )
    known = {spec.name for spec in fields(cls)}
    unknown = sorted(set(data) - known - {"kind"})
    if unknown:
        raise ValueError(f"unknown field(s) {unknown} for event kind {kind!r}")
    kwargs: Dict[str, object] = {}
    for spec in fields(cls):
        if spec.name not in data:
            continue
        value = data[spec.name]
        if spec.name == "point" and isinstance(value, str):
            value = ProgramPoint.parse(value)
        elif spec.name == "tier" and isinstance(value, str):
            value = Tier(value)
        kwargs[spec.name] = value
    return cls(**kwargs)


Subscriber = Callable[[RuntimeEvent], None]


class RingBufferRecorder:
    """A bounded, iteration-ordered, thread-safe event log.

    Holds the most recent ``capacity`` events; older ones are evicted
    (and counted in :attr:`dropped`) rather than growing without bound.
    A lock makes ``record`` atomic with the total counter, so events
    published concurrently from request threads and compile workers are
    never lost or double-counted; iteration works over a snapshot.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"recorder capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._events: Deque[RuntimeEvent] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        #: Total events ever recorded (including evicted ones).
        self.total = 0

    @property
    def dropped(self) -> int:
        """How many events have been evicted to stay within capacity."""
        with self._lock:
            return self.total - len(self._events)

    def record(self, event: RuntimeEvent) -> None:
        with self._lock:
            self.total += 1
            self._events.append(event)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self.total = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def __iter__(self) -> Iterator[RuntimeEvent]:
        return iter(self.events())

    def events(self) -> List[RuntimeEvent]:
        """A snapshot of the retained events, oldest first."""
        with self._lock:
            return list(self._events)


class EventBus:
    """Publish/subscribe hub for :class:`RuntimeEvent` streams.

    Every published event is first appended to the (optional, bounded)
    recorder, then handed to each subscriber in registration order.
    Subscribers are plain callables; :meth:`subscribe` returns an
    unsubscribe closure so scoped observation needs no bookkeeping.

    Each subscription is identified by a private token, not by the
    callable's equality: subscribing the same callable twice yields two
    registrations whose unsubscribers each remove exactly their own
    (historically, equality-based removal made the first token cancel
    the *other* registration).  Unsubscribing is idempotent.  Publish
    snapshots the subscriber list under the lock and invokes callbacks
    outside it, so a callback that unsubscribes mid-publish never makes
    another subscriber skip the event, and callbacks may re-enter the
    bus freely.
    """

    def __init__(self, recorder: Optional[RingBufferRecorder] = None) -> None:
        self.recorder = recorder
        self._lock = threading.Lock()
        #: Insertion-ordered token → subscriber map (dict preserves
        #: registration order for delivery).
        self._subscribers: Dict[int, Subscriber] = {}
        self._next_token = 0

    def subscribe(self, subscriber: Subscriber) -> Callable[[], None]:
        with self._lock:
            token = self._next_token
            self._next_token += 1
            self._subscribers[token] = subscriber

        def unsubscribe() -> None:
            with self._lock:
                self._subscribers.pop(token, None)

        return unsubscribe

    @property
    def subscriber_count(self) -> int:
        with self._lock:
            return len(self._subscribers)

    def publish(self, event: RuntimeEvent) -> None:
        if self.recorder is not None:
            self.recorder.record(event)
        with self._lock:
            subscribers = tuple(self._subscribers.values())
        for subscriber in subscribers:
            subscriber(event)

    def events(self) -> List[RuntimeEvent]:
        """The recorder's retained events (empty without a recorder)."""
        return self.recorder.events() if self.recorder is not None else []
