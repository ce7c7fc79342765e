"""Streaming metrics folded from the engine's typed event bus.

:class:`MetricsExporter` is an :class:`~repro.engine.events.EventBus`
subscriber: every published :class:`~repro.engine.events.RuntimeEvent`
is folded *once*, as it happens, into named counters, gauges and one
latency histogram.  The exporter never polls the engine — warm
steady-state calls publish no events and therefore cost nothing, which
is what keeps the ``subscribed_vs_plain`` overhead gate honest.

Exactness is load-bearing: the per-function transition counters the
exporter serves are *the same fold* the engine's own
:class:`~repro.engine.stats.StatsCollector` performs (the exporter
embeds one), so a Prometheus scrape agrees with
:meth:`Engine.stats` to the last increment.  On top of that shared
fold the exporter keeps the streams only operators want — guard
failures by reason, tier-ups by version key, event totals by kind, and
a compile-latency histogram fed by ``TierUp.compile_seconds``.

``calls`` is deliberately a scrape-time gauge: warm calls emit no
event, so the exporter reads the live call counter from an
:meth:`attach`-ed engine when rendering (and omits the family when it
is fed from a replayed stream with no engine behind it).
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..engine.events import (
    GuardFailed,
    OSREntryRejected,
    RuntimeEvent,
    SpeculationRejected,
    TierUp,
    VersionRestored,
)
from ..engine.stats import EngineStats, StatsCollector

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsExporter",
    "STAT_COUNTERS",
    "STAT_GAUGES",
    "DEFAULT_BUCKETS",
    "render_prometheus",
    "parse_prometheus",
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

LabelValues = Tuple[str, ...]


def _escape(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(names: Sequence[str], values: LabelValues) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{name}="{_escape(value)}"' for name, value in zip(names, values)
    )
    return "{" + pairs + "}"


def _format_value(value: float) -> str:
    # Prometheus accepts either; integers render without a trailing ".0"
    # so counter samples stay exact-looking in tests and dashboards.
    if float(value) == int(value):
        return str(int(value))
    return repr(float(value))


class Counter:
    """A monotonically increasing, labeled metric family."""

    kind = "counter"

    def __init__(self, name: str, help: str, labels: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help
        self.labels = tuple(labels)
        self._values: Dict[LabelValues, float] = {}
        self._lock = threading.Lock()

    def inc(self, labels: LabelValues = (), amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        with self._lock:
            self._values[labels] = self._values.get(labels, 0) + amount

    def value(self, labels: LabelValues = ()) -> float:
        with self._lock:
            return self._values.get(labels, 0)

    def samples(self) -> List[Tuple[str, LabelValues, float]]:
        with self._lock:
            return [
                (self.name, labels, value)
                for labels, value in sorted(self._values.items())
            ]

    def as_dict(self) -> Dict[str, float]:
        with self._lock:
            return {
                "|".join(labels) if labels else "": value
                for labels, value in sorted(self._values.items())
            }


class Gauge(Counter):
    """A labeled metric family that may move in both directions."""

    kind = "gauge"

    def set(self, labels: LabelValues, value: float) -> None:
        with self._lock:
            self._values[labels] = value

    def inc(self, labels: LabelValues = (), amount: float = 1) -> None:
        with self._lock:
            self._values[labels] = self._values.get(labels, 0) + amount

    def dec(self, labels: LabelValues = (), amount: float = 1) -> None:
        self.inc(labels, -amount)


class Histogram:
    """A labeled cumulative histogram (Prometheus ``_bucket``/``_sum``/``_count``)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.help = help
        self.labels = tuple(labels)
        self.buckets = tuple(sorted(buckets))
        self._counts: Dict[LabelValues, List[int]] = {}
        self._sums: Dict[LabelValues, float] = {}
        self._totals: Dict[LabelValues, int] = {}
        self._lock = threading.Lock()

    def observe(self, labels: LabelValues, value: float) -> None:
        with self._lock:
            counts = self._counts.setdefault(labels, [0] * len(self.buckets))
            index = bisect_left(self.buckets, value)
            if index < len(counts):
                counts[index] += 1
            self._sums[labels] = self._sums.get(labels, 0.0) + value
            self._totals[labels] = self._totals.get(labels, 0) + 1

    def samples(self) -> List[Tuple[str, LabelValues, float]]:
        out: List[Tuple[str, LabelValues, float]] = []
        with self._lock:
            for labels in sorted(self._counts):
                cumulative = 0
                for bound, count in zip(self.buckets, self._counts[labels]):
                    cumulative += count
                    out.append(
                        (
                            f"{self.name}_bucket",
                            labels + (_format_value(bound),),
                            cumulative,
                        )
                    )
                out.append(
                    (f"{self.name}_bucket", labels + ("+Inf",), self._totals[labels])
                )
                out.append((f"{self.name}_sum", labels, self._sums[labels]))
                out.append((f"{self.name}_count", labels, self._totals[labels]))
        return out

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {
                "|".join(labels) if labels else "": {
                    "count": self._totals[labels],
                    "sum": self._sums[labels],
                }
                for labels in sorted(self._totals)
            }


def render_prometheus(families: Sequence[object]) -> str:
    """Render metric families in the text exposition format (0.0.4)."""
    lines: List[str] = []
    for family in families:
        samples = family.samples()
        if not samples:
            continue
        lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        label_names = family.labels
        for sample_name, label_values, value in samples:
            names = label_names
            if sample_name.endswith("_bucket"):
                names = label_names + ("le",)
            elif len(label_values) < len(label_names):
                names = label_names[: len(label_values)]
            lines.append(
                f"{sample_name}{_render_labels(names, label_values)}"
                f" {_format_value(value)}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


def parse_prometheus(text: str) -> Dict[str, Dict[LabelValues, float]]:
    """Parse text-format samples back into ``{name: {labelvalues: value}}``.

    A deliberately small inverse of :func:`render_prometheus` used by
    the scrape tests and ``repro top --url``; label *names* are dropped
    (families here always label in a fixed, documented order).
    """
    out: Dict[str, Dict[LabelValues, float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        if "{" in name_part:
            name, _, label_part = name_part.partition("{")
            label_part = label_part.rstrip("}")
            values: List[str] = []
            for chunk in _split_labels(label_part):
                _, _, raw = chunk.partition("=")
                raw = raw.strip()[1:-1]
                values.append(
                    raw.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
                )
            labels = tuple(values)
        else:
            name, labels = name_part, ()
        out.setdefault(name, {})[labels] = float(value_part)
    return out


def _split_labels(label_part: str) -> List[str]:
    chunks: List[str] = []
    current = []
    in_quotes = False
    escaped = False
    for char in label_part:
        if escaped:
            current.append(char)
            escaped = False
        elif char == "\\":
            current.append(char)
            escaped = True
        elif char == '"':
            current.append(char)
            in_quotes = not in_quotes
        elif char == "," and not in_quotes:
            chunks.append("".join(current))
            current = []
        else:
            current.append(char)
    if current:
        chunks.append("".join(current))
    return chunks


#: ``EngineStats`` counter fields and the metric family each is served
#: as.  The values come straight from the shared fold, so each family
#: equals the corresponding :meth:`Engine.stats` field by construction.
STAT_COUNTERS: Tuple[Tuple[str, str, str], ...] = (
    ("osr_entries", "repro_osr_entries_total", "In-flight entries into optimized code (OSR-in)."),
    ("osr_exits", "repro_deopts_total", "Transfers back to the base tier (OSR-out)."),
    ("multiframe_deopts", "repro_multiframe_deopts_total", "Deopts that materialized an inlined virtual call stack."),
    ("invalidations", "repro_invalidations_total", "Versions discarded after refuted speculation."),
    ("dispatch_hits", "repro_dispatched_osr_total", "Guard failures served by a cached continuation."),
    ("dispatch_misses", "repro_dispatch_misses_total", "Guard-failure deopts that missed the continuation cache."),
    ("versions_added", "repro_version_adds_total", "Versions that joined a function's multiverse."),
    ("versions_retired", "repro_version_retirements_total", "Cold versions evicted to honour max_versions."),
    ("entry_dispatches", "repro_entry_dispatches_total", "Calls dispatched among specialized versions."),
)

#: ``EngineStats`` gauge fields (current mechanism state, not counts).
STAT_GAUGES: Tuple[Tuple[str, str, str], ...] = (
    ("compiled", "repro_compiled", "Whether an optimized version is installed (0/1)."),
    ("speculative", "repro_speculative", "Whether the installed version speculates (0/1)."),
    ("guards", "repro_guards", "Guards in the installed version."),
    ("inlined_frames", "repro_inlined_frames", "Inlined frames in the installed version."),
    ("versions", "repro_versions", "Live versions in the function's multiverse."),
    ("continuations", "repro_continuations", "Cached deopt continuations."),
)


class MetricsExporter:
    """Folds the typed event stream into scrape-ready metrics.

    Subscribe it to a bus (or let :meth:`attach` do it) and every event
    is counted exactly once; :meth:`render` serves the Prometheus text
    format and :meth:`as_dict` the JSON twin.  Thread-safe: the embedded
    :class:`StatsCollector` and each family serialize their own updates,
    so concurrent publishers (request threads, the background compile
    worker) never lose an increment.
    """

    def __init__(self) -> None:
        self._collector = StatsCollector()
        self._engine = None
        self._unsubscribe: Optional[Callable[[], None]] = None
        self._lock = threading.Lock()
        # Own-fold families: streams EngineStats does not keep.
        self.tier_ups = Counter(
            "repro_tier_ups_total",
            "Optimized versions built and installed in this process.",
            ("function", "key"),
        )
        self.versions_restored = Counter(
            "repro_versions_restored_total",
            "Compiled versions re-installed from an artifact store.",
            ("function",),
        )
        self.guard_failures = Counter(
            "repro_guard_failures_total",
            "Speculation guards fired in optimized code, by reason.",
            ("function", "reason"),
        )
        self.speculation_rejected = Counter(
            "repro_speculation_rejected_total",
            "Speculative builds discarded for lacking a deopt plan.",
            ("function",),
        )
        self.osr_entries_rejected = Counter(
            "repro_osr_entries_rejected_total",
            "Mid-flight OSR entries refused by a dominating guard.",
            ("function",),
        )
        self.events_total = Counter(
            "repro_events_total",
            "Runtime events published, by kind.",
            ("kind",),
        )
        self.compile_seconds = Histogram(
            "repro_compile_seconds",
            "Wall-clock build latency of optimized versions.",
            ("function",),
        )

    # ------------------------------------------------------------------ #
    # The fold.
    # ------------------------------------------------------------------ #
    def __call__(self, event: RuntimeEvent) -> None:
        self._collector(event)
        self.events_total.inc((event.kind,))
        if isinstance(event, TierUp):
            self.tier_ups.inc((event.function, event.key))
            self.compile_seconds.observe((event.function,), event.compile_seconds)
        elif isinstance(event, VersionRestored):
            self.versions_restored.inc((event.function,))
        elif isinstance(event, GuardFailed):
            self.guard_failures.inc((event.function, event.reason or "unknown"))
        elif isinstance(event, SpeculationRejected):
            self.speculation_rejected.inc((event.function,))
        elif isinstance(event, OSREntryRejected):
            self.osr_entries_rejected.inc((event.function,))

    # ------------------------------------------------------------------ #
    # Engine wiring.
    # ------------------------------------------------------------------ #
    def attach(self, engine) -> Callable[[], None]:
        """Subscribe to ``engine`` and serve its live ``calls`` gauge.

        Returns an unsubscriber (also invoked by :meth:`close`).  One
        exporter observes one engine; attach a fresh exporter per
        engine, the way the CLI does.
        """
        with self._lock:
            if self._engine is not None:
                raise RuntimeError("exporter is already attached to an engine")
            self._engine = engine
            self._unsubscribe = engine.subscribe(self)
        return self.close

    def close(self) -> None:
        with self._lock:
            unsubscribe, self._unsubscribe = self._unsubscribe, None
            self._engine = None
        if unsubscribe is not None:
            unsubscribe()

    # ------------------------------------------------------------------ #
    # Views.
    # ------------------------------------------------------------------ #
    def stats(self, name: str) -> EngineStats:
        """The per-function fold (``calls`` filled from an attached engine)."""
        return self.stats_all().get(name, EngineStats())

    def stats_all(self) -> Dict[str, EngineStats]:
        with self._lock:
            engine = self._engine
        if engine is not None:
            return engine.stats_all()
        return self._collector.functions()

    def families(self) -> List[object]:
        """Every family, stats-mirror gauges/counters materialized fresh."""
        stats = self.stats_all()
        with self._lock:
            engine = self._engine
        families: List[object] = []
        if engine is not None:
            calls = Gauge(
                "repro_calls", "Calls served (live engine gauge).", ("function",)
            )
            for name, per_function in sorted(stats.items()):
                calls.set((name,), per_function.calls)
            families.append(calls)
        for field, metric, help_text in STAT_GAUGES:
            gauge = Gauge(metric, help_text, ("function",))
            for name, per_function in sorted(stats.items()):
                gauge.set((name,), getattr(per_function, field))
            families.append(gauge)
        for field, metric, help_text in STAT_COUNTERS:
            counter = Counter(metric, help_text, ("function",))
            for name, per_function in sorted(stats.items()):
                value = getattr(per_function, field)
                if value:
                    counter.inc((name,), value)
            families.append(counter)
        families.extend(
            [
                self.tier_ups,
                self.versions_restored,
                self.guard_failures,
                self.speculation_rejected,
                self.osr_entries_rejected,
                self.compile_seconds,
                self.events_total,
            ]
        )
        return families

    def render(self) -> str:
        """The Prometheus text exposition (0.0.4) of every family."""
        return render_prometheus(self.families())

    def as_dict(self) -> Dict[str, object]:
        """A JSON-ready twin of :meth:`render` for ``/metrics.json``."""
        return {
            "functions": {
                name: stats.as_dict()
                for name, stats in sorted(self.stats_all().items())
            },
            "tier_ups": self.tier_ups.as_dict(),
            "versions_restored": self.versions_restored.as_dict(),
            "guard_failures": self.guard_failures.as_dict(),
            "speculation_rejected": self.speculation_rejected.as_dict(),
            "osr_entries_rejected": self.osr_entries_rejected.as_dict(),
            "events": self.events_total.as_dict(),
            "compile_seconds": self.compile_seconds.as_dict(),
        }

    def render_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)
