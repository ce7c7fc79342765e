"""Scrape-ready renderings of the engine's one event fold.

:class:`MetricsExporter` holds no counts and subscribes to nothing.  It
renders one :class:`~repro.engine.stats.StatsSnapshot` — the state of
the :class:`~repro.engine.stats.StatsCollector` every
:class:`~repro.engine.facade.Engine` already feeds from its bus — as
Prometheus text (:meth:`MetricsExporter.render`) or JSON
(:meth:`MetricsExporter.render_json`).  Families are built at render
time from a single snapshot taken under the collector's lock, so a
scrape agrees with :meth:`Engine.stats` to the last increment and with
itself (per-reason guard failures sum to ``guard_failures``, tier-ups
to ``repro_events_total{kind="tier-up"}``) no matter when the exporter
was attached; attaching costs the engine nothing per event.

Two sources: :meth:`MetricsExporter.attach` reads a live engine (its
collector plus the ``calls`` gauge — warm calls emit no event, so the
call counter is read from the mechanism at scrape time), and
``MetricsExporter(collector)`` renders a bare collector an offline
replay fed (``repro top --follow``, :func:`~repro.ops.export.read_events`);
the ``repro_calls`` family is omitted there, no engine being behind it.
"""

from __future__ import annotations

import json
import re
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from ..engine.stats import DEFAULT_BUCKETS, LabelValues, StatsCollector, StatsSnapshot

__all__ = [
    "Family",
    "MetricsExporter",
    "STAT_COUNTERS",
    "STAT_GAUGES",
    "DEFAULT_BUCKETS",
    "render_prometheus",
    "parse_prometheus",
]


def _escape(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    # Prometheus accepts either; integers render without a trailing ".0"
    # so counter samples stay exact-looking in tests and dashboards.
    if float(value) == int(value):
        return str(int(value))
    return repr(float(value))


def _sample(name: str, labels: Sequence[str], values: LabelValues, value: float) -> str:
    pairs = ",".join(f'{label}="{_escape(each)}"' for label, each in zip(labels, values))
    return f"{name}{{{pairs}}} {_format_value(value)}"


class Family(NamedTuple):
    """One metric family of a scrape: immutable, built at render time."""

    name: str
    help: str
    kind: str  # "counter" | "gauge" | "histogram"
    samples: List[str]  # rendered sample lines


def _family(
    name: str,
    help: str,
    kind: str,
    labels: Tuple[str, ...],
    values: Mapping[LabelValues, float],
) -> Family:
    """A counter or gauge family; a counter serves only what has counted."""
    samples = [
        _sample(name, labels, key, value)
        for key, value in sorted(values.items())
        if value or kind == "gauge"
    ]
    return Family(name, help, kind, samples)


def _histogram(
    name: str,
    help: str,
    labels: Tuple[str, ...],
    values: Mapping[LabelValues, List],
) -> Family:
    """Prometheus ``_bucket`` (cumulative) / ``_sum`` / ``_count`` samples."""
    bucket, le = f"{name}_bucket", labels + ("le",)
    samples: List[str] = []
    for key, (buckets, total, count) in sorted(values.items()):
        cumulative = 0
        for bound, observed in zip(DEFAULT_BUCKETS, buckets):
            cumulative += observed
            samples.append(_sample(bucket, le, key + (_format_value(bound),), cumulative))
        samples.append(_sample(bucket, le, key + ("+Inf",), count))
        samples.append(_sample(f"{name}_sum", labels, key, total))
        samples.append(_sample(f"{name}_count", labels, key, count))
    return Family(name, help, "histogram", samples)


def _flat(values: Mapping[LabelValues, object]) -> Dict[str, object]:
    """``/metrics.json`` shape of one stream: label values joined by ``|``."""
    return {"|".join(labels): value for labels, value in sorted(values.items())}


def render_prometheus(families: Sequence[Family]) -> str:
    """Render metric families in the text exposition format (0.0.4)."""
    lines: List[str] = []
    for family in families:
        if family.samples:
            lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            lines.extend(family.samples)
    return "\n".join(lines) + ("\n" if lines else "")


#: One ``name="value"`` pair of a sample line; group 1 is the escaped value.
_LABEL = re.compile(r'\w+="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> Dict[str, Dict[LabelValues, float]]:
    """Parse text-format samples back into ``{name: {labelvalues: value}}``.

    A deliberately small inverse of :func:`render_prometheus` used by
    the scrape tests; label *names* are dropped (families here always
    label in a fixed, documented order).
    """
    out: Dict[str, Dict[LabelValues, float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        name, _, label_part = name_part.partition("{")
        labels = tuple(
            raw.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
            for raw in _LABEL.findall(label_part)
        )
        out.setdefault(name, {})[labels] = float(value_part)
    return out


#: ``EngineStats`` counter fields and the metric family each is served
#: as.  The values come straight from the shared fold, so each family
#: equals the corresponding :meth:`Engine.stats` field by construction.
STAT_COUNTERS: Tuple[Tuple[str, str, str], ...] = (
    ("osr_entries", "repro_osr_entries_total", "In-flight entries into optimized code (OSR-in)."),
    ("osr_exits", "repro_deopts_total", "Transfers back to the base tier (OSR-out)."),
    ("multiframe_deopts", "repro_multiframe_deopts_total", "Deopts that materialized an inlined virtual call stack."),
    ("invalidations", "repro_invalidations_total", "Versions discarded after refuted speculation."),
    ("dispatch_hits", "repro_dispatched_osr_total", "Repeated guard failures landed in f_base's compiled OSR entry stub."),
    ("dispatch_misses", "repro_dispatch_misses_total", "First guard failures per version, deoptimized into the profiled base tier."),
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
)


#: The labeled streams of a snapshot, in render order: snapshot field
#: (also the ``/metrics.json`` key), family name, help text, label names.
STREAMS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("tier_ups", "repro_tier_ups_total", "Optimized versions built and installed in this process.", ("function", "key")),
    ("versions_restored", "repro_versions_restored_total", "Compiled versions re-installed from an artifact store.", ("function",)),
    ("guard_failures", "repro_guard_failures_total", "Speculation guards fired in optimized code, by reason.", ("function", "reason")),
    ("speculation_rejected", "repro_speculation_rejected_total", "Speculative builds discarded for lacking a deopt plan.", ("function",)),
    ("osr_entries_rejected", "repro_osr_entries_rejected_total", "Mid-flight OSR entries refused by a dominating guard.", ("function",)),
)


class MetricsExporter:
    """Renders the engine's event fold as scrape-ready metrics.

    :meth:`render` serves the Prometheus text format and :meth:`as_dict`
    the JSON twin, each from one snapshot.  The exporter keeps no
    counters of its own: thread safety and exactness are the
    collector's (one lock, every event folded exactly once).
    """

    def __init__(self, collector: Optional[StatsCollector] = None) -> None:
        self._collector = collector
        self._engine = None

    def attach(self, engine) -> Callable[[], None]:
        """Render ``engine``'s own fold and its live ``calls`` gauge.

        Nothing is subscribed: whatever the engine has folded so far —
        including the ``VersionRestored`` events of a warm start — is
        served from the first scrape.  Returns a detacher (also invoked
        by :meth:`close`).  One exporter observes one engine; attach a
        fresh exporter per engine, the way the CLI does.
        """
        if self._engine is not None:
            raise RuntimeError("exporter is already attached to an engine")
        self._engine = engine
        return self.close

    def close(self) -> None:
        self._engine = None

    def _read(self) -> Tuple[StatsSnapshot, bool]:
        """The one snapshot a view is built from, and whether it is live."""
        engine = self._engine  # read once: close() may race a scrape
        if engine is not None:
            return engine.stats_snapshot(), True
        if self._collector is not None:
            return self._collector.snapshot(), False
        return StatsSnapshot(), False

    def families(self) -> List[Family]:
        """Every family, materialized fresh from one snapshot."""
        snapshot, live = self._read()
        gauges = STAT_GAUGES
        if live:
            gauges = (("calls", "repro_calls", "Calls served (live engine gauge)."),) + gauges
        families = [
            _family(
                metric,
                help_text,
                kind,
                ("function",),
                {(name,): record[field] for name, record in snapshot.records.items()},
            )
            for kind, table in (("gauge", gauges), ("counter", STAT_COUNTERS))
            for field, metric, help_text in table
        ]
        families += [
            _family(metric, help_text, "counter", labels, getattr(snapshot, field))
            for field, metric, help_text, labels in STREAMS
        ]
        families.append(
            _histogram(
                "repro_compile_seconds",
                "Wall-clock build latency of optimized versions.",
                ("function",),
                snapshot.compile_seconds,
            )
        )
        families.append(
            _family(
                "repro_events_total",
                "Runtime events published, by kind.",
                "counter",
                ("kind",),
                snapshot.events,
            )
        )
        return families

    def render(self) -> str:
        """The Prometheus text exposition (0.0.4) of every family."""
        return render_prometheus(self.families())

    def as_dict(self) -> Dict[str, object]:
        """A JSON-ready twin of :meth:`render` for ``/metrics.json``."""
        snapshot, _ = self._read()
        out: Dict[str, object] = {
            field: _flat(getattr(snapshot, field)) for field, _, _, _ in STREAMS
        }
        out["events"] = _flat(snapshot.events)
        out["functions"] = dict(sorted(snapshot.records.items()))
        out["compile_seconds"] = _flat(
            {
                labels: {"count": count, "sum": total}
                for labels, (_, total, count) in snapshot.compile_seconds.items()
            }
        )
        return out

    def render_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)
