"""Operations: the ``repro`` operator CLI and streaming metrics.

Everything an operator (or CI job) touches without writing Python:

* :mod:`repro.ops.metrics` — :class:`MetricsExporter`, a renderer of
  the engine's one event fold
  (:class:`~repro.engine.stats.StatsCollector`) as named counters,
  gauges and a compile-latency histogram — it subscribes to nothing and
  counts nothing, so it agrees with :meth:`Engine.stats` by construction;
* :mod:`repro.ops.export` — the egress transports: a JSON-lines event
  sink (:func:`observe_from_start` hands a late observer the events it
  missed) and a stdlib HTTP endpoint serving the Prometheus text format
  on ``/metrics`` (JSON twin on ``/metrics.json``);
* :mod:`repro.ops.render` — ``--format table|csv|json`` rendering,
  stdlib only;
* :mod:`repro.ops.cli` — the ``repro`` click command: ``run``,
  ``inspect``, ``store list/export/import/gc``, ``bench``, ``top``.
"""

from .export import (
    JsonLinesSink,
    MetricsServer,
    observe_from_start,
    read_events,
    serve_metrics,
)
from .metrics import (
    DEFAULT_BUCKETS,
    STAT_COUNTERS,
    STAT_GAUGES,
    Family,
    MetricsExporter,
    parse_prometheus,
    render_prometheus,
)
from .render import FORMATS, format_rows

__all__ = [
    "MetricsExporter",
    "Family",
    "DEFAULT_BUCKETS",
    "STAT_COUNTERS",
    "STAT_GAUGES",
    "render_prometheus",
    "parse_prometheus",
    "JsonLinesSink",
    "read_events",
    "observe_from_start",
    "MetricsServer",
    "serve_metrics",
    "FORMATS",
    "format_rows",
]
