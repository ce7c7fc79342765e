"""Operations: the ``repro`` operator CLI and streaming metrics.

Everything an operator (or CI job) touches without writing Python:

* :mod:`repro.ops.metrics` — :class:`MetricsExporter`, an event-bus
  subscriber folding typed :class:`~repro.engine.events.RuntimeEvent`
  streams into named counters, gauges and a compile-latency histogram,
  in exact agreement with :meth:`Engine.stats`;
* :mod:`repro.ops.export` — the egress transports: a JSON-lines event
  sink per fleet worker and a stdlib HTTP endpoint serving the
  Prometheus text format on ``/metrics`` (JSON twin on
  ``/metrics.json``);
* :mod:`repro.ops.render` — ``--format table|csv|json`` rendering,
  stdlib only;
* :mod:`repro.ops.cli` — the ``repro`` click command: ``run``,
  ``inspect``, ``store list/export/import/gc``, ``fleet``, ``bench``,
  ``top``.
"""

from .export import JsonLinesSink, MetricsServer, read_events, serve_metrics
from .metrics import (
    DEFAULT_BUCKETS,
    STAT_COUNTERS,
    STAT_GAUGES,
    Counter,
    Gauge,
    Histogram,
    MetricsExporter,
    parse_prometheus,
    render_prometheus,
)
from .render import FORMATS, format_rows

__all__ = [
    "MetricsExporter",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "STAT_COUNTERS",
    "STAT_GAUGES",
    "render_prometheus",
    "parse_prometheus",
    "JsonLinesSink",
    "read_events",
    "MetricsServer",
    "serve_metrics",
    "FORMATS",
    "format_rows",
]
