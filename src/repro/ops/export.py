"""Event and metrics egress: JSON-lines sinks and the scrape endpoint.

Two transports move the typed event stream out of the process:

* :class:`JsonLinesSink` — a bus subscriber appending one
  :func:`~repro.engine.events.event_as_dict` object per line.  This is
  the fleet-worker transport: each worker writes its own file (no
  cross-process locking needed) and ``repro top --follow`` — or any
  :class:`~repro.engine.stats.StatsCollector` fed by
  :func:`read_events` — refolds it to the snapshot the live engine
  held.  :func:`observe_from_start` subscribes a sink to an engine that
  has already published (a warm start's ``VersionRestored`` events).
* :class:`MetricsServer` — a stdlib :class:`ThreadingHTTPServer`
  serving an exporter's Prometheus text format on ``/metrics`` and its
  JSON twin on ``/metrics.json``.  A scrape renders one snapshot of
  the engine's own fold; it never touches the engine's hot path.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import IO, Callable, Iterator, Optional, Union

from ..engine.events import RuntimeEvent, Subscriber, event_as_dict, event_from_dict
from .metrics import MetricsExporter

__all__ = [
    "JsonLinesSink",
    "read_events",
    "observe_from_start",
    "MetricsServer",
    "serve_metrics",
]


class JsonLinesSink:
    """A bus subscriber writing one JSON object per event line.

    Lines are flushed as they are written so a live ``tail -f`` (or
    ``repro top --follow``) sees events promptly; the per-sink lock
    keeps concurrently published events on separate lines.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: Optional[IO[str]] = self.path.open("a")
        self._lock = threading.Lock()

    def __call__(self, event: RuntimeEvent) -> None:
        line = json.dumps(event_as_dict(event), sort_keys=True)
        with self._lock:
            if self._handle is None:
                return
            self._handle.write(line + "\n")
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            handle, self._handle = self._handle, None
        if handle is not None:
            handle.close()

    def __enter__(self) -> "JsonLinesSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_events(
    path: Union[str, Path], *, start: int = 0
) -> Iterator[RuntimeEvent]:
    """Replay a JSON-lines sink as typed events, skipping ``start`` lines.

    Unknown kinds or fields raise (via
    :func:`~repro.engine.events.event_from_dict`): a stream a newer
    engine wrote must fail loudly, not fold half an event.
    """
    with Path(path).open() as handle:
        for index, line in enumerate(handle):
            if index < start or not line.strip():
                continue
            yield event_from_dict(json.loads(line))


def observe_from_start(engine, subscriber: Subscriber) -> Callable[[], None]:
    """Subscribe ``subscriber``, first handing it the events ``engine`` retains.

    :meth:`Engine.open` publishes a ``VersionRestored`` per hydrated
    function before any caller can subscribe; an event sink or tail
    printer attached the plain way would record a warm start as a cold
    one.  Call this while no call is in flight (the replay and the
    subscription are not atomic).  Returns the unsubscriber.
    """
    for event in engine.events:
        subscriber(event)
    return engine.subscribe(subscriber)


class _MetricsHandler(BaseHTTPRequestHandler):
    exporter: MetricsExporter  # installed by MetricsServer

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            body = self.exporter.render().encode()
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        elif path == "/metrics.json":
            body = self.exporter.render_json().encode()
            content_type = "application/json"
        else:
            self.send_error(404, "unknown path (serve /metrics or /metrics.json)")
            return
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # scrapes are high-frequency; stay silent on stderr


class MetricsServer:
    """A daemon-threaded HTTP scrape endpoint over one exporter."""

    def __init__(
        self,
        exporter: MetricsExporter,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        handler = type("_BoundMetricsHandler", (_MetricsHandler,), {"exporter": exporter})
        self._server = ThreadingHTTPServer((host, port), handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="repro-metrics", daemon=True
        )

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    def start(self) -> "MetricsServer":
        self._thread.start()
        return self

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread.is_alive():
            self._thread.join(timeout=5)

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()


def serve_metrics(
    exporter: MetricsExporter, host: str = "127.0.0.1", port: int = 0
) -> MetricsServer:
    """Start a scrape endpoint; ``port=0`` binds an ephemeral port."""
    return MetricsServer(exporter, host, port).start()
