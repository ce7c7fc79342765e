"""The measurement core: order statistics, the op timer and the span tracer.

Everything here is plain data handling — no ``repro`` import — so the
A/B tool (``compare.py``) and the tests can use it without the program
under test.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Sequence

__all__ = [
    "median",
    "percentile",
    "quartiles",
    "geomean",
    "add_counts",
    "timer_cost_ns",
    "Tracer",
]


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0–100) by linear interpolation; 0.0 when empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Iterable[float]) -> float:
    return percentile(values, 50.0)


def quartiles(values: Sequence[float]) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0]) if values else 0.0
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of the positive entries; 0.0 when there are none."""
    logs = [math.log(v) for v in values if v > 0]
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


def add_counts(into: Dict[str, int], counts: Mapping[str, int]) -> None:
    """``into[key] += counts[key]`` for every key."""
    for key, value in counts.items():
        into[key] = into.get(key, 0) + value


def timer_cost_ns(samples: int = 2000) -> float:
    """Median cost of one ``perf_counter_ns`` pair, in ns (the timer's own share)."""
    clock = time.perf_counter_ns
    costs = []
    for _ in range(samples):
        start = clock()
        costs.append(clock() - start)
    return median(costs)


class Tracer:
    """In-memory spans: ``(name, start_ns, end_ns, parent, op_id)``.

    Spans are recorded by the harness around each call into a layer and
    written out once, when the benchmark ends.  ``parent`` is the index
    of the enclosing span (``-1`` for an op's root span); all spans of
    one op share its ``op_id``.
    """

    def __init__(self) -> None:
        self.spans: List[List[object]] = []
        self._stack: List[int] = []
        self._op_id = -1

    @contextmanager
    def op(self, name: str) -> Iterator[int]:
        """Open the root span of a new op; yields the op id."""
        self._op_id += 1
        assert not self._stack, "ops do not nest"
        with self.span(name):
            yield self._op_id

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record: List[object] = [name, 0, 0, parent, self._op_id]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter_ns()
        try:
            yield index
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def record(self, name: str, start_ns: int, end_ns: int) -> None:
        """Add a span the caller timed itself (no tracer code inside the interval)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start_ns, end_ns, parent, self._op_id])

    def call(self, span_name: str, fn: Callable, /, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span named ``span_name``."""
        with self.span(span_name):
            return fn(*args, **kwargs)

    def write(self, path: Path) -> None:
        """Write every span as one JSON file."""
        payload = {
            "fields": ["name", "start_ns", "end_ns", "parent", "op_id"],
            "spans": self.spans,
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))
