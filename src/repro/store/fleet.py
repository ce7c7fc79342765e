"""A warm-start worker fleet sharing one artifact store.

The multi-process serving mode from the persistence design: ``N``
worker processes each open an :class:`~repro.engine.facade.Engine`
against the same :class:`~repro.store.persist.ArtifactStore`, hydrate
whatever compiled tiers and profiles the store already holds, serve
their slice of the call stream, and periodically **merge-and-republish**
— :meth:`Engine.save` folds each worker's locally accumulated profile
histograms into the shared entries under per-entry file locks, so the
store converges toward the union of every worker's observations.

A fresh store means every worker warms up from scratch (and the last
publisher's compiled tiers seed the next run); a populated store means
workers serve their very first call from the compiled tier with zero
``TierUp`` events.  :class:`WorkerReport` carries per-worker evidence of
exactly that distinction back to the coordinator.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..engine.config import EngineConfig

__all__ = ["WorkerReport", "run_fleet"]

#: One serving request: ``(function_name, args)``.
Call = Tuple[str, Sequence[int]]


@dataclass(frozen=True)
class WorkerReport:
    """What one fleet worker did, returned to the coordinator."""

    worker: int
    calls: int
    restored: Tuple[str, ...]
    tier_ups: int
    results: Tuple[object, ...]
    #: Final per-function :meth:`Engine.stats` fold (``as_dict`` shape),
    #: captured just before the worker's engine closes — the coordinator
    #: (and ``repro fleet``) renders it without re-opening any store.
    stats: Dict[str, Dict[str, int]] = field(default_factory=dict)


def _fleet_worker(
    index: int,
    source: str,
    store_root: str,
    config: Optional[EngineConfig],
    calls: Sequence[Call],
    sync_every: int,
    events_dir: Optional[str],
    queue: "multiprocessing.Queue",
) -> None:
    # Imported here, not at module top: the worker entry point must stay
    # importable under spawn without dragging the full engine (and its
    # backend probes) into the parent's import of this module.
    from ..engine.facade import Engine
    from ..ops.export import JsonLinesSink, observe_from_start

    sink: Optional[JsonLinesSink] = None
    try:
        with Engine.open(source, store=store_root, config=config) as engine:
            if events_dir is not None:
                # One file per worker: sinks never contend across
                # processes, and ``repro top --follow`` tails any of them
                # (hydration's VersionRestored events included).
                sink = JsonLinesSink(Path(events_dir) / f"worker-{index}.jsonl")
                observe_from_start(engine, sink)
            restored = tuple(engine.restored_functions)
            results: List[object] = []
            for position, (name, args) in enumerate(calls, start=1):
                results.append(engine.call(name, list(args)).value)
                if sync_every and position % sync_every == 0:
                    engine.save(store_root)
            engine.save(store_root)
            snapshot = engine.stats_snapshot()
        queue.put(
            WorkerReport(
                worker=index,
                calls=len(calls),
                restored=restored,
                tier_ups=sum(snapshot.tier_ups.values()),
                results=tuple(results),
                stats=snapshot.records,
            )
        )
    except BaseException as exc:  # surface the failure, don't hang the join
        queue.put((index, f"{type(exc).__name__}: {exc}"))
    finally:
        if sink is not None:
            sink.close()


def run_fleet(
    source: str,
    store: Union[str, Path],
    calls: Sequence[Call],
    *,
    workers: int = 2,
    sync_every: int = 0,
    config: Optional[EngineConfig] = None,
    timeout: float = 120.0,
    events_dir: Optional[Union[str, Path]] = None,
) -> List[WorkerReport]:
    """Serve ``calls`` across ``workers`` processes sharing ``store``.

    The call stream is dealt round-robin (worker ``i`` serves
    ``calls[i::workers]``); with ``sync_every > 0`` each worker
    republishes its merged profile every that many calls, in addition to
    the final save each worker always performs.  With ``events_dir``
    each worker streams its typed events to
    ``<events_dir>/worker-<i>.jsonl`` as they happen.  Raises
    ``RuntimeError`` if any worker dies, with the worker's own error
    message.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    store_root = str(store)
    context = multiprocessing.get_context()
    queue: "multiprocessing.Queue" = context.Queue()
    processes = []
    for index in range(workers):
        process = context.Process(
            target=_fleet_worker,
            args=(
                index,
                source,
                store_root,
                config,
                list(calls[index::workers]),
                sync_every,
                None if events_dir is None else str(events_dir),
                queue,
            ),
            daemon=True,
        )
        process.start()
        processes.append(process)
    reports: List[WorkerReport] = []
    failures: List[str] = []
    for _ in processes:
        outcome = queue.get(timeout=timeout)
        if isinstance(outcome, WorkerReport):
            reports.append(outcome)
        else:
            index, message = outcome
            failures.append(f"worker {index}: {message}")
    for process in processes:
        process.join(timeout=timeout)
    if failures:
        raise RuntimeError("fleet worker(s) failed: " + "; ".join(failures))
    return sorted(reports, key=lambda report: report.worker)
