"""``python benchmarks/e2e/run.py`` — the repo's end-to-end benchmark.

    run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]

Runs one workload (or, without ``--workload``, each of the five in its
own child process), checks every op's value against an independent
reference, prints every metric by name with its unit, and ends with one
JSON line ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones, measured by replaying ops stage by stage through
the layers' public functions under an in-memory span tracer that is
written to ``trace-<workload>.json`` when the run ends.  See README.md.
"""

from __future__ import annotations

import _bootstrap  # noqa: F401  (must precede the repro imports)

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import workloads
from measure import Tracer, geomean, median, percentile
from workloads import Samples, Workload

HERE = Path(__file__).resolve().parent
DEFAULT_OUT = HERE / "out"
WORKLOAD_NAMES = ("steady_loops", "steady_calls", "cold_start", "phase_shift", "warm_restart")

#: Set-up is repeated in the run and its median reported, so one slow
#: import or page-cache miss does not read as a set-up regression.
SETUP_REPEATS = 3

#: End-to-end metrics: name -> unit.  BENCHMARK.json fixes their bounds.
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_us_geomean": "us",
    "vs_native_geomean": "ratio",
    "op_us_p50": "us",
    "op_us_p90": "us",
    "peak_rss_mb": "MiB",
}


def _import_seconds() -> float:
    """Median time a fresh interpreter needs to import the benchmark and the engine."""
    probe = (
        "import time; t = time.perf_counter(); import workloads; "
        "print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", probe], cwd=HERE, capture_output=True, text=True, check=True
        )
        times.append(float(done.stdout.strip()))
    return median(times)


def timed_setup(name: str, seed: int, scratch: Path, tiny: bool) -> tuple:
    """Set the workload up ``SETUP_REPEATS`` times; keep the last, report the median."""
    times = []
    workload: Optional[Workload] = None
    for _ in range(1 if tiny else SETUP_REPEATS):
        if workload is not None:
            workload.teardown()
        workload = workloads.make_workload(name, seed, scratch, tiny=tiny)
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)
    return workload, median(times)


def centers(workload: Workload, samples: Samples) -> Dict[str, float]:
    """Each kernel's central op time, ns: its median, or its mean on a workload
    whose cost sits in rare slow ops (``phase_shift``: the transitions)."""
    if workload.center == "mean":
        return {k: sum(v) / len(v) for k, v in samples.engine.items() if v}
    return {k: median(v) for k, v in samples.engine.items() if v}


def end_to_end_metrics(workload: Workload, samples: Samples, setup_s: float) -> Dict[str, float]:
    """Every end-to-end statistic is a function of the per-kernel central op
    times, so one noisy burst or one long-tailed kernel cannot move it."""
    center = centers(workload, samples)
    counts = {name: len(samples.engine[name]) for name in center}
    busy_ns = sum(counts[name] * center[name] for name in center)
    ratios = [
        center[name] / median(times)
        for name, times in samples.native.items()
        if times and name in center
    ]
    return {
        "setup_s": setup_s,
        "ops_per_s": sum(counts.values()) / (busy_ns / 1e9) if busy_ns else 0.0,
        "op_us_geomean": geomean(center.values()) / 1e3,
        "vs_native_geomean": geomean(ratios),
        "op_us_p50": percentile(center.values(), 50) / 1e3,
        "op_us_p90": percentile(center.values(), 90) / 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def extra_metrics(samples: Samples) -> Dict[str, tuple]:
    """Named numbers printed beside the contract's metrics (value, unit)."""
    flat = [t for times in samples.engine.values() for t in times]
    out = {
        "error_rate": (samples.failed / samples.attempted if samples.attempted else 1.0, "ratio"),
        "samples": (float(len(flat)), "count"),
        "ops_per_sample": (float(samples.batch), "count"),
        # Over single samples, all kernels pooled: what one caller sees.
        "sample_us_p50": (percentile(flat, 50) / 1e3, "us"),
        "sample_us_p90": (percentile(flat, 90) / 1e3, "us"),
        "sample_us_p99": (percentile(flat, 99) / 1e3, "us"),
        "sample_us_p999": (percentile(flat, 99.9) / 1e3, "us"),
    }
    for part in ("first_result", "save"):
        times = samples.parts.get(part)
        if times:
            out[f"{part}_ms_p50"] = (median(times) / 1e6, "ms")
            out[f"{part}_ms_p90"] = (percentile(times, 90) / 1e6, "ms")
    return out


def kernel_rows(samples: Samples) -> Dict[str, Dict[str, float]]:
    """Each program in its own row: engine and twin median op time, sample count."""
    rows = {}
    for name, times in samples.engine.items():
        twin = samples.native.get(name)
        rows[name] = {
            "engine_us_p50": median(times) / 1e3,
            "native_us_p50": median(twin) / 1e3 if twin else 0.0,
            "samples": len(times),
        }
    return rows


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    *,
    trace: bool = False,
    out_dir: Path = DEFAULT_OUT,
    tiny: bool = False,
    hash_seed_check: bool = True,
) -> Dict[str, object]:
    """Run one workload; returns the result record (also written under ``out_dir``)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    import_s = 0.0 if tiny else _import_seconds()
    workload, setup_median = timed_setup(name, seed, out_dir, tiny)
    setup_s = import_s + setup_median
    try:
        if trace:
            import layers

            tracer = Tracer()
            metrics, units, samples = layers.trace_workload(
                workload, seconds, tracer, hash_seed_check=hash_seed_check
            )
            tracer.write(out_dir / f"trace-{name}.json")
            extras: Dict[str, tuple] = {"spans": (float(len(tracer.spans)), "count")}
        else:
            samples = workload.measure(seconds)
            metrics = end_to_end_metrics(workload, samples, setup_s)
            units = END_TO_END_UNITS
            extras = extra_metrics(samples)
    finally:
        workload.teardown()
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": samples.failed == 0 and samples.attempted > 0,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": {
            key: {"value": float(value), "unit": units[key]} for key, value in metrics.items()
        },
        "extra": {key: {"value": value, "unit": unit} for key, (value, unit) in extras.items()},
        "kernels": kernel_rows(samples),
    }
    stamp = f"{'trace' if trace else 'e2e'}-{name}-seed{seed}-{time.time_ns()}"
    (out_dir / f"run-{stamp}.json").write_text(json.dumps(record, indent=1))
    return record


def print_record(record: Dict[str, object]) -> None:
    """Every metric by name with its unit, then the contract's JSON line."""
    print(f"# {record['workload']} seed={record['seed']} seconds={record['seconds']} "
          f"trace={record['trace']}")
    for section in ("metrics", "extra"):
        for key, item in record[section].items():
            print(f"{key:40s} {item['value']:>16.6g} {item['unit']}")
    print(f"{'attempted':40s} {record['attempted']:>16d} count")
    print(f"{'failed':40s} {record['failed']:>16d} count")
    last = {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(last))


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in its own child process (so peak RSS is per workload)."""
    status = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", str(args.out)]
        status = max(status, subprocess.run(command).returncode)
    return status


def _default_seconds() -> float:
    manifest = _bootstrap.ROOT / "BENCHMARK.json"
    if manifest.is_file():
        return float(json.loads(manifest.read_text())["run_seconds"])
    return 12.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement window per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="1: the traced per-layer run; 0: the end-to-end run")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="directory for run records and trace files")
    parser.add_argument("--counters-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = _default_seconds()
    if args.workload is None:
        return _run_all(args)
    if args.counters_only:
        import layers

        args.out.mkdir(parents=True, exist_ok=True)
        print(json.dumps(layers.counters_for(args.workload, args.seed, args.out)))
        return 0
    record = run_workload(
        args.workload, args.seed, args.seconds, trace=bool(args.trace), out_dir=args.out
    )
    print_record(record)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
