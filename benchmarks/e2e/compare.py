"""``python benchmarks/e2e/compare.py A/ B/`` — paired A/B over run records.

``A`` and ``B`` are ``--out`` directories of ``run.py`` (``A`` is the
base: the parent commit, or the first acceptance set).  For every
(workload, end-to-end metric) the tool prints each side's median and
quartiles over its runs, the ratio ``B/A`` with its base, and a verdict
against the bound ``BENCHMARK.json`` fixes for that metric:

* ``unresolved`` — a side's run-to-run spread (interquartile distance as
  a share of its median) exceeds the bound, so the bound cannot be
  checked (``setup_s`` is exempt, as in the driver: a run already
  reports the median of several set-ups, and one cold import in three
  runs is not a property of the code);
* ``regressed`` — ``B``'s median is worse than ``A``'s by more than the bound;
* ``ok`` — otherwise.

One row per workload and metric; a combined score is never printed.
``--layers`` adds the per-layer metrics of traced runs (ratio only: they
have no bound).  Exit code 1 when any row is ``regressed`` or
``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from measure import quartiles

ROOT = Path(__file__).resolve().parents[2]

Runs = Dict[Tuple[str, str], List[float]]


def load_runs(directory: Path, *, trace: int) -> Runs:
    """``(workload, metric) -> values`` over the run records in ``directory``."""
    runs: Runs = {}
    for path in sorted(directory.glob("run-*.json")):
        record = json.loads(path.read_text())
        if record["trace"] != trace:
            continue
        for metric, item in record["metrics"].items():
            runs.setdefault((record["workload"], metric), []).append(item["value"])
    return runs


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def verdict(
    base: List[float], other: List[float], better: str, bound: float, *, check_spread: bool = True
) -> str:
    if check_spread and max(spread(base), spread(other)) > bound:
        return "unresolved"
    base_median, other_median = quartiles(base)[1], quartiles(other)[1]
    if not base_median:
        return "unresolved"
    change = (other_median - base_median) / base_median
    worse = change if better == "lower" else -change
    return "regressed" if worse > bound else "ok"


def _cell(values: List[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def compare(base_dir: Path, other_dir: Path, *, layers: bool = False) -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [entry["name"] for entry in manifest["workloads"]]
    bad = 0
    base, other = load_runs(base_dir, trace=0), load_runs(other_dir, trace=0)
    print(f"{'workload':14s} {'metric':20s} {'A (base)':42s} {'B':42s} {'B/A':>8s}  verdict")
    for workload in workloads:
        for spec in manifest["end_to_end"]:
            key = (workload, spec["name"])
            if key not in base or key not in other:
                continue
            result = verdict(
                base[key], other[key], spec["better"], spec["bound"],
                check_spread=spec["name"] != "setup_s",
            )
            bad += result != "ok"
            ratio = quartiles(other[key])[1] / quartiles(base[key])[1]
            print(f"{workload:14s} {spec['name']:20s} {_cell(base[key]):42s} "
                  f"{_cell(other[key]):42s} {ratio:8.4f}  {result} (bound {spec['bound']})")
    if layers:
        base, other = load_runs(base_dir, trace=1), load_runs(other_dir, trace=1)
        for workload in workloads:
            for spec in manifest["per_layer"]:
                key = (workload, spec["name"])
                if key not in base or key not in other:
                    continue
                base_median = quartiles(base[key])[1]
                ratio = quartiles(other[key])[1] / base_median if base_median else 0.0
                print(f"{workload:14s} {spec['name']:32s} {_cell(base[key]):42s} "
                      f"{_cell(other[key]):42s} {ratio:8.4f}")
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="run records of the base (A)")
    parser.add_argument("other", type=Path, help="run records compared against it (B)")
    parser.add_argument("--layers", action="store_true",
                        help="also list the per-layer metrics of traced runs")
    args = parser.parse_args(argv)
    return compare(args.base, args.other, layers=args.layers)


if __name__ == "__main__":
    sys.exit(main())
