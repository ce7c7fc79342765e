"""CI's three timing gates, read from the end-to-end benchmark's own metrics.

    python tools/e2e_gates.py

Runs ``benchmarks/e2e/run.py --workload W --seed 1 --seconds 3 --trace 1``
for the three ``WORKLOADS`` (and ``phase_shift``'s exact counters, for its
calls and events), prints every gate and exits 1 when one is violated:

* **strict verification** costs at most 15 % of a version build
  (``soundness.verify_ms`` against pipeline + deopt plans + forward
  mapping, means over ``cold_start``'s programs) — or nobody leaves
  ``verify_deopt=strict`` on;
* **events** cost at most 5 % of a warm call where events flow
  (``events.publish_us`` × events per call against
  ``runtime.warm_call_us_p50`` on ``phase_shift``);
* a **warm start** is served from the store (``warm_restart``: no failed
  op, zero ``TierUp``, every compiled function restored);

and on every workload no op fails its reference check and the exact
counters repeat under another hash seed.  Run records and traces stay
under ``benchmarks/e2e/out/``.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e" / "run.py"
WORKLOADS = ("cold_start", "phase_shift", "warm_restart")
VERIFY_SHARE = 0.15
EVENT_SHARE = 0.05
BUILD_STAGES = ("passes.pipeline_ms", "core.deopt_plans_ms", "core.forward_mapping_ms")


def gates(lines, counters):
    """``(name, value, limit)`` per gate, violated when ``value > limit``, from
    each workload's final JSON line and ``phase_shift``'s exact counters."""

    def metric(workload, name):
        return lines[workload]["metrics"][name]["value"]

    build_ms = sum(metric("cold_start", stage) for stage in BUILD_STAGES)
    # Every runtime.* exact counter but the calls themselves counts one kind of event.
    events = sum(
        count for name, count in counters.items()
        if name.startswith("runtime.") and name != "runtime.calls"
    )
    not_from_store = (
        lines["warm_restart"]["failed"]
        + metric("warm_restart", "runtime.tier_ups")
        + (metric("warm_restart", "store.restored_ratio") != 1.0)
    )
    rows = [
        ("strict verification: ms of a version build (cold_start)",
         metric("cold_start", "soundness.verify_ms"), VERIFY_SHARE * build_ms),
        ("events: us of a warm call (phase_shift)",
         metric("phase_shift", "events.publish_us") * events / counters["runtime.calls"],
         EVENT_SHARE * metric("phase_shift", "runtime.warm_call_us_p50")),
        ("warm start: failed ops + TierUps + unrestored (warm_restart)", not_from_store, 0),
    ]
    for workload, line in lines.items():
        broken = line["failed"] + metric(workload, "harness.counter_mismatches")
        rows.append((f"{workload}: failed ops + counter mismatches", broken, 0))
    return rows


def violated(lines, counters):
    return [name for name, value, limit in gates(lines, counters) if value > limit]


def last_json_line(*options):
    command = [sys.executable, str(RUN), "--seed", "1", *options]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main():
    lines = {
        workload: last_json_line("--workload", workload, "--seconds", "3", "--trace", "1")
        for workload in WORKLOADS
    }
    counters = last_json_line("--workload", "phase_shift", "--counters-only")
    for name, value, limit in gates(lines, counters):
        print(f"{'FAIL' if value > limit else 'ok  '} {name}: {value:.4g} (limit {limit:.4g})")
    return 1 if violated(lines, counters) else 0


if __name__ == "__main__":
    sys.exit(main())
