"""``tools/e2e_gates.py``: each gate trips on its own regression and on nothing
else.  The check is a pure function of the benchmark's final JSON lines, so it
is fed recorded numbers: no subprocess, no timing."""

import copy
import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "e2e_gates", Path(__file__).resolve().parent.parent / "tools" / "e2e_gates.py"
)
e2e_gates = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(e2e_gates)


def _line(failed=0, **metrics):
    metrics.setdefault("harness.counter_mismatches", 0.0)
    values = {name: {"value": value, "unit": ""} for name, value in metrics.items()}
    return {"failed": failed, "metrics": values}


#: One traced run of this tree (seed 1, 3 s): verify is 3.9 % of a build,
#: events cost 0.065 us of a 7.8 us warm call, the warm start restores everything.
PASSING = {
    "cold_start": _line(**{"soundness.verify_ms": 1.0, "passes.pipeline_ms": 20.0,
                           "core.deopt_plans_ms": 0.6, "core.forward_mapping_ms": 5.2}),
    "phase_shift": _line(**{"events.publish_us": 1.65, "runtime.warm_call_us_p50": 7.8}),
    "warm_restart": _line(**{"runtime.tier_ups": 0.0, "store.restored_ratio": 1.0}),
}
#: ``phase_shift``'s exact counters: 356 events in 9,066 calls.
EVENTS = {"tier_ups": 43, "guard_failures": 54, "dispatch_hits": 40, "dispatch_misses": 10,
          "versions_added": 30, "versions_retired": 13, "invalidations": 2,
          "multiframe_deopts": 4, "osr_entries": 41, "entry_dispatches": 119, "restored": 0}
COUNTERS = {"passes.actions": 226, "runtime.calls": 9066,
            **{f"runtime.{kind}": count for kind, count in EVENTS.items()}}


def test_todays_numbers_pass():
    assert e2e_gates.violated(PASSING, COUNTERS) == []


@pytest.mark.parametrize("workload, failed, metrics, gate", [
    ("cold_start", 0, {"soundness.verify_ms": 0.20 * 25.8}, "strict verification"),
    ("phase_shift", 0, {"events.publish_us": 12.0}, "events"),
    ("warm_restart", 0, {"runtime.tier_ups": 1.0}, "warm start"),
    ("warm_restart", 0, {"store.restored_ratio": 0.875}, "warm start"),
    ("phase_shift", 0, {"harness.counter_mismatches": 2.0}, "phase_shift"),
    ("cold_start", 1, {}, "cold_start"),
])
def test_one_regression_trips_exactly_its_gate(workload, failed, metrics, gate):
    lines = copy.deepcopy(PASSING)
    lines[workload]["failed"] = failed
    for name, value in metrics.items():
        lines[workload]["metrics"][name]["value"] = value
    (name,) = e2e_gates.violated(lines, COUNTERS)
    assert name.startswith(gate + ":")
