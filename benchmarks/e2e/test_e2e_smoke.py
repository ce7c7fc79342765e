"""Tier-1 smoke test of the end-to-end benchmark: every workload at tiny size.

Checks what the driver relies on — every metric ``BENCHMARK.json`` names
is emitted with its unit, no op fails, trace spans nest and share op
ids, same-seed counters repeat — and that the hand-written twins agree
with the reference interpreter.
"""

from __future__ import annotations

import _bootstrap  # noqa: F401  (must precede the repro imports)

import json

import pytest

import inputs
import layers
import run
from inputs import reference_value

MANIFEST = json.loads((_bootstrap.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in MANIFEST["workloads"]]
SEED = 3


def _units(section: str) -> dict:
    return {entry["name"]: entry["unit"] for entry in MANIFEST[section]}


def test_manifest_matches_the_code():
    assert tuple(WORKLOADS) == run.WORKLOAD_NAMES
    assert _units("end_to_end") == run.END_TO_END_UNITS
    assert _units("per_layer") == layers.PER_LAYER_UNITS
    assert all(0 < entry["bound"] <= 0.25 for entry in MANIFEST["end_to_end"])
    assert MANIFEST["command"][-1] == "benchmarks/e2e/run.py"
    assert MANIFEST["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_end_to_end_run(name, tmp_path):
    record = run.run_workload(name, SEED, 0.02, out_dir=tmp_path, tiny=True)
    assert record["failed"] == 0 and record["attempted"] >= 1 and record["correct"]
    assert record["extra"]["error_rate"]["value"] == 0
    emitted = {key: item["unit"] for key, item in record["metrics"].items()}
    assert emitted == _units("end_to_end")
    assert all(item["value"] > 0 for item in record["metrics"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run(name, tmp_path):
    record = run.run_workload(
        name, SEED, 0.02, trace=True, out_dir=tmp_path, tiny=True, hash_seed_check=False
    )
    assert record["failed"] == 0 and record["attempted"] >= 1
    emitted = {key: item["unit"] for key, item in record["metrics"].items()}
    assert emitted == _units("per_layer")

    trace = json.loads((tmp_path / f"trace-{name}.json").read_text())
    assert trace["fields"] == ["name", "start_ns", "end_ns", "parent", "op_id"]
    spans = trace["spans"]
    assert spans and any(span[3] >= 0 for span in spans)
    for span in spans:
        _, start, end, parent, op_id = span
        assert start <= end
        if parent >= 0:
            outer = spans[parent]
            assert outer[4] == op_id, "spans of one op share its id"
            assert outer[1] <= start and end <= outer[2], "a span nests in its parent"


@pytest.mark.parametrize("name", ["phase_shift", "steady_calls"])
def test_same_seed_counters_repeat(name, tmp_path):
    first = layers.counters_for(name, SEED, tmp_path, tiny=True)
    assert first == layers.counters_for(name, SEED, tmp_path, tiny=True)
    assert first["runtime.tier_ups"] > 0 and first["passes.actions"] > 0


def test_twins_agree_with_the_reference_interpreter():
    for seed in (1, 2):
        programs = (
            inputs.loop_programs(seed, size=16)
            + inputs.short_programs(seed)
            + inputs.polymorphic_programs(seed, size=8)
            + inputs.speculative_programs(seed, size=8)
        )
        for program in programs:
            assert program.twin is not None
            for inp in program.inputs:
                # ``expected`` came from the twin; the interpreter on the
                # unpromoted lowering must agree.
                assert inp.expected == reference_value(
                    program.source, program.entry, inp.args, inp.memory
                ), (program.name, inp.tag, seed)
