"""Content golden for the compile path: IR, CodeMapper actions, mappings, plans.

The e2e exact counters only *count* what the compile path produces
(actions, compensation instructions, obligations).  This test pins the
*content*: for every ``BENCHMARK_NAMES`` kernel and a seeded
``random_minic_function`` corpus it profiles f_base on the interpreter,
runs the speculative pipeline through :class:`OSRTransDriver`, and
hashes

* the f_base IR (frontend + ``mem2reg``) and the optimized IR text,
* every CodeMapper action as ``(kind, detail)``,
* the forward and backward mapping entries (point → target plus
  compensation text), and
* the per-guard deoptimization plans,

one SHA-256 per program.  Nothing hashed mentions an instruction uid, so
the digests do not depend on what ran earlier in the process.

To regenerate after an intentional change to what a pass produces::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_compile_path_golden.py

and explain the changed lines in the commit.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from pathlib import Path
from typing import Dict, List, Tuple

from repro.core import OSRTransDriver
from repro.frontend import compile_function
from repro.ir import Interpreter, Memory, print_function
from repro.passes import speculative_pipeline
from repro.store.codec import encode_deopt_plan, encode_mapping
from repro.vm.profile import ValueProfile
from repro.workloads import (
    BENCHMARK_NAMES,
    benchmark_arguments,
    benchmark_function,
    random_minic_function,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "compile_path.sha256"
UPDATE_ENV = "REPRO_UPDATE_GOLDENS"

#: The generated corpus: the shape of ``benchmarks/e2e``'s random programs.
RANDOM_COUNT = 18
RANDOM_SEED = 1000
PROFILE_RUNS = 6


def _random_program(index: int):
    name = f"rnd{index:02d}"
    statements = 12 + (index * 28) // (RANDOM_COUNT - 1)
    function = compile_function(
        random_minic_function(name, RANDOM_SEED + index, statements=statements), name
    )
    rng = random.Random(index)

    def arguments():
        memory = Memory()
        base = memory.allocate(16)
        memory.write_array(base, [rng.randint(0, 9) for _ in range(16)])
        return [base, 8], memory

    return name, function, arguments


def _programs():
    for name in BENCHMARK_NAMES:
        yield name, benchmark_function(name), lambda name=name: benchmark_arguments(name)
    for index in range(RANDOM_COUNT):
        yield _random_program(index)


def _content(function, arguments) -> Dict[str, object]:
    profile = ValueProfile()
    interp = Interpreter(profiler=profile)
    for _ in range(PROFILE_RUNS):
        args, memory = arguments()
        interp.run(function, args, memory=memory)
    base_ir = print_function(function)
    pair = OSRTransDriver(
        speculative_pipeline(profile.function(function.name), min_samples=2)
    ).run(function)
    plans, uncovered = pair.deopt_plans()
    return {
        "base": base_ir,
        "optimized": print_function(pair.optimized),
        "actions": [[action.kind, action.detail] for action in pair.mapper.actions],
        "forward": encode_mapping(pair.forward_mapping()),
        "backward": encode_mapping(pair.backward_mapping()),
        "plans": [
            encode_deopt_plan(plan)
            for _, plan in sorted(plans.items(), key=lambda kv: str(kv[0]))
        ],
        "uncovered": sorted(str(point) for point in uncovered),
    }


def _digests() -> List[Tuple[str, str]]:
    out = []
    for name, function, arguments in _programs():
        text = json.dumps(_content(function, arguments), sort_keys=True)
        out.append((name, hashlib.sha256(text.encode()).hexdigest()))
    return out


def _render(digests: List[Tuple[str, str]]) -> str:
    return "".join(f"{digest}  {name}\n" for name, digest in digests)


def test_compile_path_content_matches_golden():
    rendered = _render(_digests())
    if os.environ.get(UPDATE_ENV):
        GOLDEN.write_text(rendered)
    expected = GOLDEN.read_text()
    changed = [
        line.split()[-1]
        for line, want in zip(rendered.splitlines(), expected.splitlines())
        if line != want
    ]
    assert rendered == expected, f"compile-path content changed for {changed}"
