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

one SHA-256 per program.  The call-kernel modules run the
interprocedural pipeline instead and also hash every inlined frame
(callee, destination, parent, renamings, argument expressions) and the
block → frame map.  Nothing hashed mentions an instruction uid, so the
digests do not depend on what ran earlier in the process.

Every build, and a standard-pipeline build of each program, also checks
that the mapper's record agrees with the IR it describes: the uids
recorded as deleted are exactly the cloned ones that are gone, and the
uids recorded as added exactly the ones that were not cloned.  After
every pass of those builds, the mapper's use index must equal one
rebuilt from scratch.

A second golden, ``emitted_source.sha256``, hashes what the closure
compiler generates from each program's f_opt: the normal entry and one
OSR stub landing on each loop header.  An emitter change shows there,
program by program, while ``compile_path.sha256`` stays byte-identical.

To regenerate after an intentional change to what a pass or the emitter
produces::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_compile_path_golden.py

and explain the changed lines in the commit.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
from pathlib import Path
from typing import Dict, List, Tuple

from repro.cfg import ControlFlowGraph, DominatorTree, find_loops
from repro.core import OSRTransDriver
from repro.core.codemapper import NullCodeMapper
from repro.frontend import compile_function
from repro.ir import Function, Interpreter, Memory, ProgramPoint, print_function
from repro.passes import Pass, interprocedural_pipeline, speculative_pipeline, standard_pipeline
from repro.store.codec import encode_deopt_plan, encode_mapping
from repro.vm.backend import CompiledBackend
from repro.vm.profile import ValueProfile
from repro.workloads import (
    BENCHMARK_NAMES,
    CALL_KERNEL_ENTRIES,
    CALL_KERNEL_NAMES,
    benchmark_arguments,
    benchmark_function,
    call_kernel_arguments,
    call_kernel_module,
    random_minic_function,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "compile_path.sha256"
EMITTED_GOLDEN = GOLDEN.with_name("emitted_source.sha256")
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


def _profile(module, function, arguments) -> ValueProfile:
    profile = ValueProfile()
    interp = Interpreter(module, profiler=profile)
    for _ in range(PROFILE_RUNS):
        args, memory = arguments()
        interp.run(function, args, memory=memory)
    return profile


class _IndexChecked(Pass):
    """Runs a pass with the mapper's use index built, then checks it.

    The index is built on its first query and dropped when the editing
    session ends, so the wrapper builds it before the pass and compares
    it against a rebuild after it: every edit method a pass calls must
    keep it exact.
    """

    def __init__(self, inner: Pass) -> None:
        self.inner = inner
        self.name = inner.name

    def run(self, function, mapper=None):
        with mapper.editing(function):
            mapper.users_of("")
            changed = self.inner.transform(function, mapper)
            assert _nonempty(mapper._users) == _rebuilt(function), f"stale index after {self.name}"
        return changed


def _nonempty(index: Dict[str, set]) -> Dict[str, set]:
    return {name: users for name, users in index.items() if users}


def _rebuilt(function) -> Dict[str, set]:
    """The use index a fresh mapper builds for ``function``."""
    fresh = NullCodeMapper()
    with fresh.editing(function):
        fresh.users_of("")
        return _nonempty(fresh._users)


def _checked(pipeline) -> List[Pass]:
    return [_IndexChecked(pass_) for pass_ in pipeline]


def _assert_record_agrees_with_ir(pair) -> None:
    cloned = set(pair.mapper.forward_uid.values())
    present = {inst.uid for _, inst in pair.optimized.instructions()}
    assert pair.mapper.deleted == cloned - present
    assert pair.mapper.added == present - cloned


def _content(pair, base_ir: str) -> Dict[str, object]:
    _assert_record_agrees_with_ir(pair)
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


def _program_build(function, arguments) -> Tuple[Dict[str, object], Function]:
    profile = _profile(None, function, arguments)
    base_ir = print_function(function)
    _assert_record_agrees_with_ir(OSRTransDriver(_checked(standard_pipeline())).run(function))
    pair = OSRTransDriver(
        _checked(speculative_pipeline(profile.function(function.name), min_samples=2))
    ).run(function)
    return _content(pair, base_ir), pair.optimized


def _module_build(name: str) -> Tuple[Dict[str, object], Function]:
    module = call_kernel_module(name)
    entry = module.get(CALL_KERNEL_ENTRIES[name])
    profile = _profile(module, entry, lambda: call_kernel_arguments(name))
    base_ir = "\n".join(print_function(function) for function in module)
    caller_profile = profile.function(entry.name)
    pipeline = interprocedural_pipeline(
        caller_profile,
        caller_profile.clone(),
        resolve=lambda callee: module.get(callee) if callee in module else None,
        callee_profile=profile.function,
        min_samples=2,
        min_site_calls=2,
    )
    pair = OSRTransDriver(_checked(pipeline)).run(entry)
    content = _content(pair, base_ir)
    content["frames"] = [
        {
            "callee": frame.callee.name,
            "dest": frame.dest,
            "parent": frame.parent,
            "rename": frame.rename,
            "block_map": frame.block_map,
            "param_args": {param: str(arg) for param, arg in frame.param_args.items()},
        }
        for frame in pair.mapper.inlined_frames
    ]
    content["block_frames"] = pair.mapper.block_frames
    return content, pair.optimized


@functools.lru_cache(maxsize=None)
def _builds() -> Tuple[Tuple[str, Dict[str, object], Function], ...]:
    """``(name, content, f_opt)`` per program, built once for both goldens."""
    builds = [
        (name, *_program_build(function, arguments))
        for name, function, arguments in _programs()
    ]
    builds += [(name, *_module_build(name)) for name in CALL_KERNEL_NAMES]
    return tuple(builds)


def _emitted_source(optimized: Function) -> Dict[str, str]:
    """The generated code of ``f_opt`` and of one OSR stub per loop header."""
    backend = CompiledBackend()
    sources = {"entry": backend.compiled_artifact(optimized).source}
    cfg = ControlFlowGraph(optimized)
    for header in sorted(loop.header for loop in find_loops(cfg, DominatorTree(cfg))):
        point = ProgramPoint(header, 0)
        sources[str(point)] = backend.compiled_artifact(optimized, point).source
    return sources


def _hash(content: object) -> str:
    return hashlib.sha256(json.dumps(content, sort_keys=True).encode()).hexdigest()


def _render(digests: List[Tuple[str, str]]) -> str:
    return "".join(f"{digest}  {name}\n" for name, digest in digests)


def _assert_matches(golden: Path, digests: List[Tuple[str, str]], what: str) -> None:
    rendered = _render(digests)
    if os.environ.get(UPDATE_ENV):
        golden.write_text(rendered)
    expected = golden.read_text()
    changed = [
        line.split()[-1]
        for line, want in zip(rendered.splitlines(), expected.splitlines())
        if line != want
    ]
    assert rendered == expected, f"{what} changed for {changed}"


def test_compile_path_content_matches_golden():
    digests = [(name, _hash(content)) for name, content, _ in _builds()]
    _assert_matches(GOLDEN, digests, "compile-path content")


def test_emitted_source_matches_golden():
    digests = [(name, _hash(_emitted_source(optimized))) for name, _, optimized in _builds()]
    _assert_matches(EMITTED_GOLDEN, digests, "emitted source")
