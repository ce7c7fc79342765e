"""The traced run: per-layer metrics measured from outside the program.

Nothing in ``src/`` is instrumented.  The harness replays each kind of
op stage by stage through the layers' public functions, recording one
in-memory span per call (:class:`measure.Tracer`), and times the same
op whole through the real ``Engine``; what the stages do not account
for is ``runtime.unattributed_ms``, the coordinator's own cost.  Spans
whose name ends in ``#probe`` split a stage further (``compile()``
inside the backend's artifact build, the pipeline re-run with a
``NullCodeMapper``) and are left out of an op's stage sum.

Three replays, each run over the workload's own programs:

* :func:`replay_compile` — source text to runnable optimized code, the
  way ``Engine.from_source`` + the tier-up call do it: frontend → ssa →
  base-tier runs under a ``ValueProfile`` → each pass on the clone with
  its ``CodeMapper`` → ``core`` plans and mappings → the soundness
  verifier → codegen → OSR entry → warm calls of the generated code;
* :func:`replay_call` — one warm call, layer inside layer: handle →
  ``runtime.call`` → ``opt_backend.run`` → the ``CompiledFunction``;
* :func:`replay_store` — ``snapshot`` → ``put`` → ``from_source`` →
  ``hydrate_runtime`` → first call.

Exact counters (pass actions, source bytes, guards, engine statistics
after a fixed number of schedule rounds) repeat for a seed; the traced
run re-derives them in a child process under another ``PYTHONHASHSEED``
and reports every difference as ``harness.counter_mismatches``.
"""

from __future__ import annotations

import _bootstrap  # noqa: F401  (must precede the repro imports)

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.analysis.soundness import verify_version
from repro.cfg.graph import ControlFlowGraph
from repro.cfg.loops import find_loops
from repro.core.codemapper import NullCodeMapper, clone_for_optimization
from repro.core.osr_trans import VersionPair
from repro.core.osrkit import make_continuation
from repro.core.views import FunctionView
from repro.engine import Engine
from repro.engine.events import EntryDispatched, EventBus, RingBufferRecorder
from repro.engine.policy import HotnessPolicy
from repro.engine.stats import StatsCollector
from repro.frontend import lower_program, parse_minic
from repro.frontend.parser import tokenize
from repro.ir import GuardFailure, Interpreter
from repro.ir.function import ProgramPoint
from repro.ir.instructions import Phi
from repro.passes import interprocedural_pipeline, standard_pipeline
from repro.ssa import promote_memory_to_registers
from repro.store import hydrate_runtime
from repro.vm.backend import CompiledBackend
from repro.vm.profile import GENERIC_KEY, EntryClusterer, ValueProfile
from repro.vm.runtime import CompiledVersion

import workloads
from inputs import Input, Program
from measure import Tracer, add_counts, median, percentile, timer_cost_ns
from workloads import CONFIG, STRICT, Samples, Workload

__all__ = ["PER_LAYER_UNITS", "trace_workload", "counters_for", "exact_counters"]

clock = time.perf_counter_ns

PASS_NAMES = ("Spec", "Inline", "LC", "LCSSA", "LICM", "CSE", "CP", "SCCP", "Sink", "ADCE", "Fuse")
TRANSITION_CLASSES = ("warm", "entry_switch", "guardfail_hit", "deopt_miss", "multiframe", "tierup")
STEADY_KERNELS = (
    "bzip2", "h264ref", "hmmer", "namd", "perlbench", "sjeng", "soplex", "bullet",
    "dcraw", "ffmpeg", "fhourstones", "vp8",
    "add", "poly8", "blend8", "helper_loop", "chain", "clamp_call", "fib",
)

#: Share of the traced run's window spent on whole ops through the real engine.
REAL_OP_SHARE = 0.35
#: Warm calls timed per layer per :func:`replay_call`.
CALLS_PER_LAYER = 8


def _per_layer_units() -> Dict[str, str]:
    units = {
        "frontend.tokenize_ms": "ms", "frontend.parse_ms": "ms", "frontend.lower_ms": "ms",
        "frontend.source_lines": "count",
        "ssa.mem2reg_ms": "ms", "ssa.promoted_allocas": "count",
        "interp.run_us": "us", "interp.steps_per_s": "1/s",
    }
    units.update({f"passes.{name}_ms": "ms" for name in PASS_NAMES})
    units.update({
        "passes.pipeline_ms": "ms", "passes.actions": "count",
        "passes.guards_inserted": "count", "passes.ir_shrink": "ratio",
        "codemapper.overhead": "ratio",
        "core.deopt_plans_ms": "ms", "core.forward_mapping_ms": "ms",
        "core.backward_mapping_ms": "ms", "core.compensation_instrs": "count",
        "core.transfer_us": "us", "core.continuation_build_ms": "ms",
        "soundness.verify_ms": "ms", "soundness.obligations": "count",
        "codegen.emit_ms": "ms", "codegen.pycompile_ms": "ms", "codegen.osr_stub_ms": "ms",
        "codegen.source_bytes": "count", "codegen.structured_share": "ratio",
        "generated.code_us": "us", "backend.run_self_us": "us",
        "engine.facade_self_us": "us", "runtime.dispatch_self_us": "us",
        "profile.observe_us": "us", "events.publish_us": "us",
    })
    units.update({f"runtime.{name}_call_us_p50": "us" for name in TRANSITION_CLASSES})
    units.update({
        "runtime.tier_ups": "count", "runtime.guard_failures": "count",
        "runtime.dispatch_hit_ratio": "ratio", "runtime.versions_added": "count",
        "runtime.versions_retired": "count", "runtime.invalidations": "count",
        "runtime.compiles_per_kcall": "1/kcall", "runtime.unattributed_ms": "ms",
        "store.compile_source_ms": "ms", "store.hydrate_ms": "ms", "store.snapshot_ms": "ms",
        "store.put_ms": "ms", "store.bytes_on_disk": "count", "store.restored_ratio": "ratio",
        "first_result_ms_p50": "ms", "save_ms_p50": "ms",
        "op_us_p99": "us", "op_us_p999": "us",
    })
    for kernel in STEADY_KERNELS:
        units[f"kernel.{kernel}.us_p50"] = "us"
        units[f"native.{kernel}.us_p50"] = "us"
    units.update({
        "harness.timer_share": "ratio", "harness.trace_overhead": "ratio",
        "harness.counter_mismatches": "count",
    })
    return units


#: Per-layer metrics: name -> unit.  A metric the workload does not
#: exercise (a transition class that never occurs, a kernel that is not
#: part of it) reads 0.
PER_LAYER_UNITS = _per_layer_units()


class Table:
    """``values[metric][program]`` -> samples; a metric's value is the mean over
    programs of each program's median, so every program weighs the same."""

    def __init__(self) -> None:
        self.values: Dict[str, Dict[str, List[float]]] = {}

    def add(self, metric: str, program: str, value: float) -> None:
        self.values.setdefault(metric, {}).setdefault(program, []).append(value)

    def per_program(self, metric: str) -> Dict[str, float]:
        return {name: median(v) for name, v in self.values.get(metric, {}).items()}

    def mean(self, metric: str) -> float:
        medians = list(self.per_program(metric).values())
        return sum(medians) / len(medians) if medians else 0.0


# ---------------------------------------------------------------------- #
# Replay A: the compile path.
# ---------------------------------------------------------------------- #


def _osr_point(base, forward) -> Optional[ProgramPoint]:
    """The f_base point the tier-up call OSR-enters from (the default policy's pick)."""
    loop_blocks = {
        label for loop in find_loops(ControlFlowGraph(base)) for label in loop.body
    }
    candidates = [
        point
        for point in forward.domain()
        if isinstance(point, ProgramPoint)
        and not isinstance(base.instruction_at(point), Phi)
    ]
    loop_points = [point for point in candidates if point.block in loop_blocks]
    return HotnessPolicy().select_osr_point(None, candidates, loop_points, CONFIG)


def _pipeline(module, profile, function):
    caller = profile.function(function.name)
    return interprocedural_pipeline(
        caller,
        caller.clone(),
        resolve=lambda name: module.get(name) if name in module else None,
        callee_profile=profile.function,
        min_samples=CONFIG.min_samples,
        min_ratio=CONFIG.min_ratio,
        min_site_calls=CONFIG.inline_min_calls,
        max_callee_size=CONFIG.max_callee_size,
        max_inline_depth=CONFIG.max_inline_depth,
    )


def _optimize(tracer: Tracer, base, pipeline, mode):
    """Clone, run ``pipeline`` with a CodeMapper, build the pair and its deopt plans."""
    with tracer.span("passes.pipeline"):
        clone, mapper = tracer.call("passes.clone", clone_for_optimization, base)
        for pass_ in pipeline:
            tracer.call(f"passes.{pass_.name}", pass_.run, clone, mapper)
    with tracer.span("core.views"):
        pair = VersionPair(
            base=base, optimized=clone, mapper=mapper,
            base_view=FunctionView(base), opt_view=FunctionView(clone),
        )
    plans, uncovered = tracer.call("core.deopt_plans", pair.deopt_plans, mode)
    return clone, mapper, pair, plans, uncovered


def _stage_sum(tracer: Tracer, root: int) -> int:
    """Durations of the op's direct stages, probes left out."""
    return sum(
        span[2] - span[1]
        for span in tracer.spans[root + 1:]
        if span[3] == root and not span[0].endswith("#probe")
    )


def replay_compile(
    tracer: Tracer, table: Table, program: Program, samples: Samples
) -> Dict[str, int]:
    """Source text -> verified, runnable optimized code, one span per stage.

    Returns the replay's exact counters.  Interpreter and generated-code
    results are checked against the program's expected value.
    """
    name, inp = program.name, program.inputs[0]
    args, mode = inp.args, CONFIG.mode

    def check(value: object) -> None:
        samples.attempted += 1
        samples.failed += value != inp.expected

    with tracer.op(f"compile:{name}"):
        root = len(tracer.spans) - 1
        tracer.call("frontend.tokenize#probe", tokenize, program.source)
        ast = tracer.call("frontend.parse_minic", parse_minic, program.source)
        module = tracer.call("frontend.lower", lower_program, ast)
        with tracer.span("ssa.mem2reg"):
            promoted = sum(promote_memory_to_registers(function) for function in module)
        base = module.get(program.entry)

        profile = ValueProfile()
        interpreter = Interpreter(module, profiler=profile)
        steps = 0
        for _ in range(CONFIG.hotness_threshold - 1):
            result = tracer.call(
                "interp.run", interpreter.run, base, args, memory=inp.memory.copy()
            )
            steps += result.steps
            check(result.value)

        clone, mapper, pair, plans, uncovered = _optimize(
            tracer, base, _pipeline(module, profile, base), mode
        )
        with tracer.span("passes.pipeline_null#probe"):
            null_clone, _ = clone_for_optimization(base)
            null_mapper = NullCodeMapper()
            for pass_ in _pipeline(module, profile, base):
                pass_.run(null_clone, null_mapper)
        rejected = bool(uncovered)
        if rejected:
            # Some guard cannot deoptimize: like the engine, discard the
            # speculative build and pay for a second, standard pipeline.
            clone, mapper, pair, plans, _ = _optimize(tracer, base, standard_pipeline(), mode)
        forward = tracer.call("core.forward_mapping", pair.forward_mapping, mode)
        backward = tracer.call("core.backward_mapping#probe", pair.backward_mapping, mode)
        keep_alive = frozenset().union(*(plan.keep_alive() for plan in plans.values()))
        version = CompiledVersion(
            pair=pair, plans=plans, forward_mapping=forward,
            keep_alive=keep_alive, speculative=not rejected and bool(pair.guard_points()),
        )
        report = tracer.call(
            "soundness.verify", verify_version, version,
            key=GENERIC_KEY, function_name=base.name,
        )
        samples.attempted += 1
        samples.failed += not report.ok

        backend = CompiledBackend(module=module)
        artifact = tracer.call("codegen.compiled_artifact", backend.compiled_artifact, clone)
        tracer.call("codegen.pycompile#probe", compile, artifact.source, "<replay>", "exec")

        # The tier-up call: base tier up to the OSR point, transfer, land
        # in the compiled OSR entry stub.
        point = tracer.call("runtime.osr_select", _osr_point, base, forward)
        paused = None
        if point is not None:
            paused = tracer.call(
                "interp.run", interpreter.run, base, args,
                memory=inp.memory.copy(), break_at=point,
            )
        if paused is None or paused.stopped_at is None:
            result = paused or tracer.call(
                "interp.run", interpreter.run, base, args, memory=inp.memory.copy()
            )
        else:
            landing = tracer.call("core.forward_transfer", forward.transfer, point, paused.env)
            for register in keep_alive:
                if register not in landing and register in paused.env:
                    landing[register] = paused.env[register]
            target = forward.lookup(point).target
            stub = tracer.call("codegen.osr_stub", backend.compiled_artifact, clone, target)
            try:
                result = tracer.call(
                    "generated.code", stub, landing, paused.memory, paused.previous_block
                )
            except GuardFailure:
                # The engine validates speculation before entering mid-flight
                # and finishes such a call in the base tier.
                result = tracer.call(
                    "interp.run", interpreter.run, base, args, memory=inp.memory.copy()
                )
        check(result.value)
        for _ in range(workloads.COLD_WARM_CALLS):
            check(tracer.call("generated.code", artifact, list(args), inp.memory.copy()).value)

        _probe_deopt(tracer, program, base, clone, pair, plans, backend)

    stages = {}
    for span in tracer.spans[root:]:
        stages.setdefault(span[0], []).append(span[2] - span[1])
    for stage, durations in stages.items():
        table.add(f"span:{stage}", name, sum(durations))
    table.add("span:interp.run/call", name, median(stages["interp.run"]))
    table.add("span:generated.code/call", name, median(stages["generated.code"]))
    table.add("stage_sum", name, _stage_sum(tracer, root))
    table.add("interp.steps_per_s", name, steps / (sum(stages["interp.run"][:2]) / 1e9))

    return {
        "frontend.source_lines": len(program.source.strip().splitlines()),
        "ssa.promoted_allocas": promoted,
        "interp.steps": steps,
        "passes.actions": sum(mapper.action_counts().values()),
        "passes.guards_inserted": len(pair.guard_points()),
        "passes.speculation_rejected": int(rejected),
        "passes.instructions_base": sum(1 for _ in base.instructions()),
        "passes.instructions_opt": sum(1 for _ in clone.instructions()),
        "core.compensation_instrs": (
            sum(entry.compensation.size for _, entry in forward.entries())
            + sum(entry.compensation.size for _, entry in backward.entries())
        ),
        "soundness.obligations": (
            report.checked_plans + report.checked_frames + report.checked_mappings
        ),
        "codegen.source_bytes": len(artifact.source),
        "codegen.structured": int(artifact.emitter == "structured"),
        "codegen.artifacts": 1,
    }


def _probe_deopt(tracer, program: Program, base, clone, pair, plans, backend) -> None:
    """Fire a guard (if an input does) and time the transfer and continuation build."""
    inp = program.inputs[0]
    if len(program.inputs) > 1:
        violating = program.inputs[-1]
        args, memory = violating.args, violating.memory.copy()
    else:
        # A monomorphic scalar parameter is speculated constant: perturb the last one.
        args, memory = inp.args[:-1] + [inp.args[-1] - 1], inp.memory.copy()
    try:
        backend.run(clone, args, memory=memory)
        return
    except GuardFailure as raised:
        failure = raised
    plan = plans.get(failure.point)
    if plan is None or plan.is_multiframe:
        return
    frame = plan.frames[0]
    tracer.call("core.transfer#probe", frame.transfer, failure.env)
    tracer.call(
        "core.continuation_build#probe", make_continuation, base, frame.target,
        frame.compensation, sorted(pair.opt_view.live_in(failure.point)),
        name=f"{base.name}.deopt.probe",
    )


# ---------------------------------------------------------------------- #
# Replay B: one warm call, layer inside layer.
# ---------------------------------------------------------------------- #


def _warm_engine(program: Program) -> Engine:
    engine = Engine.from_source(program.source, config=CONFIG)
    for _ in range(6):
        engine.call(program.entry, program.inputs[0].args, memory=program.inputs[0].memory.copy())
    return engine


def _selected_version(engine: Engine, program: Program, inp: Input):
    """The live version entry dispatch picks for ``inp`` (most specific match)."""
    state = engine.function(program.entry).state
    matches = [entry for entry in state.versions if entry.key.matches(inp.args)]
    if not matches:
        return None
    return max(matches, key=lambda entry: entry.key.specificity).version


def replay_call(
    tracer: Tracer, table: Table, program: Program, engine: Engine, samples: Samples
) -> None:
    """Time one warm call at each layer boundary, outermost first."""
    name, inp = program.name, program.inputs[0]
    args, entry = inp.args, program.entry
    version = _selected_version(engine, program, inp)
    if version is None:
        return
    handle = engine.function(entry)
    runtime = engine.runtime
    backend = runtime.opt_backend
    optimized = version.optimized
    compiled = backend.compiled_artifact(optimized)
    int_args = [int(value) for value in args]
    layers = (
        ("engine.handle", lambda memory: handle.call(args, memory=memory)),
        ("runtime.call", lambda memory: runtime.call(entry, args, memory=memory)),
        ("backend.run", lambda memory: backend.run(optimized, args, memory=memory)),
        ("generated.code", lambda memory: compiled(int_args, memory)),
    )
    with tracer.op(f"call:{name}"):
        for layer, thunk in layers:
            for _ in range(CALLS_PER_LAYER):
                memory = inp.memory.copy()
                start = clock()
                result = thunk(memory)
                end = clock()
                tracer.record(layer, start, end)
                table.add(f"call:{layer}", name, end - start)
                samples.attempted += 1
                samples.failed += result.value != inp.expected
        clusterer = EntryClusterer(max_clusters=CONFIG.max_versions)
        bus = EventBus(RingBufferRecorder(CONFIG.event_buffer_size))
        bus.subscribe(StatsCollector())
        event = EntryDispatched(entry, key="generic", versions=1)
        for _ in range(CALLS_PER_LAYER):
            start = clock()
            clusterer.observe(args)
            middle = clock()
            bus.publish(event)
            end = clock()
            tracer.record("profile.observe", start, middle)
            tracer.record("events.publish", middle, end)
            table.add("call:profile.observe", name, middle - start)
            table.add("call:events.publish", name, end - middle)


# ---------------------------------------------------------------------- #
# Replay C: the store path.
# ---------------------------------------------------------------------- #


def _tree_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


def replay_store(
    tracer: Tracer, table: Table, program: Program, engine: Engine, scratch: Path,
    samples: Samples,
) -> Dict[str, int]:
    """snapshot -> put -> compile source -> hydrate -> first call, one span each."""
    name, inp = program.name, program.inputs[0]
    store = Path(tempfile.mkdtemp(prefix="probe-store-", dir=scratch))
    try:
        with tracer.op(f"store:{name}"):
            root = len(tracer.spans) - 1
            snapshot = tracer.call("store.snapshot", engine.snapshot)
            tracer.call("store.put", snapshot.save, store)
            fresh = tracer.call("store.compile_source", Engine.from_source,
                                program.source, config=STRICT)
            restored = tracer.call("store.hydrate", hydrate_runtime, fresh.runtime, store)
            result = tracer.call("engine.first_call", fresh.call, program.entry, inp.args,
                                 memory=inp.memory.copy())
            fresh.close()
        samples.attempted += 1
        samples.failed += result.value != inp.expected
        for span in tracer.spans[root + 1:]:
            table.add(f"span:{span[0]}", name, span[2] - span[1])
        table.add("store_stage_sum", name, _stage_sum(tracer, root))
        compiled = sum(1 for state in engine.runtime.functions.values() if state.is_compiled)
        return {
            "store.bytes_on_disk": _tree_bytes(store),
            "store.restored": len(restored),
            "store.compiled": compiled,
        }
    finally:
        shutil.rmtree(store, ignore_errors=True)


# ---------------------------------------------------------------------- #
# The traced run.
# ---------------------------------------------------------------------- #


def _replay_round(
    tracer: Tracer, table: Table, workload: Workload, engines: Dict[str, Engine],
    samples: Samples, deadline: Optional[float],
) -> Optional[Dict[str, int]]:
    """All three replays over every program; ``None`` when the deadline cut it short."""
    counters: Dict[str, int] = {}
    for program in workload.programs:
        if deadline is not None and time.perf_counter() >= deadline:
            return None
        add_counts(counters, replay_compile(tracer, table, program, samples))
        engine = engines.get(program.name)
        if engine is None:
            engine = engines[program.name] = _warm_engine(program)
        replay_call(tracer, table, program, engine, samples)
        add_counts(
            counters, replay_store(tracer, table, program, engine, workload.scratch, samples)
        )
    return counters


def _engine_counters(stats: Dict[str, int]) -> Dict[str, int]:
    keys = ("calls", "tier_ups", "guard_failures", "dispatch_hits", "dispatch_misses",
            "versions_added", "versions_retired", "invalidations", "multiframe_deopts",
            "osr_entries", "entry_dispatches", "restored")
    return {f"runtime.{key}": stats.get(key, 0) for key in keys}


def exact_counters(workload: Workload, replay: Dict[str, int]) -> Dict[str, int]:
    """The counts that must repeat for a seed: engine statistics after the
    workload's fixed counter rounds plus one replay round's counters."""
    assert workload.counter_snapshot is not None
    return {**_engine_counters(workload.counter_snapshot), **replay}


def counters_for(name: str, seed: int, scratch: Path, *, tiny: bool = False) -> Dict[str, int]:
    """Exact counters of ``(workload, seed)`` from a fresh, fixed-size pass."""
    workload = workloads.make_workload(name, seed, scratch, tiny=tiny)
    workload.setup()
    engines: Dict[str, Engine] = {}
    try:
        workload.measure(0.0, rounds=workload.counter_rounds)
        replay = _replay_round(Tracer(), Table(), workload, engines, Samples(), None)
        return exact_counters(workload, replay)
    finally:
        for engine in engines.values():
            engine.close()
        workload.teardown()


def _child_counters(workload: Workload) -> Dict[str, int]:
    """The same counters from a child process under another ``PYTHONHASHSEED``."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "1" if env.get("PYTHONHASHSEED") != "1" else "2"
    command = [sys.executable, str(Path(__file__).with_name("run.py")),
               "--workload", workload.name, "--seed", str(workload.seed),
               "--out", str(workload.scratch), "--counters-only"]
    done = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def trace_workload(
    workload: Workload, seconds: float, tracer: Tracer, *, hash_seed_check: bool = True
) -> Tuple[Dict[str, float], Dict[str, str], Samples]:
    """The traced run of an already set-up workload -> (metrics, units, samples)."""
    table = Table()
    start = time.perf_counter()
    workload.observe = True
    samples = workload.measure(seconds * REAL_OP_SHARE)
    timed_ops = sum(len(times) for times in samples.engine.values())
    timed_ns = sum(sum(times) for times in samples.engine.values())

    engines: Dict[str, Engine] = {}
    try:
        counters = _replay_round(tracer, table, workload, engines, samples, None)
        deadline = start + seconds
        while _replay_round(tracer, table, workload, engines, samples, deadline) is not None:
            pass
    finally:
        for engine in engines.values():
            engine.close()

    exact = exact_counters(workload, counters)
    mismatches = 0
    if hash_seed_check:
        other = _child_counters(workload)
        mismatches = sum(1 for key in set(exact) | set(other) if exact.get(key) != other.get(key))

    metrics = _assemble(workload, samples, table, exact)
    metrics["harness.counter_mismatches"] = float(mismatches)
    metrics["harness.timer_share"] = timer_cost_ns() * timed_ops / timed_ns if timed_ns else 0.0
    return metrics, PER_LAYER_UNITS, samples


def _assemble(
    workload: Workload, samples: Samples, table: Table, exact: Dict[str, int]
) -> Dict[str, float]:
    metrics = {name: 0.0 for name in PER_LAYER_UNITS}

    def ms(key: str) -> float:
        return table.mean(key) / 1e6

    def us(key: str) -> float:
        return table.mean(key) / 1e3

    tokenize_ms = ms("span:frontend.tokenize#probe")
    pycompile_ms = ms("span:codegen.pycompile#probe")
    pipeline_ms = ms("span:passes.pipeline")
    metrics.update({
        "frontend.tokenize_ms": tokenize_ms,
        "frontend.parse_ms": ms("span:frontend.parse_minic") - tokenize_ms,
        "frontend.lower_ms": ms("span:frontend.lower"),
        "ssa.mem2reg_ms": ms("span:ssa.mem2reg"),
        "interp.run_us": us("span:interp.run/call"),
        "interp.steps_per_s": table.mean("interp.steps_per_s"),
        "passes.pipeline_ms": pipeline_ms,
        "codemapper.overhead": (
            pipeline_ms / ms("span:passes.pipeline_null#probe")
            if table.mean("span:passes.pipeline_null#probe") else 0.0
        ),
        "core.deopt_plans_ms": ms("span:core.deopt_plans"),
        "core.forward_mapping_ms": ms("span:core.forward_mapping"),
        "core.backward_mapping_ms": ms("span:core.backward_mapping#probe"),
        "core.transfer_us": us("span:core.transfer#probe"),
        "core.continuation_build_ms": ms("span:core.continuation_build#probe"),
        "soundness.verify_ms": ms("span:soundness.verify"),
        "codegen.emit_ms": ms("span:codegen.compiled_artifact") - pycompile_ms,
        "codegen.pycompile_ms": pycompile_ms,
        "codegen.osr_stub_ms": ms("span:codegen.osr_stub"),
        "store.compile_source_ms": ms("span:store.compile_source"),
        "store.hydrate_ms": ms("span:store.hydrate"),
        "store.snapshot_ms": ms("span:store.snapshot"),
        "store.put_ms": ms("span:store.put"),
    })
    pass_spans = {"Spec": "SPEC", "Inline": "INLINE"}
    for name in PASS_NAMES:
        metrics[f"passes.{name}_ms"] = ms(f"span:passes.{pass_spans.get(name, name)}")

    # One warm call, self time per layer: each layer minus the one it calls.
    handle, runtime = us("call:engine.handle"), us("call:runtime.call")
    backend, generated = us("call:backend.run"), us("call:generated.code")
    metrics.update({
        "engine.facade_self_us": handle - runtime,
        "runtime.dispatch_self_us": runtime - backend,
        "backend.run_self_us": backend - generated,
        "generated.code_us": generated,
        "profile.observe_us": us("call:profile.observe"),
        "events.publish_us": us("call:events.publish"),
    })

    # Exact counters, totals over the workload's programs.
    calls = exact["runtime.calls"]
    dispatches = exact["runtime.dispatch_hits"] + exact["runtime.dispatch_misses"]
    metrics.update({
        "frontend.source_lines": exact["frontend.source_lines"],
        "ssa.promoted_allocas": exact["ssa.promoted_allocas"],
        "passes.actions": exact["passes.actions"],
        "passes.guards_inserted": exact["passes.guards_inserted"],
        "passes.ir_shrink": exact["passes.instructions_opt"] / exact["passes.instructions_base"],
        "core.compensation_instrs": exact["core.compensation_instrs"],
        "soundness.obligations": exact["soundness.obligations"],
        "codegen.source_bytes": exact["codegen.source_bytes"],
        "codegen.structured_share": exact["codegen.structured"] / exact["codegen.artifacts"],
        "store.bytes_on_disk": exact["store.bytes_on_disk"],
        "store.restored_ratio": (
            exact["store.restored"] / exact["store.compiled"] if exact["store.compiled"] else 0.0
        ),
        "runtime.tier_ups": exact["runtime.tier_ups"],
        "runtime.guard_failures": exact["runtime.guard_failures"],
        "runtime.dispatch_hit_ratio": (
            exact["runtime.dispatch_hits"] / dispatches if dispatches else 0.0
        ),
        "runtime.versions_added": exact["runtime.versions_added"],
        "runtime.versions_retired": exact["runtime.versions_retired"],
        "runtime.invalidations": exact["runtime.invalidations"],
        "runtime.compiles_per_kcall": 1000.0 * exact["runtime.tier_ups"] / calls if calls else 0.0,
    })

    # The whole op through the real engine against its replayed stages.
    real = {name: median(times) for name, times in samples.engine.items() if times}
    stage_key = {"compile": "stage_sum", "store": "store_stage_sum", "call": "call:engine.handle"}
    staged = table.per_program(stage_key[workload.mirrored_by])
    both = [name for name in real if name in staged]
    if both:
        metrics["runtime.unattributed_ms"] = (
            sum(real[name] - staged[name] for name in both) / len(both) / 1e6
        )
        metrics["harness.trace_overhead"] = median(staged[name] / real[name] for name in both)

    for label in TRANSITION_CLASSES:
        metrics[f"runtime.{label}_call_us_p50"] = median(samples.parts.get(label, ())) / 1e3
    for part in ("first_result", "save"):
        metrics[f"{part}_ms_p50"] = median(samples.parts.get(part, ())) / 1e6
    # Over single op samples, all kernels pooled: what a caller feels at a
    # phase boundary (too few slow ops per run to carry a bound).
    flat = [t for times in samples.engine.values() for t in times]
    metrics["op_us_p99"] = percentile(flat, 99) / 1e3
    metrics["op_us_p999"] = percentile(flat, 99.9) / 1e3
    for kernel in STEADY_KERNELS:
        metrics[f"kernel.{kernel}.us_p50"] = real.get(kernel, 0.0) / 1e3
        metrics[f"native.{kernel}.us_p50"] = median(samples.native.get(kernel, ())) / 1e3
    return metrics
