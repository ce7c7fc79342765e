"""Cross-backend differential tests: interpreter vs closure-compiled.

Every workload in :mod:`repro.workloads` must behave *identically* on
both execution engines — same return values, same final environments,
same guard-failure points, same deoptimization live states — because
the runtime hops between engines mid-execution (profiled base runs
interpreted, optimized code runs compiled) and any divergence would
make an OSR transition unsound.
"""

from __future__ import annotations

import pytest

from repro.core import OSRTransDriver
from repro.core.bisimulation import (
    check_guarded_deopt,
    check_ir_osr_transition,
    check_multiframe_deopt,
)
from repro.ir import Interpreter
from repro.ir.interp import GuardFailure
from repro.passes import (
    interprocedural_pipeline,
    speculative_pipeline,
    standard_pipeline,
)
from repro.engine import Engine, EngineConfig
from repro.vm import (
    CompiledBackend,
    InterpreterBackend,
    ValueProfile,
    resolve_backend,
)
from repro.workloads import (
    BENCHMARK_NAMES,
    CALL_KERNEL_ENTRIES,
    CALL_KERNEL_NAMES,
    SPECULATIVE_NAMES,
    STRAIGHT_LINE_NAMES,
    benchmark_arguments,
    benchmark_function,
    call_kernel_arguments,
    call_kernel_module,
    speculative_arguments,
    speculative_function,
    straightline_arguments,
    straightline_function,
)


def _workload(name):
    if name in STRAIGHT_LINE_NAMES:
        return straightline_function(name), straightline_arguments(name)
    if name in SPECULATIVE_NAMES:
        return speculative_function(name), speculative_arguments(name)
    return benchmark_function(name), benchmark_arguments(name)


ALL_WORKLOADS = (
    list(BENCHMARK_NAMES) + list(SPECULATIVE_NAMES) + list(STRAIGHT_LINE_NAMES)
)


@pytest.fixture(scope="module")
def backends():
    return InterpreterBackend(), CompiledBackend()


# ---------------------------------------------------------------------- #
# Result parity on every workload.
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_backends_agree_on_workload(name, backends):
    interp, compiled = backends
    function, (args, memory) = _workload(name)
    reference = interp.run(function, args, memory=memory.copy())
    actual = compiled.run(function, args, memory=memory.copy())
    assert actual.value == reference.value
    # The full final environment must agree too — not just the return
    # value — so any divergence is caught at the register that diverged.
    assert actual.env == reference.env
    assert actual.backend == "compiled"
    assert reference.backend == "interp"


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_backends_agree_after_optimization(name, backends):
    """The optimized (non-speculative) version agrees across engines."""
    interp, compiled = backends
    function, (args, memory) = _workload(name)
    pair = OSRTransDriver(standard_pipeline()).run(function)
    reference = interp.run(pair.optimized, args, memory=memory.copy())
    actual = compiled.run(pair.optimized, args, memory=memory.copy())
    assert actual.value == reference.value


# ---------------------------------------------------------------------- #
# Guard failures: identical points and identical deopt live states.
# ---------------------------------------------------------------------- #


def _speculative_pair(name, warm_runs=6):
    function = speculative_function(name)
    profile = ValueProfile()
    interp = Interpreter(profiler=profile)
    for _ in range(warm_runs):
        args, memory = speculative_arguments(name)
        interp.run(function, args, memory=memory)
    pair = OSRTransDriver(
        speculative_pipeline(profile.function(name), min_samples=2)
    ).run(function)
    return function, pair


@pytest.mark.parametrize("name", SPECULATIVE_NAMES)
def test_guard_failures_are_identical_across_backends(name, backends):
    interp, compiled = backends
    _, pair = _speculative_pair(name)
    plans, uncovered = pair.deopt_plans()
    assert not uncovered

    args, memory = speculative_arguments(name, violate=True)
    failures = []
    for backend in (interp, compiled):
        with pytest.raises(GuardFailure) as excinfo:
            backend.run(pair.optimized, args, memory=memory.copy())
        failures.append(excinfo.value)

    interp_failure, compiled_failure = failures
    assert compiled_failure.point == interp_failure.point
    assert compiled_failure.previous_block == interp_failure.previous_block
    assert compiled_failure.reason == interp_failure.reason
    # The raw live state at the guard is byte-identical...
    assert compiled_failure.env == interp_failure.env
    # ...and so is the transferred deopt landing state.
    transfer = plans[interp_failure.point].frames[0].transfer
    assert transfer(compiled_failure.env) == transfer(interp_failure.env)


@pytest.mark.parametrize("name", SPECULATIVE_NAMES)
def test_guarded_deopt_bisimulation_on_compiled_backend(name, backends):
    _, compiled = backends
    base, pair = _speculative_pair(name)
    plans, uncovered = pair.deopt_plans()
    assert not uncovered
    args, memory = speculative_arguments(name, violate=True)
    assert check_guarded_deopt(
        base, pair.optimized, plans, args, memory=memory, backend=compiled
    )


# ---------------------------------------------------------------------- #
# OSR entry stubs: compiled landings are bisimilar to interpreter resumes.
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("name", SPECULATIVE_NAMES)
def test_osr_entry_stubs_are_bisimilar(name, backends):
    _, compiled = backends
    base, pair = _speculative_pair(name)
    forward = pair.forward_mapping()
    args, memory = speculative_arguments(name)
    checked = 0
    for point in forward.domain():
        if checked >= 8:  # keep the matrix fast; points are homogeneous
            break
        assert check_ir_osr_transition(
            base,
            pair.optimized,
            forward,
            point,
            args,
            memory=memory,
            backend=compiled,
        )
        checked += 1
    assert checked > 0


# ---------------------------------------------------------------------- #
# The runtime end to end: same results and same tiering decisions.
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("name", SPECULATIVE_NAMES)
def test_runtime_parity_across_opt_backends(name):
    results = {}
    for backend_name in ("interp", "compiled"):
        function = speculative_function(name)
        engine = Engine.from_functions(
            function,
            config=EngineConfig(
                hotness_threshold=3, min_samples=2, opt_backend=backend_name
            ),
        )
        values = []
        for _ in range(5):
            args, memory = speculative_arguments(name)
            values.append(engine.call(name, args, memory=memory).value)
        for _ in range(4):
            args, memory = speculative_arguments(name, violate=True)
            values.append(engine.call(name, args, memory=memory).value)
        results[backend_name] = (
            values,
            engine.stats(name),
            [event.kind for event in engine.events],
        )

    interp_values, interp_stats, interp_events = results["interp"]
    compiled_values, compiled_stats, compiled_events = results["compiled"]
    assert compiled_values == interp_values
    # Identical tiering decisions: same compile/speculate outcome, same
    # OSR entries/exits, same guard failures, same continuation-cache
    # behaviour — the engines differ in speed only.
    assert compiled_stats == interp_stats
    assert compiled_events == interp_events


def test_resolve_backend_respects_env(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "interp")
    assert resolve_backend(None).name == "interp"
    monkeypatch.setenv("REPRO_BACKEND", "compiled")
    assert resolve_backend(None).name == "compiled"
    monkeypatch.delenv("REPRO_BACKEND")
    assert resolve_backend(None).name == "compiled"  # the default tier engine
    monkeypatch.setenv("REPRO_BACKEND", "no-such-engine")
    with pytest.raises(ValueError):
        resolve_backend(None)


# ---------------------------------------------------------------------- #
# Interprocedural parity: inlined code, multi-frame deopt, virtual stacks.
# ---------------------------------------------------------------------- #


def _interprocedural_pair(name, warm_runs=6):
    module = call_kernel_module(name)
    entry = CALL_KERNEL_ENTRIES[name]
    profile = ValueProfile()
    interp = Interpreter(module, profiler=profile)
    for _ in range(warm_runs):
        args, memory = call_kernel_arguments(name)
        interp.run(module.get(entry), args, memory=memory)
    caller_profile = profile.function(entry)
    pipeline = interprocedural_pipeline(
        caller_profile,
        caller_profile.clone(),
        resolve=lambda callee: module.get(callee) if callee in module else None,
        callee_profile=profile.function,
        min_samples=2,
        min_site_calls=2,
    )
    pair = OSRTransDriver(pipeline).run(module.get(entry))
    return module, pair


@pytest.mark.parametrize("name", CALL_KERNEL_NAMES)
def test_backends_agree_on_inlined_versions(name):
    module, pair = _interprocedural_pair(name)
    interp = InterpreterBackend(module=module)
    compiled = CompiledBackend(module=module)
    args, memory = call_kernel_arguments(name)
    reference = interp.run(pair.optimized, args, memory=memory.copy())
    actual = compiled.run(pair.optimized, args, memory=memory.copy())
    assert actual.value == reference.value
    assert actual.env == reference.env


def test_inlined_guard_failures_are_identical_across_backends():
    module, pair = _interprocedural_pair("clamp_call")
    plans, uncovered = pair.deopt_plans()
    assert not uncovered
    interp = InterpreterBackend(module=module)
    compiled = CompiledBackend(module=module)

    args, memory = call_kernel_arguments("clamp_call", violate=True)
    failures = []
    for backend in (interp, compiled):
        with pytest.raises(GuardFailure) as excinfo:
            backend.run(pair.optimized, args, memory=memory.copy())
        failures.append(excinfo.value)

    interp_failure, compiled_failure = failures
    assert compiled_failure.point == interp_failure.point
    assert compiled_failure.previous_block == interp_failure.previous_block
    assert compiled_failure.reason == interp_failure.reason
    # Both engines attach the same virtual call stack...
    assert compiled_failure.inline_path == interp_failure.inline_path
    assert compiled_failure.inline_path == plans[interp_failure.point].inline_path()
    # ...and the same raw live state, so every reconstructed frame's
    # environment is identical no matter which engine failed.
    assert compiled_failure.env == interp_failure.env
    plan = plans[interp_failure.point]
    assert plan.is_multiframe
    for frame in plan.frames:
        assert frame.transfer(compiled_failure.env) == frame.transfer(
            interp_failure.env
        )


@pytest.mark.parametrize("backend_name", ("interp", "compiled"))
def test_multiframe_deopt_bisimulation_per_backend(backend_name):
    module, pair = _interprocedural_pair("clamp_call")
    plans, uncovered = pair.deopt_plans()
    assert not uncovered
    backend = (
        InterpreterBackend(module=module)
        if backend_name == "interp"
        else CompiledBackend(module=module)
    )
    args, memory = call_kernel_arguments("clamp_call", violate=True)
    assert check_multiframe_deopt(
        pair.base,
        pair.optimized,
        plans,
        args,
        module=module,
        memory=memory,
        backend=backend,
    )


@pytest.mark.parametrize("name", CALL_KERNEL_NAMES)
def test_runtime_parity_across_opt_backends_interprocedural(name):
    """Same values, same tiering decisions, same multi-frame deopts."""
    results = {}
    for backend_name in ("interp", "compiled"):
        module = call_kernel_module(name)
        entry = CALL_KERNEL_ENTRIES[name]
        engine = Engine.from_module(
            module,
            config=EngineConfig(
                hotness_threshold=3,
                min_samples=2,
                inline_min_calls=2,
                opt_backend=backend_name,
            ),
        )
        values = []
        for _ in range(6):
            args, memory = call_kernel_arguments(name)
            values.append(engine.call(entry, args, memory=memory).value)
        for _ in range(3):
            args, memory = call_kernel_arguments(name, violate=True)
            values.append(engine.call(entry, args, memory=memory).value)
        results[backend_name] = (
            values,
            engine.stats(entry),
            [event.kind for event in engine.events],
        )

    interp_values, interp_stats, interp_events = results["interp"]
    compiled_values, compiled_stats, compiled_events = results["compiled"]
    assert compiled_values == interp_values
    assert compiled_stats == interp_stats
    assert compiled_events == interp_events
