"""Cross-backend differential tests: interpreter vs closure-compiled.

Every workload in :mod:`repro.workloads` must behave *identically* on
both execution engines — same return values, same final environments,
same guard-failure points, same deoptimization live states — because
the runtime hops between engines mid-execution (profiled base runs
interpreted, optimized code runs compiled) and any divergence would
make an OSR transition unsound.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core import OSRTransDriver
from repro.core.bisimulation import (
    check_guarded_deopt,
    check_ir_osr_transition,
    check_multiframe_deopt,
)
from repro.ir import Interpreter, parse_function
from repro.ir.function import ProgramPoint
from repro.ir.interp import GuardFailure, Memory
from repro.ir.intrinsics import INTRINSICS
from repro.passes import (
    interprocedural_pipeline,
    speculative_pipeline,
    standard_pipeline,
)
from repro.engine import Engine, EngineConfig
from repro.vm import CompiledBackend, ValueProfile
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
    return Interpreter(), CompiledBackend()


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
def test_runtime_parity_with_the_interpreter(name):
    """Through tier-up, guard failure and deopt the engine answers what
    the interpreter answers on the base function."""
    base = speculative_function(name)
    engine = Engine.from_functions(
        speculative_function(name),
        config=EngineConfig(hotness_threshold=3, min_samples=2),
    )
    for violate in (False,) * 5 + (True,) * 4:
        args, memory = speculative_arguments(name, violate=violate)
        expected = Interpreter().run(base, args, memory=memory.copy()).value
        assert engine.call(name, args, memory=memory).value == expected
    stats = engine.stats(name)
    assert stats.compiled >= 1 and stats.osr_entries >= 1
    assert stats.guard_failures >= 1


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
    interp = Interpreter(module)
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
    interp = Interpreter(module)
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
    # ``None`` resumes on the interpreter.
    backend = None if backend_name == "interp" else CompiledBackend(module=module)
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
def test_runtime_parity_with_the_interpreter_interprocedural(name):
    """Same values as the interpreter, through inlining and multi-frame deopt."""
    entry = CALL_KERNEL_ENTRIES[name]
    oracle = call_kernel_module(name)
    engine = Engine.from_module(
        call_kernel_module(name),
        config=EngineConfig(hotness_threshold=3, min_samples=2, inline_min_calls=2),
    )
    for violate in (False,) * 6 + (True,) * 3:
        args, memory = call_kernel_arguments(name, violate=violate)
        expected = Interpreter(oracle).run(
            oracle.get(entry), args, memory=memory.copy()
        ).value
        assert engine.call(entry, args, memory=memory).value == expected
    stats = engine.stats(entry)
    assert stats.compiled >= 1 and stats.osr_entries >= 1


# ---------------------------------------------------------------------- #
# Undefined reads fail loudly in both tiers.
# ---------------------------------------------------------------------- #

#: OSR stubs landing with a partial environment: the registers the
#: landing state lacks stay unbound.  Each case reads one of them in a
#: way that must raise in both tiers and never hand back a value.
#: ``(name, source, landing point, environment)``.
UNDEFINED_READS = [
    (
        "stored value",
        """
func @f(n) {
entry:
  %a = alloca 4
  %b = (%a + 1)
  %x = (n + 1)
  store %b, %x
  %v = load %b
  ret %v
}
""",
        ProgramPoint("entry", 3),
        {"n": 3, "%a": 1, "%b": 2},
    ),
    (
        "store address",
        """
func @f(n) {
entry:
  %b = (n + 1)
  store %b, 7
  %v = load %b
  ret %v
}
""",
        ProgramPoint("entry", 1),
        {"n": 3},
    ),
    (
        "load address",
        """
func @f(n) {
entry:
  %b = (n + 1)
  %v = load %b
  ret %v
}
""",
        ProgramPoint("entry", 1),
        {"n": 3},
    ),
    (
        "undef",
        """
func @f(n) {
entry:
  %x = (n + 1)
  %u = undef
  ret %u
}
""",
        ProgramPoint("entry", 1),
        {"n": 3},
    ),
]


def _raised(run):
    """The exception type ``run`` raised; fails the test if it returned.

    The interpreter raises ``KeyError`` for an unbound register and
    ``ValueError`` for ``undef``; generated code raises ``TypeError`` or
    ``RuntimeError`` when it touches the undefined-register sentinel.
    """
    try:
        result = run()
    except (KeyError, TypeError, RuntimeError, ValueError) as error:
        return type(error)
    pytest.fail(f"returned {result.value!r} instead of raising")


@pytest.mark.parametrize(
    "source, point, env",
    [case[1:] for case in UNDEFINED_READS],
    ids=[case[0] for case in UNDEFINED_READS],
)
def test_stub_with_partial_environment_never_returns(source, point, env):
    function = parse_function(source)
    stub = CompiledBackend().compiled_artifact(function, point)
    _raised(lambda: Interpreter().resume(function, point, dict(env), memory=Memory()))
    _raised(lambda: stub(dict(env), Memory(), None))


def test_store_of_a_never_assigned_register_raises_at_a_normal_entry():
    # Not SSA: `x` is assigned on one path only, and the verifier checks
    # use-before-def for SSA functions alone.
    function = parse_function(
        """
func @f(c) {
entry:
  p = alloca 1
  br c ? set : join
set:
  x = 5
  jmp join
join:
  store p, x
  v = load p
  ret v
}
"""
    )
    compiled = CompiledBackend().compiled_artifact(function)
    assert compiled.invoke([1]).value == Interpreter().run(function, [1]).value == 5
    _raised(lambda: Interpreter().run(function, [0], memory=Memory()))
    _raised(lambda: compiled.invoke([0], Memory()))


# ---------------------------------------------------------------------- #
# Conditions read for their truth: branches and guards.
# ---------------------------------------------------------------------- #

CONDITIONS = [
    *(f"(a {op} b)" for op in ("==", "!=", "<", "<=", ">", ">=")),
    *(f"not((a {op} b))" for op in ("==", "!=", "<", "<=", ">", ">=")),
    "a",
    "not(a)",
    "not(not((a <= b)))",
]


@pytest.mark.parametrize("cond", CONDITIONS)
def test_conditions_read_for_their_truth_agree_across_tiers(cond):
    branch = parse_function(
        f"func @f(a, b) {{\nentry:\n  br {cond} ? yes : no\n"
        "yes:\n  ret 1\nno:\n  ret 0\n}"
    )
    guard = parse_function(f"func @g(a, b) {{\nentry:\n  guard {cond}\n  ret 1\n}}")
    for a in (-1, 0, 1):
        args = [a, 0]
        assert CompiledBackend().compiled_artifact(branch).invoke(args).value == (
            Interpreter().run(branch, args).value
        )
        outcomes = []
        for backend in (Interpreter(), CompiledBackend()):
            try:
                outcomes.append(backend.run(guard, args).value)
            except GuardFailure as failure:
                outcomes.append((failure.point, failure.previous_block))
        assert outcomes[0] == outcomes[1], (cond, a)


# ---------------------------------------------------------------------- #
# A stub reports the arrival block it was given until it takes an edge.
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "point, previous",
    [
        (ProgramPoint("body", 0), None),
        (ProgramPoint("body", 0), "head"),
        (ProgramPoint("head", 1), None),
        (ProgramPoint("head", 1), "entry"),
        (ProgramPoint("head", 1), "body"),
    ],
)
@pytest.mark.parametrize("k", [3, 5])
def test_stub_guard_failure_reports_the_given_arrival_block(
    guarded_loop, point, previous, k
):
    env = {"n": 4, "k": k, "%i.0": 1}
    failures = []
    for resume in (Interpreter().resume, CompiledBackend().run_from):
        with pytest.raises(GuardFailure) as excinfo:
            resume(
                guarded_loop, point, dict(env), memory=Memory(), previous_block=previous
            )
        failures.append(excinfo.value)
    interp_failure, compiled_failure = failures
    assert compiled_failure.point == interp_failure.point
    assert compiled_failure.previous_block == interp_failure.previous_block
    assert compiled_failure.env == interp_failure.env


# ---------------------------------------------------------------------- #
# A standalone compile resolves calls to intrinsics only.
# ---------------------------------------------------------------------- #


def test_standalone_compile_calls_intrinsics_and_refuses_other_callees():
    function = parse_function(
        "func @f(x) {\nentry:\n  r = call @gcd(x, 12)\n  ret r\n}"
    )
    assert CompiledBackend().compiled_artifact(function).invoke([18]).value == 6
    unknown = parse_function("func @f() {\nentry:\n  r = call @missing()\n  ret r\n}")
    with pytest.raises(KeyError):
        CompiledBackend().compiled_artifact(unknown).invoke([])


#: Arguments per intrinsic position: zero, one, and both signs on either side.
INTRINSIC_ARGUMENTS = (-7, -1, 0, 1, 2, 12)


@pytest.mark.parametrize("name", sorted(INTRINSICS))
def test_intrinsics_agree_with_their_python_implementation_on_both_tiers(name):
    intrinsic = INTRINSICS[name]
    params = [f"p{index}" for index in range(intrinsic.arity)]
    function = parse_function(
        f"func @f({', '.join(params)}) {{\nentry:\n"
        f"  r = call @{name}({', '.join(params)})\n  ret r\n}}"
    )
    compiled = CompiledBackend()
    for args in itertools.product(INTRINSIC_ARGUMENTS, repeat=intrinsic.arity):
        expected = int(intrinsic.impl(*args))
        assert Interpreter().run(function, list(args)).value == expected, (name, args)
        assert compiled.run(function, list(args)).value == expected, (name, args)
