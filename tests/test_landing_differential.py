"""Exhaustive OSR-landing differential: interpreter vs generated code.

The closure compiler has one emitter, so there is no second code
generator to fall back on when a landing point or a loop shape has no
structured spelling: every program point execution can reach must
compile, and resuming there must be indistinguishable from
:meth:`Interpreter.resume`.  Two corpora pin that:

* **every workload kernel**, base and optimized — benchmark, straight
  line, speculative (guards inserted from a warm profile, run with
  holding and with violating inputs), polymorphic and call kernels
  (inlined through the interprocedural pipeline);
* **a MiniC control-flow corpus** of the loop shapes that are not a
  single-exit natural loop — ``break``, early ``return``, both,
  ``continue``, a nested loop whose inner loop returns, a folded
  ``while (1)``, and a caller whose loop inlines that nested loop (the
  early return then has to leave two open ``while`` s: the exit tag).

For each function the test pauses the interpreter at every program
point the run reaches (``break_at``), then resumes the paused state on
both backends and compares the outcome: returned value, final
environment and memory, or — when a guard fails on the way — the
failure's point, environment, arrival block, reason and inline path.
Phi heads are covered from the terminators that reach them.  For the
control-flow corpus, *every* static landing point must also compile,
reached or not.
"""

from __future__ import annotations

import pytest

from repro.cfg import UnstructurableCFG
from repro.core import OSRTransDriver, ReconstructionMode
from repro.engine import Engine, EngineConfig
from repro.frontend import compile_program
from repro.ir import Interpreter
from repro.ir.expr import evaluate
from repro.ir.function import ProgramPoint
from repro.ir.instructions import Branch, Jump, Phi
from repro.ir.interp import GuardFailure, Memory
from repro.passes import (
    interprocedural_pipeline,
    speculative_pipeline,
    standard_pipeline,
)
from repro.vm import CompiledBackend, ValueProfile
from repro.workloads import (
    BENCHMARK_NAMES,
    CALL_KERNEL_ENTRIES,
    CALL_KERNEL_NAMES,
    POLYMORPHIC_NAMES,
    SPECULATIVE_NAMES,
    STRAIGHT_LINE_NAMES,
    benchmark_arguments,
    benchmark_function,
    call_kernel_arguments,
    call_kernel_module,
    polymorphic_arguments,
    polymorphic_function,
    polymorphic_phases,
    speculative_arguments,
    speculative_function,
    straightline_arguments,
    straightline_function,
)


# ---------------------------------------------------------------------- #
# The differential itself.
# ---------------------------------------------------------------------- #


def _outcome(run):
    """Everything observable about one resumed execution."""
    try:
        result = run()
    except GuardFailure as failure:
        return (
            "guard",
            failure.point,
            failure.env,
            failure.previous_block,
            failure.reason,
            failure.inline_path,
            failure.memory.snapshot(),
        )
    return ("value", result.value, result.env, result.memory.snapshot())


def _landings(function, args, memory, module):
    """Paused states at every point the run reaches: ``(point, env,
    memory, previous_block)``, phi heads included (entered from the
    terminator that reaches them, before the moves)."""
    interpreter = Interpreter(module)
    for point, inst in function.instructions():
        if isinstance(inst, Phi):
            continue  # never paused at: phis run with the edge
        try:
            paused = interpreter.run(
                function, args, memory=memory.copy(), break_at=point
            )
        except GuardFailure:
            continue  # a violating input fails a guard before the point
        if paused.stopped_at != point:
            continue  # not reached
        yield point, paused.env, paused.memory, paused.previous_block
        if isinstance(inst, Jump):
            target = inst.target
        elif isinstance(inst, Branch):
            taken = evaluate(inst.cond, paused.env) != 0
            target = inst.then_target if taken else inst.else_target
        else:
            continue
        if function.blocks[target].phis():
            yield ProgramPoint(target, 0), paused.env, paused.memory, point.block


def assert_landings_agree(function, inputs, module=None):
    """Resume every reached point of ``function`` on both backends."""
    interp = Interpreter(module)
    compiled = CompiledBackend(module=module)
    compiled.compiled_artifact(function)  # the whole function structures
    checked = 0
    for args, memory in inputs:
        for point, env, paused_memory, previous in _landings(
            function, args, memory, module
        ):
            compiled.compiled_artifact(function, point)  # ...and so does the stub
            reference, actual = (
                _outcome(
                    lambda: resume(
                        function,
                        point,
                        dict(env),
                        memory=paused_memory.copy(),
                        previous_block=previous,
                    )
                )
                for resume in (interp.resume, compiled.run_from)
            )
            assert actual == reference, f"@{function.name} diverges landing at {point}"
            checked += 1
    assert checked > 0
    return checked


def assert_guard_landings_agree(pair, inputs, module=None):
    """Resume f_base from every reached guard of a single-frame plan.

    Deoptimizing at a guard is sound whether or not its condition
    holds, so the paused state at each reached guard stands in for a
    failure there: the plan's transfer lands it at ``frame.target`` in
    f_base, on both backends, exactly as the runtime lands a failure.
    """
    plans, _ = pair.deopt_plans(ReconstructionMode.AVAIL)
    interp = Interpreter(module)
    compiled = CompiledBackend(module=module)
    checked = 0
    for args, memory in inputs:
        for point, env, paused_memory, previous in _landings(
            pair.optimized, args, memory, module
        ):
            plan = plans.get(point)
            if plan is None or plan.is_multiframe:
                continue
            frame = plan.frames[0]
            base = frame.function
            landing_env = frame.transfer(env)
            arrival = previous if previous in base.blocks else None
            reference, actual = (
                _outcome(
                    lambda: resume(
                        base,
                        frame.target,
                        dict(landing_env),
                        memory=paused_memory.copy(),
                        previous_block=arrival,
                    )
                )
                for resume in (interp.resume, compiled.run_from)
            )
            assert actual == reference, (
                f"@{base.name} diverges landing from guard {point} at {frame.target}"
            )
            checked += 1
    single = [plan for plan in plans.values() if not plan.is_multiframe]
    assert checked > 0 or not single, f"no single-frame guard of @{pair.base.name} reached"
    return checked


def _pair(function, pipeline=None):
    return OSRTransDriver(pipeline or standard_pipeline()).run(function)


def _optimized(function, pipeline=None):
    return _pair(function, pipeline).optimized


# ---------------------------------------------------------------------- #
# Corpus 1: every workload kernel, base and optimized.
# ---------------------------------------------------------------------- #


def _speculated(function, inputs, module=None, inline=False):
    """The guarded version pair a profile warmed on ``inputs`` produces;
    with ``inline``, module callees are spliced in first."""
    profile = ValueProfile()
    interpreter = Interpreter(module, profiler=profile)
    for _ in range(6):
        for args, memory in inputs:
            interpreter.run(function, args, memory=memory.copy())
    facts = profile.function(function.name)
    if not inline:
        return _pair(function, speculative_pipeline(facts, min_samples=2))
    return _pair(
        function,
        interprocedural_pipeline(
            facts,
            facts.clone(),
            resolve=lambda callee: module.get(callee) if callee in module else None,
            callee_profile=profile.function,
            min_samples=2,
            min_site_calls=2,
        ),
    )


def _kernel(name):
    """``(base, optimized pair, inputs, module)`` of one workload kernel."""
    if name in BENCHMARK_NAMES:
        function, inputs = benchmark_function(name), [benchmark_arguments(name)]
    elif name in STRAIGHT_LINE_NAMES:
        function, inputs = straightline_function(name), [straightline_arguments(name)]
    elif name in POLYMORPHIC_NAMES:
        function = polymorphic_function(name)
        inputs = [polymorphic_arguments(name, m) for m in polymorphic_phases(name)]
    elif name in SPECULATIVE_NAMES:
        function = speculative_function(name)
        warm = [speculative_arguments(name)]
        pair = _speculated(function, warm)
        return function, pair, warm + [speculative_arguments(name, violate=True)], None
    else:
        module = call_kernel_module(name)
        function = module.get(CALL_KERNEL_ENTRIES[name])
        warm = [call_kernel_arguments(name)]
        pair = _speculated(function, warm, module, inline=True)
        return function, pair, warm + [call_kernel_arguments(name, violate=True)], module
    return function, _pair(function), inputs, None


KERNELS = (
    *BENCHMARK_NAMES,
    *STRAIGHT_LINE_NAMES,
    *SPECULATIVE_NAMES,
    *POLYMORPHIC_NAMES,
    *CALL_KERNEL_NAMES,
)


@pytest.mark.parametrize("name", KERNELS)
def test_every_reached_point_of_every_kernel_lands_identically(name):
    base, pair, inputs, module = _kernel(name)
    assert_landings_agree(base, inputs, module)
    assert_landings_agree(pair.optimized, inputs, module)


@pytest.mark.parametrize("name", (*SPECULATIVE_NAMES, *CALL_KERNEL_NAMES))
def test_every_reached_guard_lands_in_base_identically(name):
    _, pair, inputs, module = _kernel(name)
    assert_guard_landings_agree(pair, inputs, module)


def test_reregistration_discards_every_artifact_of_the_old_base():
    """Guard failures may land in the old f_base's compiled code; a
    ``register(replace=True)`` must leave none of it cached."""
    engine = Engine.from_functions(
        speculative_function("dispatch"),
        config=EngineConfig(hotness_threshold=3, min_samples=2),
    )
    for violate in (False,) * 5 + (True,) * 3:
        args, memory = speculative_arguments("dispatch", violate=violate)
        engine.call("dispatch", args, memory=memory)
    runtime = engine.runtime
    old = runtime.functions["dispatch"]
    cache = runtime.opt_backend._cache
    assert old.dispatch_hits >= 1
    assert any(function is old.base for function, _ in cache.values())
    runtime.register(speculative_function("dispatch"), replace=True)
    dead = {id(old.base)} | {id(entry.version.optimized) for entry in old.versions}
    assert not [function for function, _ in cache.values() if id(function) in dead]


# ---------------------------------------------------------------------- #
# Corpus 2: the loop shapes MiniC can write beyond one-exit loops.
# ---------------------------------------------------------------------- #

CONTROL_FLOW = """
func brk(a, n, k) {
  var i = 0; var s = 0;
  while (i < n) {
    if (a[i] == k) { s = s + 100; break; }
    s = s + a[i];
    i = i + 1;
  }
  return s * 2 + i;
}
func early_ret(a, n, k) {
  var i = 0;
  while (i < n) {
    if (a[i] == k) { return i; }
    i = i + 1;
  }
  return 0 - 1;
}
func brk_ret(a, n, k) {
  var s = 0; var i;
  for (i = 0; i < n; i = i + 1) {
    var v = a[i];
    if (v == k) { break; }
    if (v < 0) { return s - v; }
    s = s + v;
  }
  var j = 0;
  while (j < 3) { s = s + j * i; j = j + 1; }
  return s;
}
func cont(a, n, k) {
  var s = 0; var i;
  for (i = 0; i < n; i = i + 1) {
    if (a[i] == k) { continue; }
    if (a[i] < 0) { s = s - 1; continue; }
    s = s + a[i];
  }
  return s;
}
func forever(a, n, k) {
  var i = 0;
  while (1) {
    if (i >= n) { break; }
    if (a[i] == k) { return 70 + i; }
    i = i + 1;
  }
  return i;
}
func scan(n, k) {
  var i = 0; var s = 0;
  while (i < n) {
    var j = 0;
    while (j < n) {
      if (s > k) { return s; }
      s = s + j;
      j = j + 1;
    }
    i = i + 1;
  }
  return s;
}
func driver(n, k, reps) {
  var t = 0; var r = 0;
  while (r < reps) {
    t = t + scan(n, k + r * 30);
    r = r + 1;
  }
  return t;
}
"""

ARRAY = [5, 3, -2, 9, 4, 9, 1]


def _array_inputs(*keys):
    inputs = []
    for key in keys:
        memory = Memory()
        base = memory.allocate(len(ARRAY))
        memory.write_array(base, ARRAY)
        inputs.append(([base, len(ARRAY), key], memory))
    return inputs


#: Inputs per corpus function, chosen so that every exit is taken.
CORPUS_INPUTS = {
    "brk": _array_inputs(9, 77),
    "early_ret": _array_inputs(4, 77),
    "brk_ret": _array_inputs(9, 3, 77),  # break / return (the -2) / run out
    "cont": _array_inputs(9, 77),
    "forever": _array_inputs(4, 77),
    "scan": [([6, 40], Memory()), ([3, 1000], Memory())],
    "driver": [([6, 40, 4], Memory()), ([3, 1000, 2], Memory())],
}


def _static_points(function):
    for block in function.iter_blocks():
        phis = len(block.phis())
        for index in range(len(block.instructions)):
            if not 0 < index < phis:
                yield ProgramPoint(block.label, index)


@pytest.mark.parametrize("name", CORPUS_INPUTS)
def test_control_flow_corpus_lands_identically(name):
    module = compile_program(CONTROL_FLOW)
    base = module.get(name)
    versions = [
        base,
        _optimized(base),
    ]
    pairs = [_speculated(base, CORPUS_INPUTS[name][:1], module)]
    if name == "driver":
        # The caller's loop with the callee's nested loop spliced in.
        pairs.append(_speculated(base, CORPUS_INPUTS[name], module, inline=True))
        inlined = pairs[-1].optimized
        assert not any("scan" in str(inst) for _, inst in inlined.instructions())
    versions += [pair.optimized for pair in pairs]
    compiled = CompiledBackend(module=module)
    for version in versions:
        for point in _static_points(version):
            compiled.compiled_artifact(version, point)  # never unstructurable
        assert_landings_agree(version, CORPUS_INPUTS[name], module)
    for pair in pairs:
        assert_guard_landings_agree(pair, CORPUS_INPUTS[name], module)


def test_early_return_through_two_loops_uses_the_exit_tag():
    module = compile_program(CONTROL_FLOW)
    inlined = _speculated(
        module.get("driver"), CORPUS_INPUTS["driver"], module, inline=True
    ).optimized
    source = CompiledBackend(module=module).compiled_artifact(inlined).source
    # Set on the exit edge, tested once after the inner `while`: per-exit
    # work only.
    assert "_x = 1" in source and "if _x == 1:" in source
    # A loop that merely breaks and returns needs no tag.
    plain = CompiledBackend().compiled_artifact(module.get("brk_ret")).source
    assert "_x" not in plain


def test_nested_early_return_through_engine():
    """The LCSSA regression: an exit block shared by two nested loops."""
    module = compile_program(CONTROL_FLOW)
    expected = Interpreter(module).run(module.get("driver"), [6, 40, 4]).value
    engine = Engine.from_source(
        CONTROL_FLOW, config=EngineConfig(hotness_threshold=2, min_samples=1)
    )
    for _ in range(4):
        assert engine.call("scan", [6, 40]).value == 45
        assert engine.call("driver", [6, 40, 4]).value == expected


# ---------------------------------------------------------------------- #
# Sequential code is not nesting; too deeply nested code is not compiled.
# ---------------------------------------------------------------------- #


def _flat(statement, count):
    body = "".join(statement.replace("#", str(i)) for i in range(count))
    return compile_program(f"func flat(a) {{ var s = 0; {body} return s; }}").get("flat")


@pytest.mark.parametrize(
    "statement, count, optimize",
    [
        ("if (a > #) { s = s + #; }", 250, True),
        # (Base only: the pass pipeline is quadratic in the number of loops.)
        ("var i# = 0; while (i# < 2) { s = s + a; i# = i# + 1; }", 250, False),
        # More loops than the 20 blocks Python lets a function nest.
        (
            "var j# = 0; while (j# < 9) { if (j# == a) { break; } j# = j# + 1; } "
            "s = s + j#;",
            30,
            True,
        ),
    ],
    ids=["ifs", "loops", "loops-with-break"],
)
def test_sequential_statements_do_not_nest(statement, count, optimize):
    function = _flat(statement, count)
    for version in (function, _optimized(function)) if optimize else (function,):
        compiled = CompiledBackend()
        source = compiled.compiled_artifact(version).source
        assert max(len(line) - len(line.lstrip()) for line in source.splitlines()) <= 24
        for arg in (0, 3, 300):
            reference = Interpreter().run(version, [arg])
            assert compiled.run(version, [arg]).value == reference.value


def test_too_deep_nesting_runs_on_the_interpreter():
    depth = 120
    source = (
        "func deep(a) { var s = 0; "
        + "".join(f"if (a > {i}) {{ s = s + 1; " for i in range(depth))
        + "}" * depth
        + " return s; }"
    )
    function = compile_program(source).get("deep")
    compiled = CompiledBackend()
    with pytest.raises(UnstructurableCFG):
        compiled.compiled_artifact(function)
    assert compiled.run(function, [50]).value == 50
    assert compiled.prepare(function)([500]).value == depth

    # Python compiles at most 20 nested loops.
    loops = range(21)
    source = (
        "func nest(n) { var s = 0; "
        + "".join(f"var i{i} = 0; while (i{i} < n) {{ " for i in loops)
        + "s = s + 1; "
        + "".join(f"i{i} = i{i} + 1; }} " for i in reversed(loops))
        + "return s; }"
    )
    function = compile_program(source).get("nest")
    with pytest.raises(UnstructurableCFG):
        compiled.compiled_artifact(function)
    assert compiled.run(function, [1]).value == 1
