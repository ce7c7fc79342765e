"""The warm call path does per-call work only.

What depends on the version table is resolved by the table's writers
and what only a reader or a transition needs is built when it is asked
for; these tests pin the two places where that could silently change
what a caller sees:

* **Lazy return environment** — generated code returns its frame's
  ``locals()`` and ``ExecutionResult.env`` is translated on first read;
  it must still equal the interpreter's final environment on every
  steady-state kernel and on an OSR-stub entry, and a warm call that
  never reads it must never walk the name table.
* **Compiler-cache bound** — versions that leave the table are
  discarded from the compiled backend's cache, so it is bounded by the
  live table however long the engine thrashes, and an activation that
  outlives its version's retirement still finishes correctly.
"""

from __future__ import annotations

import pytest

from repro.engine import Engine, EngineConfig, OptimizingOSR, VersionRetired
from repro.ir.interp import Interpreter
from repro.vm import CompiledBackend, closure_compile
from repro.workloads import (
    CALL_KERNEL_NAMES,
    CALL_KERNEL_SOURCES,
    LOOP_KERNEL_NAMES,
    STRAIGHT_LINE_NAMES,
    benchmark_arguments,
    benchmark_function,
    call_kernel_arguments,
    polymorphic_arguments,
    polymorphic_function,
    straightline_arguments,
    straightline_function,
)

#: The steady workloads' configuration: defaults, synchronous compiles.
CONFIG = EngineConfig(compile_workers=0)
#: Eager tiering for the thrash tests.
EAGER = CONFIG.replace(hotness_threshold=3, min_samples=2)

#: The kernels of the ``steady_loops`` and ``steady_calls`` workloads.
STEADY_KERNELS = ("add",) + STRAIGHT_LINE_NAMES + CALL_KERNEL_NAMES + LOOP_KERNEL_NAMES


def _steady_engine(name, config=CONFIG):
    """A fresh engine for one steady kernel plus its ``(args, memory)``."""
    if name == "add":
        engine = Engine.from_source("func add(a, b) { return a + b; }", config=config)
        return engine, ([17, -4], None)
    if name in CALL_KERNEL_NAMES:
        engine = Engine.from_source(CALL_KERNEL_SOURCES[name], config=config)
        return engine, call_kernel_arguments(name, size=8)
    if name in STRAIGHT_LINE_NAMES:
        function, inputs = straightline_function(name), straightline_arguments(name)
    else:
        function, inputs = benchmark_function(name), benchmark_arguments(name)
    return Engine.from_functions(function, config=config), inputs


def _fresh(memory):
    return memory.copy() if memory is not None else None


# ---------------------------------------------------------------------- #
# Lazy return environment.
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("name", STEADY_KERNELS)
def test_returned_env_equals_the_interpreters(name):
    engine, (args, memory) = _steady_engine(name)
    for _ in range(6):
        engine.call(name, args, memory=_fresh(memory))
    entry = engine.function(name).state.versions[-1]
    result = engine.call(name, args, memory=_fresh(memory))
    assert result.backend == "compiled"
    # The same optimized code on the reference engine (residual calls
    # dispatch through the runtime on both).
    reference = Interpreter(natives=engine.runtime.opt_backend.natives).run(
        entry.version.optimized, args, memory=_fresh(memory)
    )
    assert result.value == reference.value
    assert result.env == reference.env
    assert result.env is result.env  # translated once, then kept
    engine.close()


def test_registers_undefined_on_the_taken_path_stay_absent():
    source = """
    func pick(a, b) {
      var r = 0;
      if (a > b) { var hi = a * 2; r = hi + 1; } else { var lo = b * 3; r = lo - 1; }
      return r;
    }
    """
    engine = Engine.from_source(source, config=CONFIG.replace(speculate=False))
    for _ in range(4):
        engine.call("pick", [9, 2])
    optimized = engine.function("pick").state.versions[-1].version.optimized
    registers = optimized.defined_variables() | set(optimized.params)
    for args in ([9, 2], [2, 9]):
        result = engine.call("pick", args)
        reference = Interpreter().run(optimized, args)
        assert result.backend == "compiled" and result.env == reference.env
        assert set(result.env) < registers  # one arm's registers never ran
    engine.close()


def test_osr_stub_entry_reports_the_interpreters_env(monkeypatch):
    # The call that triggers the (synchronous) compile enters the
    # optimized loop mid-flight through a compiled OSR entry stub; the
    # interpreter resumed at the same landing reports the same outcome.
    landings = []
    run_from = CompiledBackend.run_from

    def spy(self, function, point, env, *, memory=None, previous_block=None):
        landings.append((function, point, dict(env), _fresh(memory), previous_block))
        return run_from(
            self, function, point, env, memory=memory, previous_block=previous_block
        )

    monkeypatch.setattr(CompiledBackend, "run_from", spy)
    engine, (args, memory) = _steady_engine("bzip2")
    results = [engine.call("bzip2", args, memory=_fresh(memory)) for _ in range(3)]
    assert any(isinstance(event, OptimizingOSR) for event in engine.events)
    assert results[-1].backend == "compiled"
    [(function, point, env, landing_memory, previous_block)] = landings
    reference = Interpreter(natives=engine.runtime.opt_backend.natives).resume(
        function, point, env, memory=landing_memory, previous_block=previous_block
    )
    assert (results[-1].value, results[-1].env) == (reference.value, reference.env)
    engine.close()


def test_warm_calls_never_walk_the_name_table(monkeypatch):
    walks = []
    make_snapshot = closure_compile._make_snapshot

    def counting(name_table):
        snapshot = make_snapshot(name_table)

        def counted(frame_locals):
            walks.append(len(name_table))
            return snapshot(frame_locals)

        return counted

    monkeypatch.setattr(closure_compile, "_make_snapshot", counting)
    engine, (args, memory) = _steady_engine("poly8")
    for _ in range(6):
        engine.call("poly8", args, memory=_fresh(memory))
    before = len(walks)
    results = [engine.call("poly8", args, memory=_fresh(memory)) for _ in range(100)]
    assert all(result.backend == "compiled" for result in results)
    assert len(walks) == before
    # The reader pays, once per result.
    env = results[0].env
    assert len(walks) == before + 1 and env
    assert results[0].env is env and "env=" in repr(results[0])
    assert len(walks) == before + 1
    shared = _fresh(memory)
    first, second = (engine.call("poly8", args, memory=shared) for _ in range(2))
    assert first == second and len(walks) == before + 3  # == reads both
    engine.close()


# ---------------------------------------------------------------------- #
# The compiler cache is bounded by the live table.
# ---------------------------------------------------------------------- #
KERNEL = "modal_sum"


def _modes():
    """``(args, memory)`` per mode of the 8-arm kernel and the expected values."""
    base = polymorphic_function(KERNEL)
    inputs = [polymorphic_arguments(KERNEL, mode) for mode in range(8)]
    return inputs, [
        Interpreter().run(base, args, memory=memory.copy()).value
        for args, memory in inputs
    ]


def _thrash(engine, rounds, inputs, expected):
    """``rounds`` times a block of 8 calls in each mode: more modes than slots."""
    for _ in range(rounds):
        for (args, memory), value in zip(inputs, expected):
            for _ in range(8):
                assert engine.call(KERNEL, args, memory=memory).value == value


def test_compiler_cache_is_bounded_by_the_live_table():
    inputs, expected = _modes()
    engine = Engine.from_functions(
        polymorphic_function(KERNEL), config=EAGER.replace(max_versions=4)
    )
    cache = engine.runtime.opt_backend._cache
    sizes = []
    for _ in range(5):  # 200 blocks of 8 calls, 8 modes over 4 slots
        _thrash(engine, 5, inputs, expected)
        sizes.append(len(cache))
    state = engine.function(KERNEL).state
    stats = engine.runtime.stats(KERNEL)
    assert stats["versions_retired"] > 150  # nearly every block retires one
    live = len(state.versions)
    # Repeated guard failures land in f_base through OSR entry stubs:
    # one per landing point, never a whole-function artifact.
    base_stubs = [point for function_id, point in cache if function_id == id(state.base)]
    assert base_stubs and None not in base_stubs
    # Per live version its entry artifact and the OSR stub its
    # mid-flight entry compiled, plus the base's landing stubs.
    assert live == 4 and len(cache) <= 2 * live + len(base_stubs)
    assert sizes[-1] <= sizes[0]  # flat, not linear in retirements
    live_functions = {id(entry.version.optimized) for entry in state.versions}
    live_functions.add(id(state.base))
    assert {function_id for function_id, _ in cache} <= live_functions
    # Discarding changed no result and no count.
    folded = engine.stats(KERNEL)
    assert folded.versions_retired == stats["versions_retired"]
    assert folded.versions_added == stats["versions_added"]
    engine.close()


def test_an_activation_outlives_its_versions_retirement():
    inputs, expected = _modes()
    engine = Engine.from_functions(
        polymorphic_function(KERNEL), config=EAGER.replace(max_versions=2)
    )
    for _ in range(4):
        for args, memory in inputs[:2]:
            for _ in range(8):
                engine.call(KERNEL, args, memory=memory)
    state = engine.function(KERNEL).state
    # What an in-flight activation of a specialized version selected.
    held = next(entry for entry in state.versions if not entry.key.generic)
    args = next(a for a, _ in inputs if held.key.matches(a))
    mode = [a for a, _ in inputs].index(args)
    retired_before = sum(isinstance(e, VersionRetired) for e in engine.events)
    _thrash(engine, 3, inputs, expected)
    assert all(live is not held for live in state.versions)
    assert sum(isinstance(e, VersionRetired) for e in engine.events) > retired_before
    cache = engine.runtime.opt_backend._cache
    assert all(function is not held.version.optimized for function, _ in cache.values())
    # The held entry still runs its own code; the backend, asked by
    # function, rebuilds what it discarded.
    memory = inputs[mode][1]
    assert held.run(args, memory.copy()).value == expected[mode]
    rebuilt = engine.runtime.opt_backend.run(
        held.version.optimized, args, memory=memory.copy()
    )
    assert rebuilt.value == expected[mode]
    engine.close()
