"""Extra experiment — the speculative tier and dispatched-OSR continuations.

The Deoptless argument (PAPERS.md): a guard failure need not abandon
optimized execution wholesale — repeated failures with the same
live-state shape can dispatch to a cached continuation specialized for
the deopt point.  This benchmark builds the full tier journey on the
``dispatch`` kernel, times the three failure-handling paths and asserts
the qualitative shape: the speculative version is smaller than the plain
optimized one, every violation is answered correctly, and repeated
violations hit the continuation cache instead of re-deoptimizing.
"""

import pytest

from repro.engine import Engine, EngineConfig
from repro.ir import run_function
from repro.workloads import speculative_arguments, speculative_function

KERNEL = "dispatch"


@pytest.fixture(scope="module")
def warmed_engine():
    function = speculative_function(KERNEL)
    engine = Engine.from_functions(
        function, config=EngineConfig(hotness_threshold=3, min_samples=2)
    )
    for _ in range(5):
        args, memory = speculative_arguments(KERNEL)
        engine.call(KERNEL, args, memory=memory)
    # Prime the continuation cache with one slow deopt.
    args, memory = speculative_arguments(KERNEL, violate=True)
    engine.call(KERNEL, args, memory=memory)
    return function, engine


def test_speculative_version_prunes_cold_paths(warmed_engine):
    function, engine = warmed_engine
    handle = engine.function(KERNEL)
    assert handle.version.speculative
    optimized = handle.state.versions[-1].version.optimized
    assert optimized.num_instructions() < function.num_instructions()
    assert len(optimized.block_labels()) < len(function.block_labels())


def test_warm_speculative_call(benchmark, warmed_engine):
    function, engine = warmed_engine
    args, memory = speculative_arguments(KERNEL)
    expected = run_function(function, args, memory=memory.copy()).value
    result = benchmark(lambda: engine.call(KERNEL, args, memory=memory.copy()).value)
    assert result == expected


def test_dispatched_osr_on_repeated_guard_failure(benchmark, warmed_engine):
    function, engine = warmed_engine
    args, memory = speculative_arguments(KERNEL, violate=True)
    expected = run_function(function, args, memory=memory.copy()).value
    before = engine.stats(KERNEL)
    assert before.continuations == 1  # primed by the fixture

    result = benchmark(lambda: engine.call(KERNEL, args, memory=memory.copy()).value)
    assert result == expected

    after = engine.stats(KERNEL)
    assert after.dispatch_hits > before.dispatch_hits
    # Every benchmarked violation was a cache hit: no new deoptimizing
    # OSR, no new continuation build.
    assert after.osr_exits == before.osr_exits
    assert after.continuations == before.continuations
