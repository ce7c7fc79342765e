"""Tests for the speculative tier: guards, profiles, deopt, dispatched OSR."""

import pytest

from repro.core import OSRTransDriver, clone_for_optimization
from repro.core.bisimulation import check_guarded_deopt
from repro.engine import Engine, EngineConfig
from repro.ir import (
    GuardFailure,
    Interpreter,
    ProgramPoint,
    parse_function,
    print_function,
    run_function,
    verify_function,
)
from repro.ir.instructions import Branch, Guard, Jump
from repro.passes import SpeculativeGuards, speculative_pipeline
from repro.vm import ValueProfile
from repro.workloads import (
    SPECULATIVE_NAMES,
    speculative_arguments,
    speculative_function,
)

GUARDED_SRC = """
func @g(a) {
entry:
  guard (a == 7)
  r = (a + 1)
  ret r
}
"""


def _profiled(name, *, calls=6, min_samples=2):
    """A kernel plus a profile collected from warm base-tier runs."""
    function = speculative_function(name)
    profile = ValueProfile()
    interp = Interpreter(profiler=profile)
    for _ in range(calls):
        args, memory = speculative_arguments(name)
        interp.run(function, args, memory=memory)
    return function, profile.function(name)


class TestGuardInstruction:
    def test_parse_print_round_trip(self):
        f = parse_function(GUARDED_SRC)
        text = print_function(f)
        assert "guard (a == 7)" in text
        assert print_function(parse_function(text)) == text

    def test_holding_guard_is_transparent(self):
        f = parse_function(GUARDED_SRC)
        verify_function(f, require_ssa=True)
        assert run_function(f, [7]).value == 8

    def test_failing_guard_carries_live_state(self):
        f = parse_function(GUARDED_SRC)
        with pytest.raises(GuardFailure) as excinfo:
            run_function(f, [5])
        failure = excinfo.value
        assert failure.point == ProgramPoint("entry", 0)
        assert failure.env["a"] == 5
        assert failure.memory is not None

    def test_guard_survives_standard_pipeline(self):
        from repro.passes import PassManager, standard_pipeline

        f = parse_function(GUARDED_SRC)
        PassManager(standard_pipeline()).run(f)
        assert any(isinstance(i, Guard) for _, i in f.instructions())

    def test_provably_true_guard_is_deleted(self):
        from repro.passes import ConstantPropagationPass

        src = "func @t(a) {\nentry:\n  c = 7\n  guard (c == 7)\n  ret (a + c)\n}"
        f = parse_function(src)
        ConstantPropagationPass().run(f)
        assert not any(isinstance(i, Guard) for _, i in f.instructions())
        assert run_function(f, [3]).value == 10


class TestValueProfile:
    def test_monomorphic_and_polymorphic_registers(self):
        profile = ValueProfile()
        for i in range(10):
            profile.record_value("f", "mono", 42)
            profile.record_value("f", "poly", i)
        facts = profile.function("f").monomorphic_values(min_samples=4)
        assert facts == {"mono": 42}

    def test_histogram_overflow_disqualifies(self):
        from repro.vm.profile import MAX_DISTINCT_VALUES

        profile = ValueProfile()
        for i in range(MAX_DISTINCT_VALUES + 1):
            profile.record_value("f", "x", i)
        for _ in range(100):
            profile.record_value("f", "x", 0)
        assert profile.function("f").monomorphic_values(min_samples=1) == {}

    def test_branch_bias(self):
        profile = ValueProfile()
        point = ProgramPoint("loop", 3)
        for _ in range(20):
            profile.record_branch("f", point, True)
        biased = profile.function("f").biased_branches(min_samples=4)
        assert biased == {point: True}

    def test_mixed_branch_is_not_biased(self):
        profile = ValueProfile()
        point = ProgramPoint("loop", 3)
        for i in range(20):
            profile.record_branch("f", point, i % 2 == 0)
        assert profile.function("f").biased_branches(min_samples=4) == {}

    def test_interpreter_records_params_and_branches(self):
        function, fp = _profiled("dispatch")
        assert "kind" in fp.values
        assert fp.values["kind"].dominant() == (0, 1.0)
        assert fp.branches  # the loop's conditional branches were observed


class TestSpeculativeGuardsPass:
    def test_inserts_guards_and_prunes_cold_paths(self):
        function, fp = _profiled("dispatch")
        pair = OSRTransDriver(speculative_pipeline(fp, min_samples=2)).run(function)
        verify_function(pair.optimized, require_ssa=True)
        guards = pair.guard_points()
        assert guards, "speculation inserted no guards"
        # The kind != 0 dispatch arms must be gone from the optimized code.
        assert len(pair.optimized.block_labels()) < len(function.block_labels())

    def test_optimized_matches_base_on_warm_inputs(self):
        for name in SPECULATIVE_NAMES:
            function, fp = _profiled(name)
            pair = OSRTransDriver(speculative_pipeline(fp, min_samples=2)).run(function)
            args, memory = speculative_arguments(name)
            expected = run_function(function, args, memory=memory.copy()).value
            actual = Interpreter().run(pair.optimized, args, memory=memory.copy()).value
            assert actual == expected, name

    def test_branch_guard_replaces_branch_with_jump(self):
        function, fp = _profiled("clamp_sum")
        clone, mapper = clone_for_optimization(function)
        spec = SpeculativeGuards(fp, min_samples=2, speculate_values=False)
        assert spec.run(clone, mapper)
        # At least one biased branch became guard+jmp.
        jumps_after_guards = [
            block
            for block in clone.iter_blocks()
            if any(isinstance(i, Guard) for i in block.instructions)
            and isinstance(block.terminator, Jump)
        ]
        assert jumps_after_guards
        assert not any(
            isinstance(block.terminator, Branch)
            and any(isinstance(i, Guard) for i in block.instructions)
            for block in clone.iter_blocks()
        )

    def test_guard_anchor_maps_branch_guard_to_branch_point(self):
        function, fp = _profiled("clamp_sum")
        clone, mapper = clone_for_optimization(function)
        spec = SpeculativeGuards(fp, min_samples=2, speculate_values=False)
        spec.run(clone, mapper)
        for guard in spec.inserted_guards:
            point = clone.point_of(guard)
            original = mapper.corresponding_original_point(point)
            assert original is not None, f"guard at {point} has no deopt target"

    def test_every_guard_point_is_deopt_covered(self):
        for name in SPECULATIVE_NAMES:
            function, fp = _profiled(name)
            pair = OSRTransDriver(speculative_pipeline(fp, min_samples=2)).run(function)
            plans, uncovered = pair.deopt_plans()
            assert uncovered == [], name
            assert set(plans) == set(pair.guard_points())

    def test_no_profile_no_changes(self):
        function = speculative_function("dispatch")
        clone, mapper = clone_for_optimization(function)
        from repro.vm.profile import FunctionProfile

        assert not SpeculativeGuards(FunctionProfile()).run(clone, mapper)
        assert not SpeculativeGuards(None).run(clone, mapper)


class TestGuardedDeoptBisimulation:
    @pytest.mark.parametrize("name", SPECULATIVE_NAMES)
    def test_violating_input_round_trips_through_deopt(self, name):
        function, fp = _profiled(name)
        pair = OSRTransDriver(speculative_pipeline(fp, min_samples=2)).run(function)
        plans, uncovered = pair.deopt_plans()
        assert uncovered == []
        args, memory = speculative_arguments(name, violate=True)
        assert check_guarded_deopt(function, pair.optimized, plans, args, memory=memory)

    @pytest.mark.parametrize("name", SPECULATIVE_NAMES)
    def test_warm_input_never_deopts(self, name):
        function, fp = _profiled(name)
        pair = OSRTransDriver(speculative_pipeline(fp, min_samples=2)).run(function)
        plans, _ = pair.deopt_plans()
        args, memory = speculative_arguments(name)
        assert check_guarded_deopt(function, pair.optimized, plans, args, memory=memory)


def _speculation_engine(function, **overrides):
    config = EngineConfig(**{"hotness_threshold": 3, "min_samples": 2, **overrides})
    return Engine.from_functions(function, config=config)


class TestAdaptiveRuntimeSpeculation:
    def _warm(self, engine, name, calls):
        handle = engine.function(name)
        for _ in range(calls):
            args, memory = speculative_arguments(name)
            fn = handle.state.base
            expected = run_function(fn, args, memory=memory.copy()).value
            assert handle(*args, memory=memory) == expected

    @pytest.mark.parametrize("name", SPECULATIVE_NAMES)
    def test_full_tier_journey(self, name):
        function = speculative_function(name)
        # The canonical *single-version* journey: max_versions=1 keeps
        # repeated violations on the dispatched-continuation path rather
        # than growing a specialized version for the violating cluster.
        engine = _speculation_engine(function, max_versions=1)
        handle = engine.function(name)
        self._warm(engine, name, 5)
        stats = handle.stats
        assert stats.compiled == 1 and stats.speculative == 1
        assert stats.guards >= 1
        assert stats.guard_failures == 0
        assert handle.tier == "optimized"

        # First violating call: guard failure → deoptimizing OSR.
        args, memory = speculative_arguments(name, violate=True)
        expected = run_function(function, args, memory=memory.copy()).value
        assert handle(*args, memory=memory) == expected
        stats = handle.stats
        assert stats.guard_failures == 1
        assert stats.osr_exits == 1
        assert stats.dispatch_misses == 1 and stats.dispatch_hits == 0
        assert stats.continuations == 1

        # Repeated violations: dispatched OSR, no re-deoptimization.
        for _ in range(3):
            args, memory = speculative_arguments(name, violate=True)
            expected = run_function(function, args, memory=memory.copy()).value
            assert handle(*args, memory=memory) == expected
        stats = handle.stats
        assert stats.dispatch_hits == 3
        assert stats.osr_exits == 1, "dispatch must not re-deoptimize"
        kinds = [event.kind for event in engine.events]
        assert "deoptimizing-osr" in kinds and "dispatched-osr" in kinds

    def test_optimizing_osr_fires_mid_loop_on_triggering_call(self):
        function = speculative_function("dispatch")
        engine = _speculation_engine(function)
        self._warm(engine, "dispatch", 3)
        assert engine.stats("dispatch").osr_entries == 1
        assert any(event.kind == "optimizing-osr" for event in engine.events)

    def test_osr_entry_rejected_when_triggering_call_violates(self):
        # The call that crosses the hotness threshold itself violates the
        # speculation: the runtime must not jump over the entry guards.
        function = speculative_function("dispatch")
        engine = _speculation_engine(function)
        self._warm(engine, "dispatch", 2)
        args, memory = speculative_arguments("dispatch", violate=True)
        expected = run_function(function, args, memory=memory.copy()).value
        assert engine.call("dispatch", args, memory=memory).value == expected
        assert any(event.kind == "osr-entry-rejected" for event in engine.events)
        assert engine.stats("dispatch").osr_entries == 0

    def test_guard_failure_on_first_optimized_execution(self):
        # clamp_sum's cold-path guard sits inside the loop, so the
        # triggering call OSRs into the optimized code and then fails the
        # guard mid-loop — all within the first optimized execution.
        function = speculative_function("clamp_sum")
        engine = _speculation_engine(function)
        self._warm(engine, "clamp_sum", 2)
        args, memory = speculative_arguments("clamp_sum", violate=True)
        expected = run_function(function, args, memory=memory.copy()).value
        assert engine.call("clamp_sum", args, memory=memory).value == expected
        kinds = [event.kind for event in engine.events]
        assert "optimizing-osr" in kinds
        assert "deoptimizing-osr" in kinds
        assert engine.stats("clamp_sum").guard_failures == 1

    def test_deoptimize_at_unmapped_point_raises(self):
        function = speculative_function("dispatch")
        engine = _speculation_engine(function, hotness_threshold=1)
        handle = engine.function("dispatch")
        args, memory = speculative_arguments("dispatch")
        handle.call(args, memory=memory)
        with pytest.raises(KeyError):
            handle.deoptimize_at(
                ProgramPoint("no.such.block", 0),
                [0, 0, 0],
                memory=None,
            )

    def test_continuation_is_wellformed_and_specialized(self):
        function = speculative_function("dispatch")
        engine = _speculation_engine(function)
        self._warm(engine, "dispatch", 5)
        args, memory = speculative_arguments("dispatch", violate=True)
        engine.call("dispatch", args, memory=memory)
        state = engine.function("dispatch").state
        assert len(state.continuations) == 1
        cached = next(iter(state.continuations.values()))
        verify_function(cached.info.function)
        assert cached.info.function.entry_label.startswith("osr.entry")

    def test_speculation_disabled_runs_plain_pipeline(self):
        function = speculative_function("dispatch")
        engine = _speculation_engine(function, hotness_threshold=2, speculate=False)
        handle = engine.function("dispatch")
        for _ in range(3):
            args, memory = speculative_arguments("dispatch")
            expected = run_function(function, args, memory=memory.copy()).value
            assert handle(*args, memory=memory) == expected
        stats = handle.stats
        assert stats.compiled == 1
        assert stats.speculative == 0 and stats.guards == 0
