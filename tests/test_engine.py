"""Tests for the Engine facade: typed config, pluggable policies, events.

Covers the public embedding API end to end: `EngineConfig` validation
, policy injection (`AlwaysCompile` / `NeverCompile` / a
counting policy that records every consultation), the bounded event
ring buffer, the bare `AdaptiveRuntime(EngineConfig)` mechanism, and the
acceptance round-trip — a frontend program driven through warm-up,
tier-up, guard failure and dispatched OSR with every
transition observed as a typed `RuntimeEvent` and `EngineStats`
agreeing with the mechanism's own `stats()` dict.
"""

from __future__ import annotations

import pytest

from repro.engine import (
    AlwaysCompile,
    DeoptimizingOSR,
    DispatchedOSR,
    Engine,
    EngineConfig,
    EventBus,
    GuardFailed,
    HotnessPolicy,
    Invalidated,
    MultiFrameDeopt,
    NeverCompile,
    OptimizingOSR,
    RingBufferRecorder,
    TierUp,
    TieringPolicy,
)
from repro.ir import run_function
from repro.ir.function import ProgramPoint
from repro.vm import AdaptiveRuntime
from repro.workloads import (
    CALL_KERNEL_SOURCES,
    call_kernel_arguments,
    speculative_arguments,
    speculative_function,
    speculative_source,
)

def _dispatch_engine(*, policy=None, **overrides):
    config = EngineConfig(**{"hotness_threshold": 3, "min_samples": 2, **overrides})
    return Engine.from_source(speculative_source("dispatch"), config=config,
                              policy=policy)


# ---------------------------------------------------------------------- #
# EngineConfig: a frozen, validated value.
# ---------------------------------------------------------------------- #


class TestEngineConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("hotness_threshold", 0),
            ("hotness_threshold", -3),
            ("invalidate_after", 0),
            ("min_samples", 0),
            ("min_ratio", 0.0),
            ("min_ratio", -0.5),
            ("min_ratio", 1.5),
            ("inline_min_calls", 0),
            ("max_callee_size", 0),
            ("max_inline_depth", 0),
            ("max_call_depth", -1),
            ("step_limit", 0),
            ("event_buffer_size", 0),
            ("opt_backend", "turbo"),
            ("opt_backend", "interp"),
            ("mode", "avail"),
        ],
    )
    def test_rejects_nonsense_knobs(self, field, value):
        with pytest.raises(ValueError) as excinfo:
            EngineConfig(**{field: value})
        message = str(excinfo.value)
        assert field in message
        if field == "opt_backend":
            assert "compiled" in message  # the one accepted value

    def test_defaults_are_valid_and_frozen(self):
        config = EngineConfig()
        assert config.hotness_threshold == 3
        assert config.event_buffer_size == 4096
        with pytest.raises(Exception):  # dataclasses.FrozenInstanceError
            config.hotness_threshold = 10

    def test_replace_revalidates(self):
        config = EngineConfig()
        assert config.replace(hotness_threshold=7).hotness_threshold == 7
        with pytest.raises(ValueError):
            config.replace(hotness_threshold=-1)


# ---------------------------------------------------------------------- #
# Policy injection.
# ---------------------------------------------------------------------- #


class CountingPolicy(HotnessPolicy):
    """The default policy, with every consultation recorded."""

    def __init__(self):
        self.consultations = {
            "should_compile": 0,
            "select_osr_point": 0,
            "should_invalidate": 0,
        }

    def should_compile(self, state, config):
        self.consultations["should_compile"] += 1
        return super().should_compile(state, config)

    def select_osr_point(self, state, candidates, loop_points, config):
        self.consultations["select_osr_point"] += 1
        return super().select_osr_point(state, candidates, loop_points, config)

    def should_invalidate(self, state, point, failures, config):
        self.consultations["should_invalidate"] += 1
        return super().should_invalidate(state, point, failures, config)


class TestPolicyInjection:
    def test_policies_satisfy_the_protocol(self):
        for policy in (HotnessPolicy(), AlwaysCompile(), NeverCompile(),
                       CountingPolicy()):
            assert isinstance(policy, TieringPolicy)

    def test_never_compile_never_tiers_up(self):
        engine = _dispatch_engine(policy=NeverCompile())
        handle = engine.function("dispatch")
        for _ in range(12):
            args, memory = speculative_arguments("dispatch")
            handle(*args, memory=memory)
        assert handle.tier == "base"
        assert handle.stats.compiled == 0
        assert not any(isinstance(event, TierUp) for event in engine.events)
        # The base tier still profiles.
        assert handle.profile.values

    def test_always_compile_tiers_up_on_first_call(self):
        engine = _dispatch_engine(policy=AlwaysCompile())
        handle = engine.function("dispatch")
        args, memory = speculative_arguments("dispatch")
        handle(*args, memory=memory)
        assert handle.stats.compiled == 1

    def test_counting_policy_sees_every_consultation(self):
        policy = CountingPolicy()
        engine = _dispatch_engine(policy=policy)
        for _ in range(5):
            args, memory = speculative_arguments("dispatch")
            engine.call("dispatch", args, memory=memory)
        for _ in range(2):
            args, memory = speculative_arguments("dispatch", violate=True)
            engine.call("dispatch", args, memory=memory)
        # Consulted on each of the three uncompiled calls; once compiled
        # the question is settled and not re-asked.
        assert policy.consultations["should_compile"] == 3
        assert policy.consultations["select_osr_point"] == 1

    def test_counting_policy_sees_invalidation_decisions(self):
        policy = CountingPolicy()
        config = EngineConfig(
            hotness_threshold=3, min_samples=2, inline_min_calls=2,
            invalidate_after=2,
        )
        engine = Engine.from_source(
            CALL_KERNEL_SOURCES["clamp_call"], config=config, policy=policy
        )
        for _ in range(6):
            args, memory = call_kernel_arguments("clamp_call")
            engine.call("clamp_call", args, memory=memory)
        for _ in range(3):
            args, memory = call_kernel_arguments("clamp_call", violate=True)
            engine.call("clamp_call", args, memory=memory)
        assert policy.consultations["should_invalidate"] >= 1
        assert engine.stats("clamp_call").invalidations >= 1

    def test_policy_selecting_bogus_osr_point_fails_loudly(self):
        class BogusPolicy(HotnessPolicy):
            def select_osr_point(self, state, candidates, loop_points, config):
                return ProgramPoint("no.such.block", 99)

        engine = _dispatch_engine(policy=BogusPolicy())
        with pytest.raises(ValueError, match="not a mapped"):
            for _ in range(4):
                args, memory = speculative_arguments("dispatch")
                engine.call("dispatch", args, memory=memory)


# ---------------------------------------------------------------------- #
# The bounded event recorder.
# ---------------------------------------------------------------------- #


class TestEventRecording:
    def test_ring_buffer_unit(self):
        recorder = RingBufferRecorder(capacity=3)
        bus = EventBus(recorder)
        for index in range(5):
            bus.publish(TierUp(f"f{index}"))
        assert len(recorder) == 3
        assert recorder.total == 5
        assert recorder.dropped == 2
        assert [event.function for event in recorder] == ["f2", "f3", "f4"]
        with pytest.raises(ValueError):
            RingBufferRecorder(capacity=0)

    def test_subscribers_fire_and_unsubscribe(self):
        bus = EventBus(RingBufferRecorder(8))
        seen = []
        unsubscribe = bus.subscribe(seen.append)
        bus.publish(TierUp("f"))
        unsubscribe()
        bus.publish(TierUp("g"))
        assert [event.function for event in seen] == ["f"]

    def test_unsubscribing_inside_a_callback_does_not_skip_peers(self):
        bus = EventBus()
        first_seen, second_seen = [], []

        def first(event):
            first_seen.append(event)
            unsubscribe_first()  # scoped observation: one event, then out

        unsubscribe_first = bus.subscribe(first)
        bus.subscribe(second_seen.append)
        bus.publish(TierUp("f"))
        bus.publish(TierUp("g"))
        # `second` must see BOTH events even though `first` removed
        # itself mid-delivery of the first one.
        assert [event.function for event in first_seen] == ["f"]
        assert [event.function for event in second_seen] == ["f", "g"]

    def test_engine_event_log_is_bounded_but_stats_stay_exact(self):
        # max_versions=1 keeps the violating calls bouncing off the same
        # guard (the multiverse would specialize them away after two).
        engine = _dispatch_engine(event_buffer_size=4, max_versions=1)
        for _ in range(5):
            args, memory = speculative_arguments("dispatch")
            engine.call("dispatch", args, memory=memory)
        # Every violating call publishes guard-failed + dispatched-osr,
        # quickly overflowing a 4-slot buffer.
        for _ in range(8):
            args, memory = speculative_arguments("dispatch", violate=True)
            engine.call("dispatch", args, memory=memory)
        assert len(engine.events) == 4
        assert engine.bus.recorder.dropped > 0
        # The stats reducer subscribed to the live stream, so eviction
        # does not lose counts.
        stats = engine.stats("dispatch")
        assert stats.guard_failures == 8
        assert stats.dispatch_hits == 7


# ---------------------------------------------------------------------- #
# The bare mechanism: AdaptiveRuntime built straight from an EngineConfig.
# ---------------------------------------------------------------------- #


class TestBareRuntime:
    def test_runtime_from_config_works_end_to_end(self):
        runtime = AdaptiveRuntime(EngineConfig(hotness_threshold=2, min_samples=2))
        function = speculative_function("dispatch")
        runtime.register(function)
        for _ in range(3):
            args, memory = speculative_arguments("dispatch")
            expected = run_function(function, args, memory=memory.copy()).value
            assert runtime.call("dispatch", args, memory=memory).value == expected
        assert runtime.stats("dispatch")["compiled"] == 1
        assert any(isinstance(event, TierUp) for event in runtime.bus.events())

    def test_tuning_knobs_are_config_fields_not_kwargs(self):
        with pytest.raises(TypeError):
            AdaptiveRuntime(EngineConfig(), hotness_threshold=5)
        with pytest.raises(TypeError):
            AdaptiveRuntime(hotness_threshold=3)


# ---------------------------------------------------------------------- #
# Guard-failure landings: first failure deopts, repeats dispatch.
# ---------------------------------------------------------------------- #

TWO_SPEC_SRC = """
func twospec(a, b, n) {
  var acc = 0;
  var i = 0;
  while (i < n) {
    acc = acc + a * 2 + b;
    i = i + 1;
  }
  return acc;
}
"""


class TestGuardFailureLanding:
    def test_first_failure_deopts_and_repeats_dispatch(self):
        from repro.ir.interp import Memory

        engine = Engine.from_source(
            TWO_SPEC_SRC, config=EngineConfig(hotness_threshold=3, min_samples=2)
        )
        handle = engine.function("twospec")
        for _ in range(5):  # warm: both a and b are monomorphic
            assert handle(1, 2, 8, memory=Memory()) == 32
        assert handle.speculative and handle.stats.guards >= 2
        observed = []
        engine.subscribe(observed.append)
        # Fail the guard on `a` twice, then the guard on `b` once.
        assert handle(9, 2, 8, memory=Memory()) == 160  # a: first, deopts
        assert handle(9, 2, 8, memory=Memory()) == 160  # a: repeat, dispatches
        assert handle(1, 7, 8, memory=Memory()) == 72   # b: first, deopts
        landings = [
            (type(event), event.point)
            for event in observed
            if isinstance(event, (DeoptimizingOSR, DispatchedOSR))
        ]
        guard_a, guard_b = landings[0][1], landings[2][1]
        assert guard_a != guard_b
        assert landings == [
            (DeoptimizingOSR, guard_a),
            (DispatchedOSR, guard_a),
            (DeoptimizingOSR, guard_b),
        ]
        stats = handle.stats
        assert stats.dispatch_hits == 1
        assert stats.dispatch_misses == 2 and stats.osr_exits == 2
        assert stats.as_dict() == engine.runtime.stats("twospec")


# ---------------------------------------------------------------------- #
# Acceptance: the full journey, observed as typed events.
# ---------------------------------------------------------------------- #


class TestEngineRoundTrip:
    def test_frontend_program_round_trips_with_typed_events(self):
        # The single-version journey end to end: with a multiverse the
        # third violating call would tier up a specialized version
        # instead of dispatching twice.
        engine = _dispatch_engine(max_versions=1)
        handle = engine.function("dispatch")
        observed = []
        unsubscribe = engine.subscribe(observed.append)

        oracle = speculative_function("dispatch")
        for _ in range(5):  # warm-up → tier-up → optimizing OSR
            args, memory = speculative_arguments("dispatch")
            expected = run_function(oracle, args, memory=memory.copy()).value
            assert handle(*args, memory=memory) == expected
        for _ in range(3):  # guard failure → deopt → dispatched OSR
            args, memory = speculative_arguments("dispatch", violate=True)
            expected = run_function(oracle, args, memory=memory.copy()).value
            assert handle(*args, memory=memory) == expected
        unsubscribe()

        kinds = [type(event) for event in observed]
        for expected_kind in (
            TierUp,
            OptimizingOSR,
            GuardFailed,
            DeoptimizingOSR,
            DispatchedOSR,
        ):
            assert expected_kind in kinds, expected_kind.__name__
        # Ordering: compiled before entered, failed before dispatched.
        assert kinds.index(TierUp) < kinds.index(OptimizingOSR)
        assert kinds.index(GuardFailed) < kinds.index(DispatchedOSR)
        # Every event names the function and renders the legacy tuple.
        assert all(event.function == "dispatch" for event in observed)

        stats = handle.stats
        assert stats.as_dict() == engine.runtime.stats("dispatch")
        assert stats.dispatch_hits == 2 and stats.osr_exits == 1

    def test_interprocedural_stats_agree_with_legacy(self):
        config = EngineConfig(
            hotness_threshold=3,
            min_samples=2,
            inline_min_calls=2,
        )
        engine = Engine.from_source(CALL_KERNEL_SOURCES["clamp_call"], config=config)
        for _ in range(6):
            args, memory = call_kernel_arguments("clamp_call")
            engine.call("clamp_call", args, memory=memory)
        for _ in range(4):
            args, memory = call_kernel_arguments("clamp_call", violate=True)
            engine.call("clamp_call", args, memory=memory)
        assert any(isinstance(event, MultiFrameDeopt) for event in engine.events)
        assert any(isinstance(event, Invalidated) for event in engine.events)
        for name in engine.function_names():
            assert engine.stats(name).as_dict() == engine.runtime.stats(name)

    def test_deopt_points_feed_deoptimize_at(self):
        engine = _dispatch_engine()
        handle = engine.function("dispatch")
        for _ in range(4):
            args, memory = speculative_arguments("dispatch")
            handle(*args, memory=memory)
        points = handle.deopt_points()
        assert points and all(isinstance(point, ProgramPoint) for point in points)
        args, memory = speculative_arguments("dispatch")
        oracle = run_function(
            handle.state.base, args, memory=memory.copy()
        ).value
        result = handle.deoptimize_at(points[0], args, memory=memory)
        assert result.value == oracle

    def test_from_source_registers_every_function(self):
        engine = Engine.from_source(CALL_KERNEL_SOURCES["clamp_call"])
        assert "clamp_call" in engine and "clampv" in engine
        with pytest.raises(KeyError):
            engine.function("nope")
