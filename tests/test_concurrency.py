"""Thread-safety of the adaptive engine: stress, regressions, semantics.

Six layers of coverage:

* **Shared-state regressions** — the bugs that blocked concurrency:
  the runtime-wide recursion-fuel counter (now per execution context),
  the base tier's step count (one interpreter per activation),
  the event bus's equality-based unsubscribe and live-list publish
  (now token-based over a snapshot), and the silently-overwriting
  ``register`` (now loud, with an explicit ``replace=True`` path).

* **Background compilation** — `compile_workers=0` preserves the
  synchronous compile-then-OSR behavior exactly; ``>= 1`` keeps the
  request path in the base tier until the finished version is
  atomically published, and surfaces compile failures instead of
  swallowing them in a worker.

* **Thread-stress differential suite** — 8 threads × sync/async
  compile hammering call-heavy kernels (including guard-violating
  inputs, so deopts, dispatched OSRs and invalidations happen
  *concurrently*), asserting every result matches
  the single-threaded interpreter oracle, no tier install is ever torn
  (every installed guard has a plan), and the event-derived
  ``EngineStats`` fold agrees exactly with the mechanism's counters.

* **Free-threaded scaling** — with the GIL off, 4 threads on one shared
  engine serve at least twice the calls of one (skipped under the GIL).

* **Profile sharding** — per-thread shards lose no samples and merge
  losslessly.

* **Program views** — racing first queries of one lazily memoised
  ``FunctionView`` give the answers a single-threaded view gives.
"""

from __future__ import annotations

import os
import sys
import threading
import time

import pytest

from repro.core.views import FunctionView
from repro.engine import (
    REREGISTERED,
    Engine,
    EngineConfig,
    EventBus,
    GuardFailed,
    Invalidated,
    RingBufferRecorder,
    StatsCollector,
    TierUp,
)
from repro.frontend import compile_program
from repro.ir.function import ProgramPoint
from repro.ir.interp import Interpreter, StepLimitExceeded
from repro.passes.base import Pass
from repro.vm import version as version_module
from repro.vm.profile import GENERIC_KEY, FunctionProfile, ShardedValueProfile
from repro.workloads import (
    CALL_KERNEL_ENTRIES,
    CALL_KERNEL_SOURCES,
    call_kernel_arguments,
    call_kernel_module,
)

DOWN_SRC = """
func down(n) {
  if (n < 1) { return 0; }
  return down(n - 1);
}
"""

BOOM_SRC = """
func boom(n) {
  if (n < 1) { return missing(1); }
  return boom(n - 1);
}
"""

SPIN_SRC = """
func spin(m) {
  var j = 0;
  while (j < m) { j = j + 1; }
  return j;
}
"""


def _engine(source: str, **config) -> Engine:
    config.setdefault("hotness_threshold", 3)
    config.setdefault("min_samples", 2)
    return Engine.from_source(source, config=EngineConfig(**config))


# ---------------------------------------------------------------------- #
# Satellite 1: per-execution-context recursion fuel.
# ---------------------------------------------------------------------- #
class TestRecursionFuel:
    def test_deep_recursion_exhausts_fuel_deterministically(self):
        engine = _engine(DOWN_SRC, max_call_depth=16)
        with pytest.raises(StepLimitExceeded):
            engine.call("down", [40])

    def test_exhaustion_does_not_poison_later_calls(self):
        engine = _engine(DOWN_SRC, max_call_depth=16)
        with pytest.raises(StepLimitExceeded):
            engine.call("down", [40])
        # The failing root call's context died with it: the next call
        # gets the full budget again (depth 15 = root + 15 activations).
        assert engine.call("down", [14]).value == 0

    def test_non_steplimit_unwind_does_not_leak_fuel(self):
        engine = _engine(BOOM_SRC, max_call_depth=32, speculate=False)
        with pytest.raises(KeyError):
            engine.call("boom", [10])  # @missing is not registered
        recovered = _engine(DOWN_SRC, max_call_depth=32)
        assert recovered.call("down", [30]).value == 0
        # Same engine instance: the interrupted unwind must not have
        # consumed budget for later calls either.
        with pytest.raises(KeyError):
            engine.call("boom", [10])
        with pytest.raises(KeyError):
            engine.call("boom", [0])

    def test_interleaved_threads_have_independent_fuel(self):
        """Eight threads each recurse close to the budget, concurrently.

        With the historical runtime-wide depth counter the interleaved
        activations charge each other and spuriously exhaust the budget;
        per-thread contexts keep every stack within its own fuel.
        """
        engine = _engine(DOWN_SRC, max_call_depth=40)
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force aggressive interleaving
        try:
            barrier = threading.Barrier(8)
            failures = []

            def worker():
                barrier.wait()
                try:
                    for _ in range(3):
                        assert engine.call("down", [35]).value == 0
                except BaseException as exc:  # noqa: BLE001 - recorded
                    failures.append(repr(exc))

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(old_interval)
        assert failures == []

    def test_threads_have_independent_step_budgets(self):
        """Two threads in the base tier: only the long input runs out.

        Each base-tier activation interprets with its own step count, so
        one thread exhausting ``step_limit`` charges nothing to the other.
        """
        engine = _engine(SPIN_SRC, hotness_threshold=10**6, step_limit=1500)
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force aggressive interleaving
        try:
            barrier = threading.Barrier(2)
            outcomes = {1000: [], 200: []}

            def worker(trips):
                barrier.wait()
                for _ in range(10):
                    try:
                        outcomes[trips].append(engine.call("spin", [trips]).value)
                    except StepLimitExceeded:
                        outcomes[trips].append("exhausted")

            threads = [threading.Thread(target=worker, args=(trips,)) for trips in outcomes]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(old_interval)
        assert outcomes == {1000: ["exhausted"] * 10, 200: [200] * 10}
        assert engine.stats("spin").compiled == 0

    def test_reentrant_calls_share_one_budget(self):
        # Nested calls still funnel into one logical stack's budget:
        # the recursion depth n+1 must exceed max_call_depth to fail.
        engine = _engine(DOWN_SRC, max_call_depth=8)
        assert engine.call("down", [7]).value == 0
        with pytest.raises(StepLimitExceeded):
            engine.call("down", [8])


# ---------------------------------------------------------------------- #
# Satellite 2: event-bus subscription semantics.
# ---------------------------------------------------------------------- #
class TestEventBusSubscriptions:
    def test_duplicate_subscription_tokens_are_independent(self):
        bus = EventBus()
        seen = []

        def subscriber(event):
            seen.append(event)

        first = bus.subscribe(subscriber)
        second = bus.subscribe(subscriber)
        bus.publish(TierUp("f"))
        assert len(seen) == 2  # two registrations, two deliveries

        first()  # must remove *its own* registration, not the other's
        bus.publish(TierUp("g"))
        assert len(seen) == 3
        second()
        bus.publish(TierUp("h"))
        assert len(seen) == 3
        assert bus.subscriber_count == 0

    def test_unsubscribe_is_idempotent(self):
        bus = EventBus()
        unsubscribe = bus.subscribe(lambda event: None)
        unsubscribe()
        unsubscribe()  # second call is a no-op, not an error
        assert bus.subscriber_count == 0

    def test_unsubscribing_during_publish_skips_nobody(self):
        bus = EventBus()
        order = []
        unsubscribers = {}

        def first(event):
            order.append("first")
            unsubscribers["first"]()  # self-removal mid-publish

        def second(event):
            order.append("second")

        unsubscribers["first"] = bus.subscribe(first)
        bus.subscribe(second)
        bus.publish(TierUp("f"))
        # Historically the live-list iteration skipped `second` here.
        assert order == ["first", "second"]
        bus.publish(TierUp("g"))
        assert order == ["first", "second", "second"]

    def test_unsubscribing_another_mid_publish_delivers_current_event(self):
        bus = EventBus()
        received = []
        second_unsub = {}

        def first(event):
            second_unsub["fn"]()

        def second(event):
            received.append(event)

        bus.subscribe(first)
        second_unsub["fn"] = bus.subscribe(second)
        bus.publish(TierUp("f"))
        # Snapshot semantics: the in-flight event still reaches `second`;
        # the *next* one does not.
        assert len(received) == 1
        bus.publish(TierUp("g"))
        assert len(received) == 1

    def test_concurrent_publish_loses_no_events(self):
        recorder = RingBufferRecorder(capacity=100_000)
        bus = EventBus(recorder)
        collector = StatsCollector()
        bus.subscribe(collector)
        threads = 8
        per_thread = 500
        barrier = threading.Barrier(threads)

        def worker():
            barrier.wait()
            for _ in range(per_thread):
                bus.publish(GuardFailed("f"))

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert recorder.total == threads * per_thread
        assert recorder.dropped == 0
        # The fold is locked: every event folded exactly once.
        assert collector.function("f").guard_failures == threads * per_thread
        # ... into the labeled stream too, under the same lock.
        by_reason = collector.snapshot().guard_failures
        assert sum(by_reason.values()) == threads * per_thread

    def test_concurrent_subscribe_unsubscribe_with_publish(self):
        bus = EventBus(RingBufferRecorder(capacity=1024))
        stop = threading.Event()
        errors = []

        def churn():
            try:
                while not stop.is_set():
                    unsubscribe = bus.subscribe(lambda event: None)
                    unsubscribe()
            except BaseException as exc:  # noqa: BLE001 - recorded
                errors.append(repr(exc))

        def publish():
            try:
                for _ in range(2000):
                    bus.publish(TierUp("f"))
            except BaseException as exc:  # noqa: BLE001 - recorded
                errors.append(repr(exc))

        churner = threading.Thread(target=churn)
        publisher = threading.Thread(target=publish)
        churner.start()
        publisher.start()
        publisher.join()
        stop.set()
        churner.join()
        assert errors == []
        assert bus.recorder.total == 2000


# ---------------------------------------------------------------------- #
# Satellite 3: registration collisions.
# ---------------------------------------------------------------------- #
ADD_V1 = """
func probe(a) {
  return a + 1;
}
"""

ADD_V2 = """
func probe(a) {
  return a + 100;
}
"""


class TestRegisterCollision:
    def test_duplicate_register_raises(self):
        engine = _engine(ADD_V1)
        module = compile_program(ADD_V2, module_name="again")
        with pytest.raises(ValueError, match="probe.*replace=True"):
            engine.register(module.get("probe"))

    def test_runtime_register_module_collision_raises(self):
        engine = _engine(ADD_V1)
        module = compile_program(ADD_V2, module_name="again")
        with pytest.raises(ValueError, match="already registered"):
            engine.runtime.register_module(module)

    def test_replace_publishes_invalidated_and_resets_state(self):
        engine = _engine(ADD_V1, hotness_threshold=2)
        for _ in range(4):
            assert engine.call("probe", [1]).value == 2
        assert engine.stats("probe").compiled == 1
        old_calls = engine.stats("probe").calls
        assert old_calls == 4

        module = compile_program(ADD_V2, module_name="again")
        engine.register(module.get("probe"), replace=True)

        invalidations = [
            event
            for event in engine.events
            if isinstance(event, Invalidated) and event.function == "probe"
        ]
        assert invalidations and invalidations[-1].reason == REREGISTERED

        # Fresh mechanism state *and* fresh stats fold: both report an
        # uncompiled function with zero calls, and they stay in exact
        # agreement through re-warming with the new body.
        stats = engine.stats("probe")
        assert stats.calls == 0 and stats.compiled == 0
        for _ in range(4):
            assert engine.call("probe", [1]).value == 101  # the new body
        assert engine.stats("probe").compiled == 1
        assert engine.stats("probe").as_dict() == engine.runtime.stats("probe")

    def test_replace_mid_ensure_compiled_terminates(self):
        """ensure_compiled must not spin on a superseded TieredFunction.

        A replace(replace=True) racing an ensure_compiled could leave
        the waiter looping claim → build → install-refused forever on
        the stale state object; the loop must re-resolve the name and
        finish against the new registration.
        """
        engine = _engine(ADD_V1, hotness_threshold=2)
        runtime = engine.runtime
        old_state = runtime.functions["probe"]
        module = compile_program(ADD_V2, module_name="again")
        engine.register(module.get("probe"), replace=True)
        # Simulate the race's losing side: a claimed compile against the
        # superseded state builds but is refused at install — quietly,
        # with the claim released, and without poisoning anything.
        with old_state.lock:
            old_state.compile_inflight = True
            old_state.compile_done = threading.Event()
        runtime._compile_now(old_state, GENERIC_KEY, sticky_errors=True)
        assert old_state.version is None
        assert not old_state.compile_inflight
        assert old_state.compile_error is None
        # And by-name compilation resolves against the new registration
        # and terminates (the old object would loop forever).
        version = runtime.ensure_compiled("probe")
        assert version is runtime.functions["probe"].version
        assert engine.call("probe", [1]).value == 101

    def test_replace_discards_stale_profile(self):
        engine = _engine(ADD_V1, hotness_threshold=2)
        for _ in range(4):
            engine.call("probe", [1])
        module = compile_program(ADD_V2, module_name="again")
        engine.register(module.get("probe"), replace=True)
        # Histograms recorded against the old body are gone; only what
        # the new body records is visible.
        assert engine.function("probe").profile.values == {}
        engine.call("probe", [7])
        assert engine.function("probe").profile.values != {}


# ---------------------------------------------------------------------- #
# Tentpole: background compilation pipeline.
# ---------------------------------------------------------------------- #
class _ExplodingPass(Pass):
    name = "explode"

    def run(self, function, mapper=None):
        raise RuntimeError("injected compiler failure")


def _explode_pipeline(monkeypatch) -> None:
    """Make every non-speculative build run :class:`_ExplodingPass`."""
    monkeypatch.setattr(version_module, "standard_pipeline", lambda: [_ExplodingPass()])


def _tier_up_publishers(engine: Engine) -> list:
    """The id of the thread that publishes each ``TierUp``, from now on."""
    publishers = []

    def note(event):
        if isinstance(event, TierUp):
            publishers.append(threading.get_ident())

    engine.subscribe(note)
    return publishers


class TestBackgroundCompilation:
    def test_compile_workers_knob_is_validated(self):
        with pytest.raises(ValueError, match="compile_workers"):
            EngineConfig(compile_workers=-1)
        assert EngineConfig(compile_workers=0).compile_workers == 0
        assert EngineConfig(compile_workers=4).compile_workers == 4

    def test_sync_mode_keeps_mid_call_osr(self):
        src = """
func spin(n) {
  var acc = 0;
  var i = 0;
  while (i < n) {
    acc = acc + i;
    i = i + 1;
  }
  return acc;
}
"""
        engine = Engine.from_source(
            src,
            config=EngineConfig(hotness_threshold=3, min_samples=2),
        )
        publishers = _tier_up_publishers(engine)
        for _ in range(3):
            assert engine.call("spin", [10]).value == 45
        # The third (triggering) call compiled synchronously and entered
        # the fresh version mid-execution.
        assert engine.stats("spin").osr_entries == 1
        # ... so the caller paid the whole pipeline: it published the TierUp.
        assert publishers == [threading.get_ident()]

    def test_async_mode_publishes_off_thread(self):
        module = call_kernel_module("helper_loop")
        with Engine.from_module(
            module,
            config=EngineConfig(
                hotness_threshold=3,
                min_samples=2,
                inline_min_calls=2,
                compile_workers=2,
            ),
        ) as engine:
            publishers = _tier_up_publishers(engine)
            args, memory = call_kernel_arguments("helper_loop", size=12)
            oracle = None
            for _ in range(10):
                result = engine.call("helper_loop", args, memory=memory)
                oracle = result.value if oracle is None else oracle
                assert result.value == oracle
            assert engine.wait_for_compilation(timeout=30)
            # A compile worker, not this thread, published the tier-up.
            # Whether a version is installed right now is not asserted:
            # the early speculation may already have been refuted and
            # invalidated within these 10 calls.
            assert publishers and threading.get_ident() not in publishers
            # No mid-call OSR in background mode: the triggering call
            # stayed in the base tier.
            assert engine.stats("helper_loop").osr_entries == 0
            # Drive to the optimized steady state.  An async snapshot can
            # be taken before a callee's histograms converge; the runtime
            # then refutes the premature speculation (invalidate →
            # blacklist → recompile), so a bounded number of extra calls
            # may be needed — results must stay exact throughout.
            for _ in range(20):
                warm = engine.call("helper_loop", args, memory=memory)
                assert warm.value == oracle
                assert engine.wait_for_compilation(timeout=30)
                if engine.function("helper_loop").tier == "optimized":
                    break
            assert engine.function("helper_loop").tier == "optimized"
            # No request-path call ever paid a compile stall: every
            # TierUp was published by a compile worker.
            assert publishers and threading.get_ident() not in publishers

    def test_background_compile_failure_is_sticky_and_loud(self, monkeypatch):
        _explode_pipeline(monkeypatch)
        engine = _engine(ADD_V1, hotness_threshold=2, compile_workers=1, speculate=False)
        with engine:
            assert engine.call("probe", [1]).value == 2
            assert engine.call("probe", [1]).value == 2  # claims the compile
            assert engine.wait_for_compilation(timeout=30)
            with pytest.raises(RuntimeError, match="injected compiler failure"):
                engine.call("probe", [1])
            # Sticky: every subsequent call keeps failing loudly rather
            # than silently serving the base tier forever.
            with pytest.raises(RuntimeError, match="injected compiler failure"):
                engine.call("probe", [1])

    def test_sync_compile_failure_propagates_on_triggering_call(self, monkeypatch):
        _explode_pipeline(monkeypatch)
        engine = _engine(ADD_V1, hotness_threshold=2, compile_workers=0, speculate=False)
        assert engine.call("probe", [1]).value == 2
        with pytest.raises(RuntimeError, match="injected compiler failure"):
            engine.call("probe", [1])
        # Synchronous mode keeps the historical retry-per-call behavior.
        with pytest.raises(RuntimeError, match="injected compiler failure"):
            engine.call("probe", [1])

    def test_close_releases_pending_claims(self):
        engine = _engine(ADD_V1, hotness_threshold=2, compile_workers=1)
        engine.call("probe", [1])
        engine.close()
        # Past the threshold, after shutdown: the claim cannot be
        # submitted, the call is served by the base tier, and nothing
        # deadlocks or leaks a permanently-stuck in-flight flag.
        for _ in range(3):
            assert engine.call("probe", [1]).value == 2
        assert engine.wait_for_compilation(timeout=1)

    def test_deopt_mapping_waits_for_background_compile(self):
        with _engine(ADD_V1, hotness_threshold=2, compile_workers=1) as engine:
            engine.call("probe", [1])
            engine.call("probe", [1])
            points = engine.function("probe").deopt_points()
            assert points  # compiled (possibly waiting on the worker)
            assert engine.stats("probe").compiled == 1


# ---------------------------------------------------------------------- #
# Satellite 4 + tentpole: the thread-stress differential suite.
# ---------------------------------------------------------------------- #
STRESS_THREADS = 8
STRESS_KERNELS = ("helper_loop", "clamp_call")


def _oracle(kernel: str, args, memory) -> int:
    module = call_kernel_module(kernel)
    interp = Interpreter(module)
    return interp.run(module.get(CALL_KERNEL_ENTRIES[kernel]), args, memory=memory).value


@pytest.mark.parametrize("workers", (0, 2))
@pytest.mark.parametrize("kernel", STRESS_KERNELS)
def test_thread_stress_differential(workers, kernel):
    """8 threads, mixed regular/violating inputs, vs the interpreter oracle.

    Violating inputs make guards fail *while* other threads run the same
    optimized version, exercising concurrent deopt, dispatched OSR into
    f_base's compiled code and invalidation against the atomic-install
    machinery.
    """
    entry = CALL_KERNEL_ENTRIES[kernel]
    regular = call_kernel_arguments(kernel, size=12)
    violating = call_kernel_arguments(kernel, size=12, violate=True)
    expected_regular = _oracle(kernel, regular[0], regular[1].copy())
    expected_violating = _oracle(kernel, violating[0], violating[1].copy())

    engine = Engine.from_module(
        call_kernel_module(kernel),
        config=EngineConfig(
            hotness_threshold=3,
            min_samples=2,
            inline_min_calls=2,
            compile_workers=workers,
        ),
    )
    barrier = threading.Barrier(STRESS_THREADS)
    divergences = []
    errors = []

    def worker(index: int):
        violate = index % 2 == 1
        args, template = violating if violate else regular
        expected = expected_violating if violate else expected_regular
        barrier.wait()
        try:
            for _ in range(12):
                result = engine.call(entry, args, memory=template.copy())
                if result.value != expected:
                    divergences.append((index, result.value, expected))
        except BaseException as exc:  # noqa: BLE001 - recorded
            errors.append(repr(exc))

    with engine:
        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(STRESS_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert engine.wait_for_compilation(timeout=60)

    assert errors == []
    assert divergences == []

    for name in engine.function_names():
        # No torn installs: an installed version is complete — every
        # guard point of its optimized code has a deoptimization plan.
        state = engine.runtime.functions[name]
        version = state.version
        if version is not None:
            for point in version.pair.guard_points():
                assert point in version.plans
        # The event fold stayed exact under concurrency: the mechanism's
        # hand-maintained counters and the StatsCollector reduction must
        # agree on every field.
        assert engine.stats(name).as_dict() == engine.runtime.stats(name)

    total_calls = sum(
        engine.stats(name).calls
        for name in engine.function_names()
        if name == entry
    )
    assert total_calls == STRESS_THREADS * 12


# ---------------------------------------------------------------------- #
# Free-threaded builds: real parallelism must pay off.
# ---------------------------------------------------------------------- #
SCALING_BATCH = 40  # calls per thread per round


def _throughput(engine, entry, args, memory, threads: int) -> float:
    """Total calls/sec of ``threads`` workers hammering one shared engine."""
    barrier = threading.Barrier(threads + 1)
    errors = []

    def worker():
        local_memory = memory.copy()
        barrier.wait()
        try:
            for _ in range(SCALING_BATCH):
                engine.call(entry, args, memory=local_memory)
        except BaseException as exc:  # noqa: BLE001 - recorded
            errors.append(repr(exc))

    pool = [threading.Thread(target=worker) for _ in range(threads)]
    for thread in pool:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in pool:
        thread.join()
    elapsed = time.perf_counter() - start
    assert errors == []
    return threads * SCALING_BATCH / elapsed


def test_four_threads_scale_without_the_gil():
    """4 threads on one shared, warmed engine serve >= 2x the calls of 1.

    Under the GIL pure-Python kernels run at 1.0x whatever the locking,
    so the test is skipped there — unless the environment asked for a
    free-threaded run (``PYTHON_GIL=0``, the CI lane) and did not get
    one: the lane must not pass by silently measuring a GIL build.
    """
    if getattr(sys, "_is_gil_enabled", lambda: True)():
        if os.environ.get("PYTHON_GIL") == "0":
            pytest.fail("PYTHON_GIL=0 is set but the GIL is on: not a free-threaded run")
        pytest.skip("the GIL is on: threads cannot scale pure-Python work")
    for kernel in ("helper_loop", "chain"):
        entry = CALL_KERNEL_ENTRIES[kernel]
        args, memory = call_kernel_arguments(kernel, size=96)
        with _engine(CALL_KERNEL_SOURCES[kernel], inline_min_calls=2, compile_workers=1) as engine:
            for _ in range(10):
                engine.call(entry, args, memory=memory)
            assert engine.wait_for_compilation(timeout=120)
            assert engine.stats(entry).compiled, f"{kernel} never tiered up"
            # Best of three rounds: transient scheduler noise cancels.
            best = {
                threads: max(_throughput(engine, entry, args, memory, threads) for _ in range(3))
                for threads in (1, 4)
            }
        assert best[4] / best[1] >= 2.0, (kernel, best)


# ---------------------------------------------------------------------- #
# Program views: lazy fills under racing first queries.
# ---------------------------------------------------------------------- #
def _view_answers(view: FunctionView, points, registers) -> dict:
    return {
        point: (
            view.live_in(point),
            view.available_at(point),
            tuple(view.unique_reaching_definition(r, point) for r in registers),
        )
        for point in points
    }


def test_racing_first_view_queries_agree_with_one_thread():
    """Eight threads make the first queries of a view, each in its own order.

    Each lazy fill assigns a finished object in one statement, so a race
    can at worst compute an answer twice; no thread may see a partial one.
    Five rounds, each over a fresh view.
    """
    function = compile_program(CALL_KERNEL_SOURCES["helper_loop"]).functions[
        CALL_KERNEL_ENTRIES["helper_loop"]
    ]
    points = function.program_points()
    registers = sorted(function.defined_variables() | set(function.params))
    expected = _view_answers(FunctionView(function), points, registers)
    rounds = [FunctionView(function) for _ in range(5)]
    barrier = threading.Barrier(8)
    results, errors = [], []

    def worker(offset: int) -> None:
        order = points[offset:] + points[:offset]
        try:
            for shared in rounds:
                barrier.wait(timeout=60)
                results.append(_view_answers(shared, order, registers))
        except BaseException as exc:  # noqa: BLE001 - recorded
            errors.append(repr(exc))

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # force aggressive interleaving
    try:
        step = max(1, len(points) // 8)
        pool = [threading.Thread(target=worker, args=(n * step,)) for n in range(8)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(thread.is_alive() for thread in pool)
    assert errors == []
    assert len(results) == 8 * len(rounds)
    assert all(answers == expected for answers in results)


# ---------------------------------------------------------------------- #
# Profile sharding.
# ---------------------------------------------------------------------- #
class TestShardedProfile:
    def test_snapshot_races_recording_without_crashing(self):
        """merged() while the owner thread keeps inserting new keys.

        Without per-shard locking the snapshot's dict/Counter iteration
        races the recorder's inserts and raises ``RuntimeError:
        dictionary changed size during iteration`` — which the sticky
        background-compile error path would turn into a permanently
        poisoned function.
        """
        profile = ShardedValueProfile()
        stop = threading.Event()
        errors = []

        def recorder():
            try:
                serial = 0
                while not stop.is_set():
                    # Fresh register names force dict inserts (the racy
                    # structural mutation), not just counter bumps; the
                    # periodic discard keeps the profile small AND keeps
                    # the dicts *growing* for the whole test — a dict
                    # only trips concurrent iteration while its size
                    # changes.
                    key = serial % 512
                    profile.record_value("f", f"r{key}", serial % 7)
                    profile.record_branch("f", ProgramPoint("b", key), True)
                    serial += 1
                    if serial % 2048 == 0:
                        profile.discard("f")
            except BaseException as exc:  # noqa: BLE001 - recorded
                errors.append(repr(exc))

        thread = threading.Thread(target=recorder)
        thread.start()
        try:
            for _ in range(200):
                profile.merged()
                profile.function("f")
        except BaseException as exc:  # noqa: BLE001 - the regression
            errors.append(repr(exc))
        finally:
            stop.set()
            thread.join()
        assert errors == []

    def test_dead_thread_shards_are_retired_not_leaked(self):
        profile = ShardedValueProfile()
        for round_number in range(6):
            thread = threading.Thread(
                target=lambda: profile.record_value("f", "x", 1)
            )
            thread.start()
            thread.join()
        # All six recorder threads are dead: the next snapshot folds
        # their shards into the retained accumulator and drops them,
        # losing nothing.
        assert profile.merged().function("f").values["x"].samples == 6
        assert len(profile._shards) == 0
        # And the folded history keeps accumulating correctly.
        profile.record_value("f", "x", 1)
        assert profile.merged().function("f").values["x"].samples == 7

    def test_shards_merge_losslessly(self):
        profile = ShardedValueProfile()
        threads = 4
        per_thread = 1000
        barrier = threading.Barrier(threads)

        def worker(seed: int):
            barrier.wait()
            for i in range(per_thread):
                profile.record_value("f", "x", seed)
                profile.record_branch("f", ProgramPoint("b", 0), i % 2 == 0)

        pool = [threading.Thread(target=worker, args=(n,)) for n in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()

        merged = profile.function("f")
        assert merged.values["x"].samples == threads * per_thread
        branch = merged.branches[ProgramPoint("b", 0)]
        assert branch.samples == threads * per_thread

    def test_merged_snapshot_is_independent(self):
        profile = ShardedValueProfile()
        profile.record_value("f", "x", 1)
        snapshot = profile.function("f")
        profile.record_value("f", "x", 1)
        assert snapshot.values["x"].samples == 1
        assert profile.function("f").values["x"].samples == 2

    def test_merge_overflow_is_re_enforced_on_union(self):
        left = FunctionProfile()
        right = FunctionProfile()
        for value in range(5):
            for _ in range(3):
                left.values.setdefault("x", _fresh_register()).record(value)
        for value in range(5, 10):
            for _ in range(3):
                right.values.setdefault("x", _fresh_register()).record(value)
        assert not left.values["x"].overflowed
        assert not right.values["x"].overflowed
        left.merge(right)
        # 10 distinct values exceed the per-register histogram bound:
        # the merged register must not be reported monomorphic.
        assert left.values["x"].overflowed
        assert left.monomorphic_values(min_samples=1, min_ratio=0.5) == {}


def _fresh_register():
    from repro.vm.profile import RegisterProfile

    return RegisterProfile()
