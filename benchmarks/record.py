"""Record (and check) the speculative-tier and backend benchmark metrics.

Emits ``BENCH_speculation.json`` with three kinds of metrics:

* **counters** — deterministic facts about a scripted tiering scenario
  (guards inserted, deopt events, continuation-cache hit rate).  These
  must match the committed baseline exactly.

* **ratios** — wall-clock ratios between execution paths (OSR transition
  vs. straight run, guard-failure deopt vs. warm call, dispatched
  continuation vs. warm call).  Ratios are machine-speed independent to
  first order; the check compares them against the baseline within a
  multiplicative tolerance.

* **backend speedups** — ``interp_vs_compiled`` per kernel: how much
  faster the closure-compiled backend runs each straight-line and loop
  kernel than the tree-walking interpreter (compile time excluded; it is
  reported separately).  The check enforces both baseline drift *and* a
  hard **per-kernel** floor on the loop kernels (the
  ``LOOP_SPEEDUP_FLOORS`` table, overridable with repeated
  ``--speedup-floor KERNEL=RATIO`` flags): the floors sit just under
  what structured ``while``/``if`` code measures, so generated code
  that loses its loop shape trips them.  A loop kernel that is skipped
  outright *fails* the recording — it does not warn and drift past the
  gate.

* **event-bus overhead** — ``subscribed_vs_plain`` per kernel: wall-clock
  ratio of a steady state with one event subscriber attached versus a
  no-subscriber run (warm inline-heavy calls, plus the ``dispatch``
  kernel under repeated violations where events actually flow; the
  engine's own ``StatsCollector`` fold is subscribed on both sides, and
  nothing else folds events — the ``repro.ops`` exporter only renders
  it).  The check enforces a hard cap (``--event-overhead-limit``, default 5%):
  structured observability must be close to free.

* **inlining speedups** — ``inline_vs_noinline`` per call-heavy kernel:
  steady-state warm-call time of the module-level adaptive runtime with
  speculative inlining disabled vs enabled (same backend, same inputs).
  The check enforces a hard floor (``--inline-floor``, default 1.5) on
  at least ``--inline-floor-kernels`` (default 2) kernels: the
  interprocedural tier must measurably erase call overhead, not just
  pass its tests.

* **concurrent throughput** — ``concurrent_throughput`` per call-heavy
  kernel: total calls/sec with 1, 4 and 8 threads hammering one shared,
  warmed engine (``compile_workers=1``), plus ``scaling_4`` — the
  4-thread/1-thread ratio.  The recording also notes whether the
  interpreter's GIL was active: on a stock CPython build pure-Python
  execution cannot scale past ~1x no matter how correct the locking is,
  so the ``--check`` floor adapts — ``>= 2.0`` on a free-threaded
  build (real parallelism must pay off), ``>= 0.5`` under the GIL (the
  engine's locks must not *collapse* throughput under contention).  The
  ``compile_stall`` companion metric is GIL-independent: the worst
  single-call latency during cold warmup with synchronous compilation
  vs with a background worker — background compilation must shave the
  compile stall off the request path (``--stall-floor``, default 1.2).

* **polymorphic dispatch** — ``multiverse_vs_single`` per polymorphic
  kernel: the steady-state wall-clock ratio of a ``max_versions=4``
  engine over a ``max_versions=1`` engine on a phase-alternating input
  regime (a few hot ``mode`` values traded in blocks).  The multiverse
  engine keeps one arm-pruned specialized version per phase and entry
  dispatch routes each call to it; the single-version engine settles on
  one compromise version.  The recording hard-asserts the multiverse
  formed (>= 2 live versions), bounded its recompiles by
  ``max_versions`` and stopped deoptimizing in the steady state; the
  ``--polymorphic-floor`` gate (default 2x) requires the ratio to clear
  the floor on at least 2 of the 3 kernels.

* **verification overhead** — ``strict_vs_off_compile`` per loop
  kernel: the wall-clock ratio of building a speculative version *and*
  statically proving its deopt metadata sound (the
  ``verify_deopt=strict`` publication gate) over the bare build.  The
  check enforces a hard per-kernel cap (``--verify-overhead-limit``,
  default 0.15, i.e. 1.15x): the soundness proof must stay a small
  fraction of compile time or nobody will leave it on.

* **warm starts** — ``cold_vs_warm_start`` per call-heavy kernel: the
  worst single-call latency inside a cold engine's warmup window
  (profiled base-tier calls plus the synchronous tier-up stall) versus
  the same window on an engine opened against a populated artifact
  store (compiled tiers re-installed before the first call, zero
  ``TierUp`` events — asserted during recording).  The check enforces a
  hard floor (``--warm-floor``, default 2.0) on at least one kernel:
  persistence must visibly erase re-warming.

Usage::

    python benchmarks/record.py                      # record a fresh file
    python benchmarks/record.py --check              # compare vs baseline
    python benchmarks/record.py --repeats 50         # steadier timings

CI runs ``--check`` as the benchmark-regression guard and uploads the
fresh ``BENCH_*.json`` as a workflow artifact.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import sysconfig
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# Prefer an installed ``repro`` (CI installs with ``pip install -e .``) so
# this script exercises exactly the package the test jobs import; fall
# back to the in-tree sources for a plain checkout.
try:
    import repro  # noqa: F401
except ModuleNotFoundError:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import OSRTransDriver, perform_osr  # noqa: E402
from repro.engine import Engine, EngineConfig  # noqa: E402
from repro.ir import Interpreter  # noqa: E402
from repro.passes import speculative_pipeline  # noqa: E402
from repro.vm import (  # noqa: E402
    CompiledBackend,
    InterpreterBackend,
    ValueProfile,
)
from repro.workloads import (  # noqa: E402
    CALL_KERNEL_ENTRIES,
    CALL_KERNEL_NAMES,
    CALL_KERNEL_SOURCES,
    LOOP_KERNEL_NAMES,
    POLYMORPHIC_NAMES,
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

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_speculation.json"
DEFAULT_BASELINE = Path(__file__).resolve().parent / "BENCH_baseline.json"
KERNEL = "dispatch"

#: Kernels timed for the interpreter-vs-compiled speedup: every
#: straight-line kernel (they isolate per-instruction dispatch overhead)
#: plus a representative sample of the loop kernels, run on larger
#: inputs so loop residency dominates.  Only the loop kernels carry the
#: hard speedup floor.
BACKEND_LOOP_KERNELS = ("h264ref", "perlbench", "sjeng")
assert set(BACKEND_LOOP_KERNELS) <= set(LOOP_KERNEL_NAMES)
BACKEND_STRAIGHT_KERNELS = tuple(STRAIGHT_LINE_NAMES)
BACKEND_KERNEL_SIZE = 192

#: Hard per-kernel ``interp_vs_compiled`` floors for the loop kernels.
#: Structured code measures 50-75x (h264ref), 46-56x (perlbench) and
#: 57-64x (sjeng) across quiet and noisy runs; a block-dispatch loop
#: (the deleted second emitter) topped out at 38x, 25x and 31x on the
#: same inputs.  Each floor sits between the two, so the gate tolerates
#: runner variance yet trips if generated code loses its loop shape.
LOOP_SPEEDUP_FLOORS = {
    "h264ref": 40.0,
    "perlbench": 30.0,
    "sjeng": 40.0,
}
assert set(LOOP_SPEEDUP_FLOORS) == set(BACKEND_LOOP_KERNELS)

#: Floor applied to a baseline loop kernel with no table entry.
DEFAULT_SPEEDUP_FLOOR = 3.0


def _median_seconds(thunk, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        thunk()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _scenario_counters() -> dict:
    """Deterministic tiering scenario: warm, then repeated violations.

    The optimized-tier backend is pinned (rather than inherited from
    ``REPRO_BACKEND``) so a recording is comparable to the committed
    baseline no matter what the invoking shell exports.  Counters are
    backend-invariant anyway — the differential tests enforce that —
    but the timing ratios below are not.
    """
    function = speculative_function(KERNEL)
    engine = Engine.from_functions(
        function,
        config=EngineConfig(
            hotness_threshold=3, min_samples=2, opt_backend="compiled"
        ),
    )
    for _ in range(5):
        args, memory = speculative_arguments(KERNEL)
        engine.call(KERNEL, args, memory=memory)
    for _ in range(4):
        args, memory = speculative_arguments(KERNEL, violate=True)
        engine.call(KERNEL, args, memory=memory)
    stats = engine.stats(KERNEL)
    attempts = stats.dispatch_hits + stats.dispatch_misses
    return {
        "speculative": stats.speculative,
        "guards_inserted": stats.guards,
        "osr_entries": stats.osr_entries,
        "deopt_events": stats.osr_exits,
        "guard_failures": stats.guard_failures,
        "continuation_cache_hit_rate": (
            round(stats.dispatch_hits / attempts, 4) if attempts else 0.0
        ),
    }


def _timing_ratios(repeats: int) -> dict:
    function = speculative_function(KERNEL)

    # A speculative version pair built from a warm profile.
    profile = ValueProfile()
    interp = Interpreter(profiler=profile)
    for _ in range(6):
        args, memory = speculative_arguments(KERNEL)
        interp.run(function, args, memory=memory)
    pair = OSRTransDriver(
        speculative_pipeline(profile.function(KERNEL), min_samples=2)
    ).run(function)
    forward = pair.forward_mapping()
    osr_point = next(
        point for point in forward.domain() if point.block.startswith("while.body")
    )

    args, memory = speculative_arguments(KERNEL)
    straight = _median_seconds(
        lambda: Interpreter().run(pair.optimized, args, memory=memory.copy()),
        repeats,
    )
    transition = _median_seconds(
        lambda: perform_osr(
            function,
            pair.optimized,
            forward,
            osr_point,
            args,
            memory=memory.copy(),
            use_continuation=False,
        ),
        repeats,
    )

    # Runtime-level costs: a warm optimized call, a guard failure handled
    # by full deopt (+ continuation build), and a dispatched hit.  The
    # backend is pinned: these ratios depend on the engine, and the
    # committed baseline was recorded against the compiled tier.
    engine = Engine.from_functions(
        function,
        config=EngineConfig(
            hotness_threshold=7, min_samples=2, opt_backend="compiled"
        ),
    )
    for _ in range(7):  # six profiled base calls, the seventh compiles
        warm_args, warm_memory = speculative_arguments(KERNEL)
        engine.call(KERNEL, warm_args, memory=warm_memory)
    state = engine.function(KERNEL).state
    assert state.is_compiled and state.versions[-1].version.speculative

    def warm_call():
        call_args, call_memory = speculative_arguments(KERNEL)
        engine.call(KERNEL, call_args, memory=call_memory)

    def deopt_call():
        state.continuations.clear()  # force the slow path every time
        call_args, call_memory = speculative_arguments(KERNEL, violate=True)
        engine.call(KERNEL, call_args, memory=call_memory)

    def dispatch_call():
        call_args, call_memory = speculative_arguments(KERNEL, violate=True)
        engine.call(KERNEL, call_args, memory=call_memory)

    deopt_call()  # prime the continuation cache for dispatch_call
    dispatch_call()

    warm = _median_seconds(warm_call, repeats)
    deopt = _median_seconds(deopt_call, repeats)
    dispatch = _median_seconds(dispatch_call, repeats)

    return {
        "osr_transition_overhead": round(transition / straight, 4),
        "guard_deopt_cost": round(deopt / warm, 4),
        "dispatch_cost": round(dispatch / warm, 4),
    }


def _backend_speedups(repeats: int, dump_dir: Path = None) -> dict:
    """Interpreter-vs-compiled wall-clock ratio per kernel.

    Each kernel is compiled once up front (the warmup call also validates
    result parity); the timed region is pure execution, so the ratio
    measures steady-state engine speed, not compilation.  Compile time is
    reported separately as ``compile_seconds``.

    The generated source is written into ``dump_dir`` when given (CI
    uploads that directory next to the recording, so a perf question can
    start from the exact code that ran).
    """
    interp = InterpreterBackend(step_limit=50_000_000)
    compiled = CompiledBackend(step_limit=50_000_000)

    kernels = []
    for name in BACKEND_STRAIGHT_KERNELS:
        kernels.append((name, straightline_function(name), straightline_arguments(name)))
    for name in BACKEND_LOOP_KERNELS:
        kernels.append(
            (
                name,
                benchmark_function(name),
                benchmark_arguments(name, size=BACKEND_KERNEL_SIZE),
            )
        )

    speedups: dict = {}
    compile_seconds = 0.0
    for name, function, (args, memory) in kernels:
        start = time.perf_counter()
        artifact = compiled.compiled_artifact(function)  # pure lowering
        compile_seconds += time.perf_counter() - start
        if dump_dir is not None:
            dump_dir.mkdir(parents=True, exist_ok=True)
            (dump_dir / f"{name}.py").write_text(artifact.source)
        warm = compiled.run(function, args, memory=memory.copy())
        reference = interp.run(function, args, memory=memory.copy())
        if warm.value != reference.value:
            raise AssertionError(
                f"backend mismatch on {name}: interp={reference.value} "
                f"compiled={warm.value}"
            )
        interp_time = _median_seconds(
            lambda: interp.run(function, args, memory=memory.copy()), repeats
        )
        compiled_time = _median_seconds(
            lambda: compiled.run(function, args, memory=memory.copy()), repeats
        )
        speedups[name] = round(interp_time / compiled_time, 4)

    skipped = [name for name in BACKEND_LOOP_KERNELS if name not in speedups]
    if skipped:
        raise AssertionError(f"loop kernels skipped by the backend bench: {skipped}")
    loop_ratios = [speedups[name] for name in BACKEND_LOOP_KERNELS]
    return {
        "interp_vs_compiled": speedups,
        "loop_kernel_min_speedup": round(min(loop_ratios), 4),
        "loop_kernels": list(BACKEND_LOOP_KERNELS),
        "compile_seconds": round(compile_seconds, 4),
    }


#: Input size for the call-heavy kernels (loop-shaped ones; fib ignores it).
INLINE_KERNEL_SIZE = 96


def _inlining_speedups(repeats: int) -> dict:
    """Steady-state warm-call ratio: inlining disabled vs enabled.

    Both runtimes use the compiled optimized tier and identical inputs;
    the only difference is the interprocedural inliner.  Warm-up calls
    drive both through profiling, tier-up, and any speculative
    invalidation/recompile rounds before the timed region, so the ratio
    measures the steady state the tier settles into.
    """
    speedups: dict = {}
    for name in CALL_KERNEL_NAMES:
        entry = CALL_KERNEL_ENTRIES[name]
        times = {}
        for inline in (False, True):
            module = call_kernel_module(name)
            engine = Engine.from_module(
                module,
                config=EngineConfig(
                    hotness_threshold=3,
                    min_samples=2,
                    inline=inline,
                    inline_min_calls=2,
                    opt_backend="compiled",
                ),
            )
            args, memory = call_kernel_arguments(name, size=INLINE_KERNEL_SIZE)
            for _ in range(10):
                engine.call(entry, args, memory=memory)
            assert engine.stats(entry).compiled, f"{name} never tiered up"
            times[inline] = _median_seconds(
                lambda: engine.call(entry, args, memory=memory), repeats
            )
        speedups[name] = round(times[False] / times[True], 4)
    ranked = sorted(speedups.values(), reverse=True)
    return {
        "inline_vs_noinline": speedups,
        "second_best_speedup": ranked[1] if len(ranked) > 1 else 0.0,
        "call_kernels": list(CALL_KERNEL_NAMES),
    }


def _ab_medians(thunk_a, thunk_b, repeats: int):
    """Median seconds for two thunks, sampled *alternately*.

    Interleaving the samples cancels slow clock drift (thermal throttle,
    background load) that would bias a measure-all-A-then-all-B scheme —
    essential when the expected difference is a few percent.
    """
    samples_a, samples_b = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        thunk_a()
        samples_a.append(time.perf_counter() - start)
        start = time.perf_counter()
        thunk_b()
        samples_b.append(time.perf_counter() - start)
    return statistics.median(samples_a), statistics.median(samples_b)


#: Calls per timing sample in the event-overhead measurement; batching
#: amortizes timer resolution so a few-percent difference is resolvable.
EVENT_BATCH = 40

#: Extra measurement rounds taken (keeping the minimum ratio) when an
#: event-overhead sample exceeds the 2% noise slack.
EVENT_RETRIES = 2


def _event_overhead(repeats: int) -> dict:
    """Cost of the structured event bus: subscribed vs no-subscriber run.

    Two steady states are measured per ratio, on identical warmed
    engines differing only in one attached subscriber:

    * every inline-heavy call kernel in its warm steady state (no events
      flow — the ratio prices the bus's mere presence on the hot path);
    * the ``dispatch`` kernel under repeated violations (every call
      publishes guard-failed + dispatched-osr — the ratio prices live
      event delivery on the deopt path).

    The ``--check`` gate asserts every ratio stays under the configured
    limit (default 5%): observability must be close to free.

    The warm-kernel comparison is deliberately a null experiment (no
    event is published on a warm call, so the two engines execute the
    same path): its job is to *prove* the bus adds nothing to the hot
    path, which means any measured excess is scheduler noise.  To keep
    the hard CI gate from tripping on such noise, a ratio above a small
    slack is re-measured (up to ``EVENT_RETRIES`` more rounds) and the
    minimum is recorded — transient load washes out, a real systematic
    overhead survives every round.
    """

    def sink(event):
        pass

    def min_ratio(make_plain, make_subscribed, repeats: int) -> float:
        ratio = None
        for _ in range(1 + EVENT_RETRIES):
            base, with_bus = _ab_medians(make_plain(), make_subscribed(), repeats)
            sample = with_bus / base
            ratio = sample if ratio is None else min(ratio, sample)
            if ratio <= 1.02:
                break
        return round(ratio, 4)

    def warmed_call_engine(name, *, subscribe):
        entry = CALL_KERNEL_ENTRIES[name]
        engine = Engine.from_module(
            call_kernel_module(name),
            config=EngineConfig(
                hotness_threshold=3,
                min_samples=2,
                inline_min_calls=2,
                opt_backend="compiled",
            ),
        )
        if subscribe:
            engine.subscribe(sink)
        args, memory = call_kernel_arguments(name, size=INLINE_KERNEL_SIZE)
        for _ in range(10):
            engine.call(entry, args, memory=memory)
        assert engine.stats(entry).compiled, f"{name} never tiered up"

        def batch():
            for _ in range(EVENT_BATCH):
                engine.call(entry, args, memory=memory)

        return batch

    overheads: dict = {}
    for name in CALL_KERNEL_NAMES:
        overheads[name] = min_ratio(
            lambda name=name: warmed_call_engine(name, subscribe=False),
            lambda name=name: warmed_call_engine(name, subscribe=True),
            repeats,
        )

    def violating_engine(*, subscriber=None):
        engine = Engine.from_functions(
            speculative_function(KERNEL),
            config=EngineConfig(
                hotness_threshold=3, min_samples=2, opt_backend="compiled"
            ),
        )
        if subscriber is not None:
            engine.subscribe(subscriber)
        for _ in range(5):
            args, memory = speculative_arguments(KERNEL)
            engine.call(KERNEL, args, memory=memory)
        args, memory = speculative_arguments(KERNEL, violate=True)
        engine.call(KERNEL, args, memory=memory)  # prime the continuation

        def batch():
            for _ in range(EVENT_BATCH):
                call_args, call_memory = speculative_arguments(KERNEL, violate=True)
                engine.call(KERNEL, call_args, memory=call_memory)

        return batch

    overheads["dispatch_violating"] = min_ratio(
        lambda: violating_engine(subscriber=None),
        lambda: violating_engine(subscriber=sink),
        repeats,
    )

    return {
        "subscribed_vs_plain": overheads,
        "batch_calls": EVENT_BATCH,
        "max_overhead": round(max(overheads.values()), 4),
    }


#: Thread counts measured by the concurrent-throughput metric.
CONCURRENT_THREAD_COUNTS = (1, 4, 8)

#: Calls each thread performs per throughput measurement.
CONCURRENT_BATCH = 40

#: Kernels hammered by the concurrency metrics (a subset keeps the
#: bench-smoke wall time bounded; both are call-heavy and tier up with
#: inlined callees).
CONCURRENT_KERNELS = ("helper_loop", "chain")

#: Measurement rounds per configuration; the best round is kept, which
#: cancels transient scheduler noise the same way EVENT_RETRIES does.
CONCURRENT_ROUNDS = 3


def _gil_enabled() -> bool:
    checker = getattr(sys, "_is_gil_enabled", None)
    if checker is not None:
        return bool(checker())
    return not bool(sysconfig.get_config_var("Py_GIL_DISABLED"))


def _warmed_concurrent_engine(name: str):
    entry = CALL_KERNEL_ENTRIES[name]
    engine = Engine.from_module(
        call_kernel_module(name),
        config=EngineConfig(
            hotness_threshold=3,
            min_samples=2,
            inline_min_calls=2,
            opt_backend="compiled",
            compile_workers=1,
        ),
    )
    args, memory = call_kernel_arguments(name, size=INLINE_KERNEL_SIZE)
    for _ in range(10):
        engine.call(entry, args, memory=memory)
    if not engine.wait_for_compilation(timeout=120):
        raise AssertionError(f"{name}: background compile never finished")
    assert engine.stats(entry).compiled, f"{name} never tiered up"
    return engine, entry, args, memory


def _throughput(engine, entry, args, memory, threads: int) -> float:
    """Total calls/sec of ``threads`` workers hammering one shared engine."""
    barrier = threading.Barrier(threads + 1)
    errors = []

    def worker():
        local_memory = memory.copy()
        barrier.wait()
        try:
            for _ in range(CONCURRENT_BATCH):
                engine.call(entry, args, memory=local_memory)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(repr(exc))

    pool = [threading.Thread(target=worker) for _ in range(threads)]
    for thread in pool:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in pool:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise AssertionError(f"concurrent workers failed: {errors[:3]}")
    return threads * CONCURRENT_BATCH / elapsed


def _concurrent_throughput() -> dict:
    """Calls/sec at 1/4/8 threads per kernel, on one shared warmed engine.

    Each configuration is measured ``CONCURRENT_ROUNDS`` times and the
    best round kept.  ``scaling_4`` is the headline ratio the ``--check``
    gate floors; the per-thread-count absolute numbers are recorded for
    the artifact trail.  Under the GIL the honest expectation for
    pure-Python kernels is ~1x — the recording says so explicitly via
    ``gil_enabled`` instead of pretending threads parallelize work that
    the interpreter serializes.
    """
    results: dict = {}
    for name in CONCURRENT_KERNELS:
        engine, entry, args, memory = _warmed_concurrent_engine(name)
        with engine:
            per_count = {}
            for threads in CONCURRENT_THREAD_COUNTS:
                best = 0.0
                for _ in range(CONCURRENT_ROUNDS):
                    best = max(best, _throughput(engine, entry, args, memory, threads))
                per_count[str(threads)] = round(best, 2)
        per_count["scaling_4"] = round(per_count["4"] / per_count["1"], 4)
        per_count["scaling_8"] = round(per_count["8"] / per_count["1"], 4)
        results[name] = per_count
    return {
        "concurrent_throughput": results,
        "thread_counts": list(CONCURRENT_THREAD_COUNTS),
        "batch_calls": CONCURRENT_BATCH,
        "gil_enabled": _gil_enabled(),
        "min_scaling_4": round(
            min(kernel["scaling_4"] for kernel in results.values()), 4
        ),
    }


#: Measurement rounds for the compile-stall metric: the async side's
#: worst call is luck-shaped (it depends on whether a measured call
#: overlaps the one atomic ``compile()`` chunk of the background job),
#: so more rounds give the min-of-maxima a fair shot at a clean round.
STALL_ROUNDS = 4

#: Input size for the compile-stall measurement: small enough that a
#: base-tier call costs well under a millisecond, so the tier-up stall
#: (tens of pipeline passes + deopt-plan construction) dominates the
#: worst-call latency instead of drowning in interpreter time.
STALL_KERNEL_SIZE = 8


def _worst_warmup_latency(name: str, *, workers: int) -> float:
    """Max single-call latency across a cold engine's warmup calls.

    The very first call is excluded: it pays mode-independent cold-start
    costs (allocator warmup, import side effects), never the tier-up
    stall — the hotness threshold is above 1 — and its noise would sit
    in both maxima, washing the ratio toward 1.
    """
    entry = CALL_KERNEL_ENTRIES[name]
    engine = Engine.from_module(
        call_kernel_module(name),
        config=EngineConfig(
            hotness_threshold=3,
            min_samples=2,
            inline_min_calls=2,
            opt_backend="compiled",
            compile_workers=workers,
        ),
    )
    args, memory = call_kernel_arguments(name, size=STALL_KERNEL_SIZE)
    worst = 0.0
    with engine:
        for index in range(12):
            start = time.perf_counter()
            engine.call(entry, args, memory=memory)
            elapsed = time.perf_counter() - start
            if index > 0:
                worst = max(worst, elapsed)
        engine.wait_for_compilation(timeout=120)
    return worst


def _compile_stall() -> dict:
    """Worst-call latency during warmup: synchronous vs background compile.

    With ``compile_workers=0`` the call that crosses the hotness
    threshold pays the whole optimization pipeline inline; with a
    background worker no request-path call ever does (the publish even
    pre-lowers the backend artifact, so the first optimized call pays no
    setup either).  Each mode is sampled ``STALL_ROUNDS`` times and
    the *minimum* of the per-round maxima kept — a transient scheduler
    hiccup inflates one round's maximum, but the systematic compile
    stall survives every round.  The interpreter's thread switch
    interval is tightened during the measurement so a request call can
    preempt the compile worker promptly — the GIL otherwise hands the
    worker 5 ms slices, which is scheduling policy, not engine
    overhead.  One chunk of the background job is irreducibly atomic
    (the CPython ``compile()`` of the generated source holds the GIL
    for its whole duration), so a measured call that overlaps it is
    delayed by a few milliseconds no matter what — the floor is set
    below that bound, and quiet rounds routinely show 2-18x.  This win
    is GIL-independent: it is about latency on the request path, not
    CPU parallelism.
    """
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(0.0002)
    try:
        ratios: dict = {}
        for name in CONCURRENT_KERNELS:
            sync_worst = min(
                _worst_warmup_latency(name, workers=0)
                for _ in range(STALL_ROUNDS)
            )
            async_worst = min(
                _worst_warmup_latency(name, workers=1)
                for _ in range(STALL_ROUNDS)
            )
            ratios[name] = round(sync_worst / async_worst, 4)
    finally:
        sys.setswitchinterval(old_interval)
    return {
        "sync_vs_background_worst_call": ratios,
        "min_stall_ratio": round(min(ratios.values()), 4),
    }


#: Measurement rounds for the warm-start metric; like the compile-stall
#: metric, the minimum of the per-round worst-call latencies is kept on
#: each side so a transient scheduler hiccup cannot fake (or hide) the
#: systematic warmup cost.
WARM_START_ROUNDS = 4

#: Calls measured per engine in the warm-start metric (the cold side's
#: tier-up lands inside this window at hotness_threshold=3).
WARM_START_CALLS = 12


def _early_worst_call(engine, entry: str, name: str) -> float:
    """Worst single-call latency across an engine's first calls.

    Call 0 is excluded on both sides — it pays mode-independent
    cold-start costs (allocator warmup, import side effects), never the
    tier-up stall, and its noise would wash the cold/warm ratio toward 1.
    """
    args, memory = call_kernel_arguments(name, size=STALL_KERNEL_SIZE)
    worst = 0.0
    for index in range(WARM_START_CALLS):
        start = time.perf_counter()
        engine.call(entry, args, memory=memory)
        elapsed = time.perf_counter() - start
        if index > 0:
            worst = max(worst, elapsed)
    return worst


def _cold_vs_warm_start() -> dict:
    """Worst early-call latency: cold engine vs store-hydrated engine.

    The cold side pays profiling-tier calls plus the synchronous tier-up
    stall inside its warmup window; the warm side opens an
    :class:`~repro.store.persist.ArtifactStore` a previous engine
    published to, re-installs the compiled tier before the first call
    (zero ``TierUp`` events — asserted here, not just in the tests), and
    so never leaves the optimized steady state.  The ``--warm-floor``
    gate (default 2x) requires at least one kernel's ratio to clear the
    floor: persistence must visibly erase re-warming, not just round-trip.
    """
    import tempfile

    from repro.engine import TierUp

    config = EngineConfig(
        hotness_threshold=3,
        min_samples=2,
        inline_min_calls=2,
        opt_backend="compiled",
    )
    ratios: dict = {}
    restored: dict = {}
    with tempfile.TemporaryDirectory(prefix="repro-warmstart-") as tmp:
        for name in CONCURRENT_KERNELS:
            entry = CALL_KERNEL_ENTRIES[name]
            source = CALL_KERNEL_SOURCES[name]
            store_root = str(Path(tmp) / name)

            cold_worst = None
            for round_index in range(WARM_START_ROUNDS):
                engine = Engine.from_source(source, config=config)
                worst = _early_worst_call(engine, entry, name)
                cold_worst = worst if cold_worst is None else min(cold_worst, worst)
                if round_index == 0:
                    engine.save(store_root)  # seed the store once

            warm_worst = None
            for _ in range(WARM_START_ROUNDS):
                engine = Engine.open(source, store_root, config=config)
                if entry not in engine.restored_functions:
                    raise AssertionError(
                        f"{name}: @{entry} was not restored from the store"
                    )
                worst = _early_worst_call(engine, entry, name)
                tier_ups = [e for e in engine.events if isinstance(e, TierUp)]
                if tier_ups:
                    raise AssertionError(
                        f"{name}: warm-started engine published {len(tier_ups)} "
                        f"TierUp event(s); hydration should have pre-installed "
                        f"the compiled tier"
                    )
                warm_worst = worst if warm_worst is None else min(warm_worst, worst)

            ratios[name] = round(cold_worst / warm_worst, 4)
            restored[name] = sorted(engine.restored_functions)
    return {
        "cold_vs_warm_start": ratios,
        "best_warm_ratio": round(max(ratios.values()), 4),
        "min_warm_ratio": round(min(ratios.values()), 4),
        "warm_restored": restored,
        "warmup_calls": WARM_START_CALLS,
    }


def _verify_overhead(repeats: int) -> dict:
    """Compile-time cost of strict static verification, per loop kernel.

    Each kernel is profiled once; the timed A/B compares the full
    version build (speculative pipeline + deopt plans + forward
    mapping — what ``repro.vm.version.build_version`` does) against the same
    build followed by :func:`repro.analysis.soundness.verify_version`,
    sampled alternately so clock drift cancels.  The verified side also
    hard-asserts every obligation proves clean — a kernel the verifier
    flags is a correctness bug, not a slow benchmark.
    """
    from repro.analysis.soundness import verify_version
    from repro.vm.runtime import CompiledVersion

    ratios: dict = {}
    for name in LOOP_KERNEL_NAMES:
        function = benchmark_function(name)
        profile = ValueProfile()
        interp = Interpreter(profiler=profile)
        for _ in range(6):
            args, memory = benchmark_arguments(name)
            interp.run(function, args, memory=memory)
        kernel_profile = profile.function(name)

        def build(function=function, kernel_profile=kernel_profile):
            pair = OSRTransDriver(
                speculative_pipeline(kernel_profile, min_samples=2)
            ).run(function)
            plans, uncovered = pair.deopt_plans()
            assert not uncovered
            keep_alive = frozenset()
            for plan in plans.values():
                keep_alive |= plan.keep_alive()
            return CompiledVersion(
                pair=pair,
                plans=plans,
                forward_mapping=pair.forward_mapping(),
                keep_alive=keep_alive,
                speculative=bool(pair.guard_points()),
            )

        def build_and_verify(name=name, build=build):
            report = verify_version(build(), function_name=name)
            assert report.ok, report.trace()

        off_time, strict_time = _ab_medians(build, build_and_verify, repeats)
        ratios[name] = round(strict_time / off_time, 4)
    return {
        "strict_vs_off_compile": ratios,
        "max_verify_overhead": round(max(ratios.values()), 4),
        "kernels": list(LOOP_KERNEL_NAMES),
    }


#: Calls per phase block in the polymorphic-dispatch measurement; small
#: enough that a timed batch visits every phase several times, large
#: enough that a phase's calls amortize its first dispatch switch.
POLYMORPHIC_BLOCK = 8

#: Full phase cycles driven through each engine before timing, so both
#: regimes reach their steady state (the multiverse finishes growing its
#: per-phase versions; the single-version engine finishes refuting its
#: cross-phase speculations).
POLYMORPHIC_WARM_CYCLES = 5

#: Version-table bound of the multiverse engine under measurement.
POLYMORPHIC_MAX_VERSIONS = 4


def _polymorphic_dispatch(repeats: int) -> dict:
    """Phase-alternating steady state: version multiverse vs single version.

    Each polymorphic kernel dispatches every iteration through a long
    ``mode`` if-else chain, and the driver alternates between a few hot
    ``mode`` values in blocks — the workload the version multiverse
    exists for.  Two identically configured engines differ only in
    ``max_versions``: the single-version engine (the pre-multiverse
    behavior) settles on one compromise version, while the multiverse
    engine keeps one arm-pruned specialized version per phase cluster
    and entry dispatch routes each call to it.

    Recorded per kernel: the steady-state wall-clock ratio
    (``multiverse_vs_single``, sampled alternately so clock drift
    cancels), the live version count, and each engine's ``TierUp``
    total.  The recording hard-asserts what the ``--check`` floor can't
    see: the multiverse actually formed (>= 2 live versions), its
    recompile count stayed within ``max_versions`` (specialization must
    not degenerate into recompile churn), and its steady state stopped
    deoptimizing.  The ``--polymorphic-floor`` gate then requires the
    ratio to clear the floor (default 2x) on at least 2 kernels.
    """
    from repro.engine import TierUp

    speedups: dict = {}
    versions: dict = {}
    tier_ups: dict = {}
    for name in POLYMORPHIC_NAMES:
        function = polymorphic_function(name)
        per_phase = [
            (mode, polymorphic_arguments(name, mode))
            for mode in polymorphic_phases(name)
        ]
        engines = {}
        for max_versions in (1, POLYMORPHIC_MAX_VERSIONS):
            engine = Engine.from_functions(
                function,
                config=EngineConfig(
                    hotness_threshold=3,
                    min_samples=2,
                    opt_backend="compiled",
                    max_versions=max_versions,
                ),
            )
            for _ in range(POLYMORPHIC_WARM_CYCLES):
                for _mode, (args, memory) in per_phase:
                    for _ in range(POLYMORPHIC_BLOCK):
                        engine.call(name, args, memory=memory)
            engines[max_versions] = engine

        multi = engines[POLYMORPHIC_MAX_VERSIONS]
        stats = multi.stats(name)
        if stats.versions < 2:
            raise AssertionError(
                f"{name}: multiverse grew only {stats.versions} version(s) "
                f"after warmup; entry clustering never specialized"
            )
        compiles = sum(1 for event in multi.events if isinstance(event, TierUp))
        if compiles > POLYMORPHIC_MAX_VERSIONS:
            raise AssertionError(
                f"{name}: {compiles} TierUp events exceed "
                f"max_versions={POLYMORPHIC_MAX_VERSIONS}; the multiverse "
                f"is churning recompiles instead of reusing versions"
            )
        failures_before = stats.guard_failures

        def batch(engine=None):
            for _mode, (args, memory) in per_phase:
                for _ in range(POLYMORPHIC_BLOCK):
                    engine.call(name, args, memory=memory)

        single_time, multi_time = _ab_medians(
            lambda: batch(engines[1]),
            lambda: batch(engines[POLYMORPHIC_MAX_VERSIONS]),
            repeats,
        )
        steady_failures = multi.stats(name).guard_failures - failures_before
        if steady_failures:
            raise AssertionError(
                f"{name}: the multiverse steady state still took "
                f"{steady_failures} guard failure(s); a specialized version "
                f"carries a speculation its own phase violates"
            )
        speedups[name] = round(single_time / multi_time, 4)
        versions[name] = stats.versions
        tier_ups[name] = {
            "single": sum(
                1 for event in engines[1].events if isinstance(event, TierUp)
            ),
            "multiverse": compiles,
        }
    return {
        "multiverse_vs_single": speedups,
        "versions": versions,
        "tier_ups": tier_ups,
        "max_versions": POLYMORPHIC_MAX_VERSIONS,
        "phases": {name: list(polymorphic_phases(name)) for name in POLYMORPHIC_NAMES},
        "second_best_speedup": sorted(speedups.values(), reverse=True)[1],
    }


#: Recordable sections, in recording order.  ``--only`` narrows a run to
#: a subset (the free-threaded CI lane records just ``concurrency``);
#: the check gates only what was recorded.
SECTION_NAMES = (
    "counters",
    "ratios",
    "backend",
    "inlining",
    "events",
    "concurrency",
    "warm_start",
    "polymorphic",
    "verify_overhead",
)


def record(repeats: int, only=None, dump_sources: Path = None) -> dict:
    sections = {
        "counters": _scenario_counters,
        "ratios": lambda: _timing_ratios(repeats),
        "backend": lambda: _backend_speedups(repeats, dump_dir=dump_sources),
        "inlining": lambda: _inlining_speedups(repeats),
        "events": lambda: _event_overhead(repeats),
        "concurrency": lambda: {**_concurrent_throughput(), **_compile_stall()},
        "warm_start": _cold_vs_warm_start,
        "polymorphic": lambda: _polymorphic_dispatch(repeats),
        "verify_overhead": lambda: _verify_overhead(repeats),
    }
    assert set(sections) == set(SECTION_NAMES)
    chosen = [
        name for name in SECTION_NAMES if only is None or name in set(only)
    ]
    data: dict = {"kernel": KERNEL}
    for name in chosen:
        data[name] = sections[name]()
    data["meta"] = {
        "repeats": repeats,
        "sections": chosen,
        "gil_enabled": _gil_enabled(),
    }
    return data


def check(
    current: dict,
    baseline: dict,
    tolerance: float,
    speedup_floors: dict = None,
    inline_floor: float = 1.5,
    inline_floor_kernels: int = 2,
    event_overhead_limit: float = 0.05,
    concurrent_scaling_floor: float = None,
    stall_floor: float = 1.2,
    warm_floor: float = 2.0,
    polymorphic_floor: float = 2.0,
    polymorphic_floor_kernels: int = 2,
    verify_overhead_limit: float = 0.15,
) -> list:
    problems = []
    floors = dict(LOOP_SPEEDUP_FLOORS)
    floors.update(speedup_floors or {})

    # Polymorphic dispatch: a hard floor against the *current* recording
    # only (the ratio is machine-shaped).  At least
    # `polymorphic_floor_kernels` kernels must show the multiverse
    # holding its specialized steady state over the single-version
    # engine's compromise — the whole point of keeping multiple
    # per-profile versions live.
    polymorphic = current.get("polymorphic", {})
    if polymorphic:
        poly_ratios = polymorphic.get("multiverse_vs_single", {})
        cleared = [
            key for key, ratio in poly_ratios.items() if ratio >= polymorphic_floor
        ]
        if len(cleared) < polymorphic_floor_kernels:
            problems.append(
                f"polymorphic dispatch {poly_ratios}: the multiverse clears "
                f"the {polymorphic_floor}x floor on only {len(cleared)} "
                f"kernel(s) (need {polymorphic_floor_kernels})"
            )
        max_versions = polymorphic.get("max_versions", POLYMORPHIC_MAX_VERSIONS)
        for key, counts in polymorphic.get("tier_ups", {}).items():
            if counts.get("multiverse", 0) > max_versions:
                problems.append(
                    f"polymorphic dispatch on {key}: "
                    f"{counts.get('multiverse')} recompiles exceed "
                    f"max_versions={max_versions}"
                )

    # Warm starts: a hard floor against the *current* recording only.
    # At least one kernel must show the persistent store visibly erasing
    # the warmup cost (the tier-up stall plus the profiled base-tier
    # calls) — a round-trip that restores versions without improving the
    # worst early call is storage, not warm start.
    warm = current.get("warm_start", {})
    if warm:
        warm_ratios = warm.get("cold_vs_warm_start", {})
        best = max(warm_ratios.values(), default=0.0)
        if best < warm_floor:
            problems.append(
                f"warm start {warm_ratios}: no kernel improved the worst "
                f"warmup call by the floor of {warm_floor}x"
            )

    # Concurrency: hard floors against the *current* recording only
    # (wall-clock scaling is machine-shaped; a baseline drift band would
    # be noise).  The scaling floor adapts to the build: a free-threaded
    # interpreter must show real parallel speedup, a GIL build must
    # merely prove the engine's locks don't collapse under contention.
    concurrency = current.get("concurrency", {})
    if concurrency:
        if concurrent_scaling_floor is None:
            concurrent_scaling_floor = (
                0.5 if concurrency.get("gil_enabled", True) else 2.0
            )
        for key, numbers in concurrency.get("concurrent_throughput", {}).items():
            scaling = numbers.get("scaling_4")
            if scaling is None or scaling < concurrent_scaling_floor:
                problems.append(
                    f"concurrent throughput on {key}: 4-thread scaling "
                    f"{scaling} is below the floor of "
                    f"{concurrent_scaling_floor}x "
                    f"(gil_enabled={concurrency.get('gil_enabled')})"
                )
        for key, ratio in concurrency.get(
            "sync_vs_background_worst_call", {}
        ).items():
            if ratio < stall_floor:
                problems.append(
                    f"compile stall on {key}: background compilation cut the "
                    f"worst warmup call by only {ratio}x "
                    f"(floor {stall_floor}x)"
                )

    # Verification overhead: a hard per-kernel cap against the *current*
    # recording only (the ratio is machine-independent to first order —
    # both sides run the same build).  Strict verification must stay a
    # small fraction of compile time on every loop kernel.
    verify = current.get("verify_overhead", {})
    for key, ratio in verify.get("strict_vs_off_compile", {}).items():
        if ratio > 1.0 + verify_overhead_limit:
            problems.append(
                f"verify overhead on {key}: strict compile is {ratio}x the "
                f"unverified build, over the "
                f"{1.0 + verify_overhead_limit:.2f}x limit"
            )

    # Event-bus overhead: a hard cap against the *current* recording only
    # (no baseline needed — the contract is absolute: observability must
    # cost less than `event_overhead_limit` on the hot paths).
    for key, ratio in current.get("events", {}).get("subscribed_vs_plain", {}).items():
        if ratio > 1.0 + event_overhead_limit:
            problems.append(
                f"event-bus overhead on {key}: {ratio}x exceeds the "
                f"{1.0 + event_overhead_limit:.2f}x limit"
            )
    if "counters" in current:
        for key, expected in baseline["counters"].items():
            actual = current["counters"].get(key)
            if actual != expected:
                problems.append(f"counter {key}: expected {expected}, got {actual}")
    if "ratios" in current:
        for key, expected in baseline["ratios"].items():
            actual = current["ratios"].get(key)
            if actual is None or actual <= 0 or expected <= 0:
                problems.append(f"ratio {key}: missing or non-positive ({actual})")
                continue
            drift = max(actual, expected) / min(actual, expected)
            if drift > tolerance:
                problems.append(
                    f"ratio {key}: {actual} vs baseline {expected} "
                    f"(drift {drift:.2f}x > tolerance {tolerance}x)"
                )

    # Backend speedups: drift vs baseline AND a hard per-kernel floor on
    # the loop kernels — the compiled tier exists to be decisively
    # faster, and each kernel's floor was set against structured code's
    # recorded performance.
    if "backend" in current:
        current_backend = current["backend"]
        baseline_backend = baseline.get("backend", {})
        for key, expected in baseline_backend.get("interp_vs_compiled", {}).items():
            actual = current_backend.get("interp_vs_compiled", {}).get(key)
            if actual is None or actual <= 0:
                problems.append(
                    f"backend speedup {key}: missing or non-positive ({actual})"
                )
                continue
            drift = max(actual, expected) / min(actual, expected)
            if drift > tolerance:
                problems.append(
                    f"backend speedup {key}: {actual} vs baseline {expected} "
                    f"(drift {drift:.2f}x > tolerance {tolerance}x)"
                )
        floor_kernels = baseline_backend.get(
            "loop_kernels", list(BACKEND_LOOP_KERNELS)
        )
        for key in floor_kernels:
            floor = floors.get(key, DEFAULT_SPEEDUP_FLOOR)
            actual = current_backend.get("interp_vs_compiled", {}).get(key)
            if actual is None or actual < floor:
                problems.append(
                    f"loop kernel {key}: compiled speedup {actual} is below "
                    f"its floor of {floor}x"
                )

    # Interprocedural tier: at least `inline_floor_kernels` call-heavy
    # kernels must clear the inlining-speedup floor.
    if "inlining" in current:
        current_inline = current["inlining"].get("inline_vs_noinline", {})
        cleared = [
            key for key, ratio in current_inline.items() if ratio >= inline_floor
        ]
        if len(cleared) < inline_floor_kernels:
            problems.append(
                f"inlining speedups {current_inline} clear the {inline_floor}x "
                f"floor on only {len(cleared)} kernels "
                f"(need {inline_floor_kernels})"
            )
        baseline_inline = baseline.get("inlining", {}).get("inline_vs_noinline", {})
        for key, expected in baseline_inline.items():
            actual = current_inline.get(key)
            if actual is None or actual <= 0:
                problems.append(
                    f"inlining speedup {key}: missing or non-positive ({actual})"
                )
                continue
            drift = max(actual, expected) / min(actual, expected)
            if drift > tolerance:
                problems.append(
                    f"inlining speedup {key}: {actual} vs baseline {expected} "
                    f"(drift {drift:.2f}x > tolerance {tolerance}x)"
                )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument("--tolerance", type=float, default=4.0)
    parser.add_argument(
        "--speedup-floor",
        action="append",
        default=None,
        metavar="KERNEL=RATIO",
        help=(
            "override a per-kernel compiled-backend floor (repeatable; "
            "e.g. --speedup-floor sjeng=40); unnamed kernels keep the "
            "committed LOOP_SPEEDUP_FLOORS table"
        ),
    )
    parser.add_argument(
        "--inline-floor",
        type=float,
        default=1.5,
        help="minimum accepted inlining speedup on the call-heavy kernels",
    )
    parser.add_argument(
        "--inline-floor-kernels",
        type=int,
        default=2,
        help="how many call-heavy kernels must clear --inline-floor",
    )
    parser.add_argument(
        "--event-overhead-limit",
        type=float,
        default=0.05,
        help="maximum accepted event-bus cost (fraction; 0.05 = 5%%)",
    )
    parser.add_argument(
        "--concurrent-scaling-floor",
        type=float,
        default=None,
        help=(
            "minimum accepted 4-thread/1-thread throughput ratio "
            "(default: 2.0 on a free-threaded build, 0.5 under the GIL)"
        ),
    )
    parser.add_argument(
        "--stall-floor",
        type=float,
        default=1.2,
        help=(
            "minimum accepted reduction of the worst warmup-call latency "
            "by background compilation (the CPython compile() of the "
            "generated code holds the GIL atomically, which bounds the "
            "observable win on any GIL build; quiet rounds show 2-18x)"
        ),
    )
    parser.add_argument(
        "--warm-floor",
        type=float,
        default=2.0,
        help=(
            "minimum accepted improvement of the worst warmup-call latency "
            "by a store-hydrated warm start (at least one kernel must clear it)"
        ),
    )
    parser.add_argument(
        "--polymorphic-floor",
        type=float,
        default=2.0,
        help=(
            "minimum accepted multiverse-vs-single-version steady-state "
            "speedup on the phase-alternating polymorphic kernels "
            "(at least --polymorphic-floor-kernels must clear it)"
        ),
    )
    parser.add_argument(
        "--polymorphic-floor-kernels",
        type=int,
        default=2,
        help="how many polymorphic kernels must clear --polymorphic-floor",
    )
    parser.add_argument(
        "--verify-overhead-limit",
        type=float,
        default=0.15,
        help=(
            "maximum accepted compile-time cost of strict static "
            "verification, per loop kernel (fraction; 0.15 = 1.15x)"
        ),
    )
    parser.add_argument("--repeats", type=int, default=30)
    parser.add_argument(
        "--only",
        action="append",
        choices=list(SECTION_NAMES),
        default=None,
        help=(
            "record only the named section(s) (repeatable); the check "
            "gates only what was recorded"
        ),
    )
    parser.add_argument(
        "--dump-sources",
        type=Path,
        default=None,
        help=(
            "directory to write each benchmarked kernel's generated "
            "Python source into (CI uploads it next to the recording)"
        ),
    )
    parser.add_argument(
        "--require-no-gil",
        action="store_true",
        help=(
            "fail unless running on a free-threaded build with the GIL "
            "actually disabled (the free-threaded CI lane's guard "
            "against silently measuring a GIL build)"
        ),
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare the fresh recording against the committed baseline",
    )
    options = parser.parse_args(argv)
    if options.repeats < 1:
        parser.error("--repeats must be at least 1")
    floors = {}
    for entry in options.speedup_floor or ():
        kernel, sep, value = entry.partition("=")
        if not sep:
            parser.error(
                f"--speedup-floor expects KERNEL=RATIO, got {entry!r}"
            )
        try:
            floors[kernel] = float(value)
        except ValueError:
            parser.error(f"--speedup-floor {entry!r}: ratio is not a number")

    if options.require_no_gil and _gil_enabled():
        print(
            "--require-no-gil: this interpreter is running WITH the GIL "
            "(need a free-threaded build with PYTHON_GIL=0)",
            file=sys.stderr,
        )
        return 1

    current = record(
        options.repeats, only=options.only, dump_sources=options.dump_sources
    )
    options.output.write_text(json.dumps(current, indent=2) + "\n")
    print(f"recorded {options.output}")
    print(json.dumps(current, indent=2))

    if not options.check:
        return 0
    if not options.baseline.exists():
        print(f"no baseline at {options.baseline}", file=sys.stderr)
        return 1
    baseline = json.loads(options.baseline.read_text())
    problems = check(
        current,
        baseline,
        options.tolerance,
        floors,
        options.inline_floor,
        options.inline_floor_kernels,
        options.event_overhead_limit,
        options.concurrent_scaling_floor,
        options.stall_floor,
        options.warm_floor,
        options.polymorphic_floor,
        options.polymorphic_floor_kernels,
        options.verify_overhead_limit,
    )
    if problems:
        print("benchmark regression check FAILED:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print("benchmark regression check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
