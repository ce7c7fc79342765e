"""The five workloads: what one op is, how it is timed, how it is checked.

One process, one caller thread, closed loop: the next op starts when the
previous one has returned.  ``compile_workers=0`` everywhere, so
compilation is synchronous and the op sequence is deterministic for a
seed.  Per-op time is ``perf_counter_ns`` around the engine call(s)
only; memory resets and result checks sit outside the timed interval.

A workload measures for a wall-clock budget (``--seconds``) in whole
steps of a seeded schedule, always completing at least one round so
every program contributes samples.
"""

from __future__ import annotations

import _bootstrap  # noqa: F401  (must precede the repro imports)

import math
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.engine import Engine, EngineConfig
from repro.engine.events import Tier, TierUp

import inputs
import native
from inputs import Input, Program
from measure import add_counts

__all__ = ["CONFIG", "STRICT", "Samples", "Workload", "WORKLOADS", "make_workload"]

#: Every engine: compiled optimized tier, synchronous compilation, defaults otherwise.
CONFIG = EngineConfig(opt_backend="compiled", compile_workers=0)
#: The ROADMAP's production posture: every version proved before it runs.
STRICT = CONFIG.replace(verify_deopt="strict")
#: ``clamp_call`` in ``phase_shift`` only.  With the default thresholds the
#: callee tiers up before its branch has ``min_samples`` profile entries, so
#: no guard ever lands inside the inlined body; these are the thresholds the
#: repo's own tests use to reach the multi-frame deoptimization path.
MULTIFRAME = CONFIG.replace(min_samples=2, inline_min_calls=2)

clock = time.perf_counter_ns


@dataclass
class Samples:
    """What a measurement produced: per-kernel op times and the failure count."""

    #: Engine op time per kernel, ns per op (one sample = ``batch`` ops).
    engine: Dict[str, List[float]] = field(default_factory=dict)
    #: The hand-written twin's time for the same op, ns per op.
    native: Dict[str, List[float]] = field(default_factory=dict)
    #: Ops per sample (``steady_calls`` times batches and reports their mean).
    batch: int = 1
    attempted: int = 0
    failed: int = 0
    #: Sub-intervals of an op (``first_result``, ``save``), ns, and — in the
    #: traced run of ``phase_shift`` — op times per transition class.
    parts: Dict[str, List[float]] = field(default_factory=dict)

    def add(self, table: Dict[str, List[float]], key: str, value: float) -> None:
        table.setdefault(key, []).append(value)


def add_engine_stats(total: Dict[str, int], engine: Engine, *, tier_ups: bool = True) -> None:
    """Fold ``engine.stats_all()`` (and its retained TierUp events) into ``total``."""
    for stats in engine.stats_all().values():
        add_counts(total, stats.as_dict())
    if tier_ups:
        count = sum(isinstance(event, TierUp) for event in engine.events)
        add_counts(total, {"tier_ups": count})


class Workload:
    """Base class: seeded set-up, a time-budgeted measurement loop, teardown."""

    name = ""
    why = ""
    #: A kernel's central op time: its ``"median"``, or its ``"mean"`` where
    #: rare slow ops are the point (a median would not see them).
    center = "median"
    #: Which stage-by-stage replay of the traced run mirrors this
    #: workload's op: ``"call"``, ``"compile"`` or ``"store"``.
    mirrored_by = "call"
    #: Schedule rounds after which the engines' exact counters are
    #: snapshotted: a fixed op sequence for a seed, so the counts repeat.
    counter_rounds = 1

    def __init__(self, seed: int, scratch: Path, *, tiny: bool = False) -> None:
        self.seed = seed
        self.scratch = scratch
        #: Tiny populations and sizes for the tier-1 smoke test.
        self.tiny = tiny
        self.programs: List[Program] = []
        self.samples = Samples()
        #: Folded statistics of every engine an op has finished with.
        self.totals: Dict[str, int] = {}
        #: ``engine_stats()`` as it stood after ``counter_rounds`` rounds.
        self.counter_snapshot: Optional[Dict[str, int]] = None
        #: Traced run only: classify each call by the events it published
        #: (``phase_shift``; the other workloads publish none while timing).
        self.observe = False

    # -- lifecycle ------------------------------------------------------ #
    def setup(self) -> None:
        """Generate inputs and expected values, build and warm what ops need."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what :meth:`setup` built (engines, store directories)."""

    # -- measurement ---------------------------------------------------- #
    def round(self, index: int) -> Iterator[object]:
        """The steps of schedule round ``index`` (seeded, deterministic)."""
        raise NotImplementedError

    def step(self, step: object) -> None:
        """Run one step: timed op(s), then untimed checks."""
        raise NotImplementedError

    def engine_stats(self) -> Dict[str, int]:
        """Summed ``stats_all()`` (+ ``tier_ups``) over every engine used so far."""
        return dict(self.totals)

    def measure(self, seconds: float, *, rounds: Optional[int] = None) -> Samples:
        """Run whole steps until ``seconds`` have passed (or exactly ``rounds``).

        At least ``counter_rounds`` rounds always complete, so every
        program contributes samples and the counter snapshot exists.
        """
        deadline = time.perf_counter() + seconds
        index = 0
        while True:
            may_stop = rounds is None and index >= self.counter_rounds
            for step in self.round(index):
                self.step(step)
                if may_stop and time.perf_counter() >= deadline:
                    return self.samples
            index += 1
            if index == self.counter_rounds:
                self.counter_snapshot = self.engine_stats()
            if rounds is not None:
                done = index >= rounds
            else:
                done = index >= self.counter_rounds and time.perf_counter() >= deadline
            if done:
                return self.samples

    # -- helpers -------------------------------------------------------- #
    def _limit(self, programs: List[Program], keep: int) -> List[Program]:
        return programs[:keep] if self.tiny else programs

    def _count(self, ok: bool, ops: int = 1) -> None:
        """Count ``ops`` attempted ops; a wrong, refused or raising op fails."""
        self.samples.attempted += ops
        if not ok:
            self.samples.failed += ops

    def _time_twin(self, program: Program, inp: Input, repeat: int = 1) -> None:
        twin = program.twin
        if twin is None:
            return
        args = inp.native_args
        start = clock()
        for _ in range(repeat):
            twin(*args)
        self.samples.add(self.samples.native, program.name, (clock() - start) / repeat)


def _shuffled(items: List, rng: random.Random) -> List:
    out = list(items)
    rng.shuffle(out)
    return out


def _warm(engine: Engine, program: Program, inp: Input, calls: int) -> None:
    for _ in range(calls):
        engine.call(program.entry, inp.args, memory=inp.memory.copy())


# ---------------------------------------------------------------------- #
# steady_loops / steady_calls: one warm top-level call.
# ---------------------------------------------------------------------- #


class _Steady(Workload):
    """Shared shape of the two steady workloads: one pre-warmed engine."""

    #: Calls per timed sample.
    batch = 1
    #: Warm-up calls per kernel (tier-up happens at call 3).
    warm_calls = 6
    #: Samples per kernel per round (equalizes time across kernels).
    weights: Dict[str, int] = {}

    def _programs(self) -> List[Program]:
        raise NotImplementedError

    def setup(self) -> None:
        self.programs = self._programs()
        self.samples = Samples(batch=self.batch)
        source = "\n".join(program.source for program in self.programs)
        self.engine = Engine.from_source(source, config=CONFIG)
        for program in self.programs:
            _warm(self.engine, program, program.inputs[0], self.warm_calls)

    def teardown(self) -> None:
        self.engine.close()

    def engine_stats(self) -> Dict[str, int]:
        total: Dict[str, int] = {}
        add_engine_stats(total, self.engine)
        return total

    def round(self, index: int) -> Iterator[Program]:
        rng = random.Random(f"{self.seed}/{index}")
        order = [
            program
            for program in self.programs
            for _ in range(self.weights.get(program.name, 1))
        ]
        return iter(_shuffled(order, rng))

    def step(self, program: Program) -> None:
        inp = program.inputs[0]
        call = self.engine.call
        entry, args, batch = program.entry, inp.args, self.batch
        memory = inp.memory.copy()
        try:
            if batch == 1:
                start = clock()
                value = call(entry, args, memory=memory).value
                elapsed = clock() - start
                values = (value,)
            else:
                start = clock()
                values = [call(entry, args, memory=memory).value for _ in range(batch)]
                elapsed = clock() - start
        except Exception:  # an op that raises is a failed op, not a crash
            self._count(False, batch)
            return
        self.samples.add(self.samples.engine, program.name, elapsed / batch)
        for value in values:
            self._count(value == inp.expected)
        self._time_twin(program, inp, batch)


class SteadyLoops(_Steady):
    name = "steady_loops"
    why = (
        "12 paper kernels at size 192, warm: generated code does >= 85% of the "
        "work, so codegen/pass quality shows here and an entry-path change barely does"
    )

    def _programs(self) -> List[Program]:
        size = 24 if self.tiny else 192
        return self._limit(inputs.loop_programs(self.seed, size=size), 2)


class SteadyCalls(_Steady):
    name = "steady_calls"
    why = (
        "7 short bodies, warm, timed in batches of 32: the path around the code "
        "(facade, dispatch, backend wrapper) does most of the work"
    )
    batch = 32
    #: Batches per round, sized at the seed commit so every kernel gets about
    #: the same measured time: fib(8) makes 67 activations through the
    #: runtime per call (~550 us), every other body costs 9-16 us.
    weights = {"add": 58, "poly8": 34, "blend8": 34, "helper_loop": 37, "chain": 37,
               "clamp_call": 39, "fib": 1}

    def _programs(self) -> List[Program]:
        return self._limit(inputs.short_programs(self.seed), 3)


# ---------------------------------------------------------------------- #
# cold_start: source text -> verified optimized steady state, fresh engine.
# ---------------------------------------------------------------------- #

#: Calls after which a function that has not tiered up is a failed op.
MAX_COLD_CALLS = 8
#: Warm calls made after the tier-up call.
COLD_WARM_CALLS = 2


class ColdStart(Workload):
    name = "cold_start"
    mirrored_by = "compile"
    why = (
        "40 programs, source text to verified optimized code on a fresh engine: the "
        "compile path (frontend, mem2reg, passes+CodeMapper, plans, verifier, codegen) "
        "does the work; a call-path change shows nothing"
    )

    def setup(self) -> None:
        seed = self.seed
        groups = [
            (inputs.loop_programs(seed, size=24), 2),
            (inputs.call_programs(seed, size=24), 1),
            (inputs.polymorphic_programs(seed), 1),
            (inputs.speculative_programs(seed)[:3], 1),
            (inputs.random_programs(seed), 2),
        ]
        self.programs = [p for programs, keep in groups for p in self._limit(programs, keep)]
        self.samples = Samples()
        self.twin_sources = {
            program.name: native.twin_source(program.name)
            for program in self.programs
            if program.twin is not None
        }

    def round(self, index: int) -> Iterator[Program]:
        return iter(_shuffled(self.programs, random.Random(f"{self.seed}/{index}")))

    def step(self, program: Program) -> None:
        inp = program.inputs[0]
        entry, args = program.entry, inp.args
        memories = [inp.memory.copy() for _ in range(MAX_COLD_CALLS + COLD_WARM_CALLS)]
        values = []
        try:
            start = clock()
            engine = Engine.from_source(program.source, config=STRICT)
            values.append(engine.call(entry, args, memory=memories.pop()).value)
            first = clock()
            handle = engine.function(entry)
            while handle.tier is not Tier.OPTIMIZED and len(values) < MAX_COLD_CALLS:
                values.append(engine.call(entry, args, memory=memories.pop()).value)
            for _ in range(COLD_WARM_CALLS):
                values.append(engine.call(entry, args, memory=memories.pop()).value)
            engine.close()
            end = clock()
        except Exception:  # an op that raises is a failed op, not a crash
            self._count(False)
            return
        self.samples.add(self.samples.engine, program.name, end - start)
        self.samples.add(self.samples.parts, "first_result", first - start)
        add_engine_stats(self.totals, engine)
        tiered = handle.tier is Tier.OPTIMIZED
        self._count(tiered and all(value == inp.expected for value in values))
        self._time_native_start(program, inp, len(values))

    def _time_native_start(self, program: Program, inp: Input, calls: int) -> None:
        """The twin's cold start: compile its source, define it, make the same calls."""
        source = self.twin_sources.get(program.name)
        if source is None:
            return
        args = inp.native_args
        start = clock()
        namespace: Dict[str, object] = {}
        exec(compile(source, program.name, "exec"), namespace)
        twin = namespace[program.name]
        for _ in range(calls):
            twin(*args)
        self.samples.add(self.samples.native, program.name, clock() - start)


# ---------------------------------------------------------------------- #
# warm_restart: open from a populated store, first call, save back.
# ---------------------------------------------------------------------- #


class WarmRestart(ColdStart):
    name = "warm_restart"
    mirrored_by = "store"
    why = (
        "Engine.open from a populated store + first call (served optimized, zero "
        "TierUp) + save: store reads and writes, IR parser and hydration gate instead "
        "of the pass pipeline; a pass speed-up shows nothing"
    )

    def setup(self) -> None:
        seed = self.seed
        groups = [
            (inputs.loop_programs(seed, size=24), 2),
            (inputs.call_programs(seed, size=24), 1),
            (inputs.polymorphic_programs(seed), 1),
        ]
        self.programs = [p for programs, keep in groups for p in self._limit(programs, keep)]
        self.samples = Samples()
        self.twin_sources = {p.name: native.twin_source(p.name) for p in self.programs}
        self.root = Path(tempfile.mkdtemp(prefix="stores-", dir=self.scratch))
        for program in self.programs:
            # Polymorphic kernels are warmed on their three hot phases, so
            # the store holds a multiverse artifact (one version per phase).
            warm_on = program.inputs[:3] if program.group == "poly" else program.inputs[:1]
            with Engine.from_source(program.source, config=STRICT) as engine:
                for inp in warm_on:
                    _warm(engine, program, inp, 8)
                engine.save(self.store(program))

    def store(self, program: Program) -> Path:
        return self.root / program.name

    def teardown(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    def step(self, program: Program) -> None:
        inp = program.inputs[0]
        store = self.store(program)
        memory = inp.memory.copy()
        try:
            start = clock()
            engine = Engine.open(program.source, store, config=STRICT)
            value = engine.call(program.entry, inp.args, memory=memory).value
            first = clock()
            engine.save(store)
            saved = clock()
            engine.close()
            end = clock()
        except Exception:  # an op that raises is a failed op, not a crash
            self._count(False)
            return
        self.samples.add(self.samples.engine, program.name, end - start)
        self.samples.add(self.samples.parts, "first_result", first - start)
        self.samples.add(self.samples.parts, "save", saved - first)
        add_engine_stats(self.totals, engine)
        add_counts(self.totals, {"restored": len(engine.restored_functions)})
        restored = program.entry in engine.restored_functions and not any(
            isinstance(event, TierUp) for event in engine.events
        )
        self._count(restored and value == inp.expected)
        self._time_native_start(program, inp, 1)


# ---------------------------------------------------------------------- #
# phase_shift: transitions under a seeded phase schedule.
# ---------------------------------------------------------------------- #

BLOCKS_PER_EPOCH = 20
#: Block lengths of one epoch: the 20 quantile midpoints of a geometric
#: distribution with mean 32 (so every epoch has the same number of
#: calls per lane; the seed only permutes them).
BLOCK_LENGTHS = [
    max(1, round(-32 * math.log(1 - (i + 0.5) / BLOCKS_PER_EPOCH)))
    for i in range(BLOCKS_PER_EPOCH)
]
#: Blocks per epoch on the three hot modes (85 %), Zipf-like; the other
#: three blocks draw a cold mode each.
HOT_BLOCKS = (8, 5, 4)
#: Violating blocks per epoch on a speculative lane (10 %).
VIOLATING_BLOCKS = 2

_CLASS_BY_EVENT = (
    ("TierUp", "tierup"),
    ("MultiFrameDeopt", "multiframe"),
    ("DeoptimizingOSR", "deopt_miss"),
    ("DispatchedOSR", "guardfail_hit"),
    ("EntryDispatched", "entry_switch"),
)


def classify(event_names: List[str], optimized_before: bool) -> str:
    """The transition class of one call, from the events published during it."""
    for event, label in _CLASS_BY_EVENT:
        if event in event_names:
            return label
    if event_names:
        return "other"
    return "warm" if optimized_before else "base"


@dataclass
class Lane:
    """One kernel with its own engine and its own block schedule."""

    program: Program
    #: Polymorphic lanes keep one engine for the whole run; speculative
    #: lanes get a fresh engine every epoch, so "a phase change hits a
    #: freshly tiered function" (guard failure -> deopt -> continuation
    #: hit -> specialized recompile) keeps happening.
    long_lived: bool
    config: EngineConfig = CONFIG
    engine: Optional[Engine] = None
    seen: List[str] = field(default_factory=list)


class PhaseShift(Workload):
    name = "phase_shift"
    center = "mean"
    counter_rounds = 2
    why = (
        "3 polymorphic kernels with more modes than the 4 version slots, 3 speculative "
        "kernels and clamp_call under a seeded phase schedule: guard failure, deopt, "
        "dispatch, recompile and retire do the work"
    )

    def setup(self) -> None:
        poly = self._limit(inputs.polymorphic_programs(self.seed), 1)
        spec = self._limit(inputs.speculative_programs(self.seed), 1)
        if self.tiny:
            spec += inputs.speculative_programs(self.seed)[3:]
        self.programs = poly + spec
        self.samples = Samples()
        self.totals = {"tier_ups": 0}
        self.lanes = [Lane(p, True) for p in poly] + [
            Lane(p, False, MULTIFRAME if p.name == "clamp_call" else CONFIG) for p in spec
        ]
        for lane in self.lanes:
            if lane.long_lived:
                self._fresh_engine(lane)
                for inp in lane.program.inputs[:3]:
                    _warm(lane.engine, lane.program, inp, 8)

    def teardown(self) -> None:
        for lane in self.lanes:
            self._retire_engine(lane)

    def _fresh_engine(self, lane: Lane) -> None:
        self._retire_engine(lane)
        lane.engine = Engine.from_source(lane.program.source, config=lane.config)
        lane.engine.subscribe(self._observer(lane))

    def _observer(self, lane: Lane):
        def on_event(event) -> None:
            if isinstance(event, TierUp):
                self.totals["tier_ups"] += 1
            if self.observe:
                lane.seen.append(type(event).__name__)

        return on_event

    def _retire_engine(self, lane: Lane) -> None:
        if lane.engine is None:
            return
        # TierUps are counted by the lane's subscriber: a long-lived
        # engine publishes more events than its ring buffer retains.
        add_engine_stats(self.totals, lane.engine, tier_ups=False)
        lane.engine.close()
        lane.engine = None

    def engine_stats(self) -> Dict[str, int]:
        total = dict(self.totals)
        for lane in self.lanes:
            if lane.engine is not None:
                add_engine_stats(total, lane.engine, tier_ups=False)
        return total

    def _blocks(self, lane: Lane, epoch: int) -> List[Tuple[Input, int]]:
        rng = random.Random(f"{self.seed}/{epoch}/{lane.program.name}")
        program_inputs = lane.program.inputs
        if lane.long_lived:
            hot, cold = program_inputs[:3], program_inputs[3:]
            picks = [inp for inp, count in zip(hot, HOT_BLOCKS) for _ in range(count)]
            picks += [rng.choice(cold) for _ in range(BLOCKS_PER_EPOCH - len(picks))]
            rng.shuffle(picks)
        else:
            warm, violating = program_inputs
            picks = [violating] * VIOLATING_BLOCKS
            picks += [warm] * (BLOCKS_PER_EPOCH - VIOLATING_BLOCKS)
            rng.shuffle(picks)
            # A fresh function forms its speculation on the warm regime.
            first_warm = picks.index(warm)
            picks[0], picks[first_warm] = picks[first_warm], picks[0]
        lengths = _shuffled(BLOCK_LENGTHS, rng)
        if self.tiny:
            picks, lengths = picks[:6], [min(n, 6) for n in lengths[:6]]
        return list(zip(picks, lengths))

    def round(self, index: int) -> Iterator[Tuple[Lane, Input, int]]:
        for lane in self.lanes:
            if not lane.long_lived:
                self._fresh_engine(lane)
        schedules = [self._blocks(lane, index) for lane in self.lanes]
        for block in range(len(schedules[0])):
            for lane, schedule in zip(self.lanes, schedules):
                inp, length = schedule[block]
                yield lane, inp, length

    def step(self, step: Tuple[Lane, Input, int]) -> None:
        lane, inp, length = step
        program = lane.program
        call = lane.engine.call
        entry, args, expected = program.entry, inp.args, inp.expected
        times = self.samples.engine.setdefault(program.name, [])
        handle = lane.engine.function(entry)
        for _ in range(length):
            memory = inp.memory.copy()
            optimized = self.observe and handle.tier is Tier.OPTIMIZED
            try:
                start = clock()
                value = call(entry, args, memory=memory).value
                elapsed = clock() - start
            except Exception:  # an op that raises is a failed op, not a crash
                self._count(False)
                continue
            times.append(elapsed)
            self._count(value == expected)
            if self.observe:
                self.samples.add(self.samples.parts, classify(lane.seen, optimized), elapsed)
                lane.seen.clear()
        self._time_twin(program, inp)


WORKLOADS = {
    cls.name: cls for cls in (SteadyLoops, SteadyCalls, ColdStart, PhaseShift, WarmRestart)
}


def make_workload(name: str, seed: int, scratch: Path, *, tiny: bool = False) -> Workload:
    try:
        cls = WORKLOADS[name]
    except KeyError:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}") from None
    return cls(seed, scratch, tiny=tiny)
