"""Interprocedural tier tests: call-site profiling, speculative inlining,
multi-frame deoptimization plans, and the module-level adaptive runtime.

The structural layers are tested bottom-up — profile facts, the INLINE
pass splice, per-guard plans — and then end to end: a guard firing inside
an inlined body must reconstruct the full virtual stack (callee frame at
the paper-style mapped point plus the caller frame paused past its call
site) and resume correctly in the base tier, on both execution backends.
"""

from __future__ import annotations

import pytest

from repro.core import OSRTransDriver
from repro.core.bisimulation import check_multiframe_deopt
from repro.core.frames import RenamedView
from repro.frontend import compile_program
from repro.ir import Interpreter, parse_function
from repro.ir.function import ProgramPoint
from repro.ir.instructions import Call
from repro.ir.interp import StepLimitExceeded
from repro.ir.intrinsics import INTRINSICS, call_intrinsic, is_pure_callee
from repro.ir.verify import verify_function
from repro.passes import (
    AggressiveDCE,
    CommonSubexpressionElimination,
    InlineCalls,
    LoopInvariantCodeMotion,
    interprocedural_pipeline,
)
from repro.engine import Engine, EngineConfig
from repro.vm import CompiledBackend, ValueProfile
from repro.workloads import (
    CALL_KERNEL_ENTRIES,
    CALL_KERNEL_NAMES,
    call_kernel_arguments,
    call_kernel_module,
)

#: Both execution engines, for tests that run the same IR on each.
ENGINES = ("interp", "compiled")


# ---------------------------------------------------------------------- #
# Helpers.
# ---------------------------------------------------------------------- #


def warmed_profile(module, entry, *, runs=6, size=24):
    """Profile a call kernel's module by interpreting warm inputs."""
    profile = ValueProfile()
    interp = Interpreter(module, profiler=profile)
    for _ in range(runs):
        args, memory = call_kernel_arguments(entry, size=size)
        interp.run(module.get(entry), args, memory=memory)
    return profile


def interprocedural_pair(module, entry, profile, **overrides):
    caller_profile = profile.function(entry)
    merged = caller_profile.clone()
    settings = dict(min_samples=2, min_site_calls=2)
    settings.update(overrides)
    pipeline = interprocedural_pipeline(
        caller_profile,
        merged,
        resolve=lambda name: module.get(name) if name in module else None,
        callee_profile=profile.function,
        **settings,
    )
    return OSRTransDriver(pipeline).run(module.get(entry))


# ---------------------------------------------------------------------- #
# Call-site profiling.
# ---------------------------------------------------------------------- #


class TestCallSiteProfiling:
    def test_interpreter_records_call_sites(self):
        module = call_kernel_module("helper_loop")
        profile = warmed_profile(module, "helper_loop")
        sites = profile.function("helper_loop").call_sites
        assert len(sites) == 1
        (point, site), = sites.items()
        assert site.callees == {"weigh": site.samples}
        assert site.samples == 6 * 24  # one call per element per run
        callee, ratio = site.dominant_callee()
        assert callee == "weigh" and ratio == 1.0
        # Per-argument histograms: arg 1 (the scale) is monomorphic.
        assert site.arg_values[1].dominant() == (3, 1.0)

    def test_hot_call_sites_thresholds(self):
        module = call_kernel_module("helper_loop")
        profile = warmed_profile(module, "helper_loop")
        caller = profile.function("helper_loop")
        assert list(caller.hot_call_sites(min_calls=2).values()) == ["weigh"]
        assert caller.hot_call_sites(min_calls=10**6) == {}

    def test_callee_profiled_through_module_calls(self):
        module = call_kernel_module("helper_loop")
        profile = warmed_profile(module, "helper_loop")
        callee = profile.function("weigh")
        # Parameters and internal registers of the callee were observed.
        assert callee.values["scale"].dominant() == (3, 1.0)
        assert callee.branches  # the w < 0 branch was recorded

    def test_profile_clone_is_independent(self):
        module = call_kernel_module("helper_loop")
        profile = warmed_profile(module, "helper_loop")
        original = profile.function("helper_loop")
        clone = original.clone()
        clone.values["fresh"] = clone.values.pop("acc", None) or clone.values
        clone.call_sites.clear()
        assert original.call_sites  # untouched by mutations of the clone


# ---------------------------------------------------------------------- #
# The inlining pass.
# ---------------------------------------------------------------------- #


class TestInlinePass:
    def test_inline_splices_callee_and_stays_ssa(self):
        module = call_kernel_module("helper_loop")
        profile = warmed_profile(module, "helper_loop")
        pair = interprocedural_pair(module, "helper_loop", profile)
        frames = pair.inlined_frames()
        assert len(frames) == 1
        frame = frames[0]
        assert frame.callee.name == "weigh"
        assert frame.parent is None
        # The call disappeared from the optimized body.
        assert not [
            inst
            for _, inst in pair.optimized.instructions()
            if isinstance(inst, Call) and inst.callee == "weigh"
        ]
        verify_function(pair.optimized, require_ssa=True)

    def test_inlined_version_computes_same_value(self):
        module = call_kernel_module("helper_loop")
        profile = warmed_profile(module, "helper_loop")
        pair = interprocedural_pair(module, "helper_loop", profile)
        args, memory = call_kernel_arguments("helper_loop")
        reference = Interpreter(module).run(
            module.get("helper_loop"), args, memory=memory.copy()
        )
        actual = Interpreter(module).run(pair.optimized, args, memory=memory.copy())
        assert actual.value == reference.value

    def test_size_budget_blocks_inlining(self):
        module = call_kernel_module("helper_loop")
        profile = warmed_profile(module, "helper_loop")
        pair = interprocedural_pair(
            module, "helper_loop", profile, max_callee_size=1
        )
        assert pair.inlined_frames() == []

    def test_nested_call_chain_inlines_both_levels(self):
        module = call_kernel_module("chain")
        profile = warmed_profile(module, "chain")
        pair = interprocedural_pair(module, "chain", profile)
        names = [frame.callee.name for frame in pair.inlined_frames()]
        assert sorted(names) == ["clamp8", "mix"]
        args, memory = call_kernel_arguments("chain")
        reference = Interpreter(module).run(
            module.get("chain"), args, memory=memory.copy()
        )
        actual = Interpreter(module).run(pair.optimized, args, memory=memory.copy())
        assert actual.value == reference.value

    def test_recursive_inlining_is_depth_bounded(self):
        module = call_kernel_module("fib")
        profile = warmed_profile(module, "fib", runs=1)
        pair = interprocedural_pair(
            module, "fib", profile, max_inline_depth=2
        )
        frames = pair.inlined_frames()
        assert frames, "hot recursive sites should inline"
        # Residual recursive calls survive to dispatch back into the runtime.
        residual = [
            inst
            for _, inst in pair.optimized.instructions()
            if isinstance(inst, Call) and inst.callee == "fib"
        ]
        assert residual
        args, memory = call_kernel_arguments("fib")
        reference = Interpreter(module).run(module.get("fib"), args)
        actual = Interpreter(module).run(pair.optimized, args)
        assert actual.value == reference.value

    def test_cold_profile_inlines_nothing(self):
        module = call_kernel_module("helper_loop")
        profile = ValueProfile()  # never executed
        pair = interprocedural_pair(module, "helper_loop", profile)
        assert pair.inlined_frames() == []

    def test_null_mapper_run_is_safe(self):
        module = call_kernel_module("helper_loop")
        profile = warmed_profile(module, "helper_loop")
        function = module.get("helper_loop").clone("copy")[0]
        inline = InlineCalls(
            lambda name: module.get(name) if name in module else None,
            profile.function("helper_loop"),
            callee_profile=profile.function,
            min_site_calls=2,
        )
        assert inline.run(function) is True
        verify_function(function, require_ssa=True)


# ---------------------------------------------------------------------- #
# Multi-frame deoptimization plans.
# ---------------------------------------------------------------------- #


class TestDeoptPlans:
    def test_renamed_view_reads_the_optimized_view_in_callee_names(self):
        # A frame's plan reads the optimized function through a
        # RenamedView (callee registers under their own names); AVAIL
        # reconstruction asks it for availability as well as liveness.
        module = call_kernel_module("clamp_call")
        pair = interprocedural_pair(module, "clamp_call", warmed_profile(module, "clamp_call"))
        frame = pair.mapper.inlined_frames[0]
        view = RenamedView(pair.opt_view, frame.inverse_rename())
        callee_registers = frame.callee.defined_variables() | set(frame.callee.params)
        inlined = set(frame.block_map.values())
        available = set()
        for point, _ in pair.optimized.instructions():
            if point.block in inlined:
                assert view.live_in(point) <= view.available_at(point) <= callee_registers
                available |= view.available_at(point)
        assert available

    def test_every_guard_is_covered(self):
        module = call_kernel_module("clamp_call")
        profile = warmed_profile(module, "clamp_call")
        pair = interprocedural_pair(module, "clamp_call", profile)
        plans, uncovered = pair.deopt_plans()
        assert uncovered == []
        assert set(plans) == set(pair.guard_points())

    def test_inlined_guard_has_multiframe_plan(self):
        module = call_kernel_module("clamp_call")
        profile = warmed_profile(module, "clamp_call")
        pair = interprocedural_pair(module, "clamp_call", profile)
        plans, _ = pair.deopt_plans()
        multi = [plan for plan in plans.values() if plan.is_multiframe]
        assert multi, "a guard inside the inlined clampv body must exist"
        plan = multi[0]
        # Innermost frame is the callee's own f_base; the stack bottoms
        # out in the caller, resumed one instruction past its call site.
        assert plan.frames[0].function.name == "clampv"
        assert plan.frames[-1].function.name == "clamp_call"
        assert plan.inline_path() == ("clampv",)
        caller_frame = plan.frames[-1]
        call_inst = pair.base.instruction_at(
            ProgramPoint(caller_frame.target.block, caller_frame.target.index - 1)
        )
        assert isinstance(call_inst, Call) and call_inst.callee == "clampv"
        assert caller_frame.dest == call_inst.dest
        # The metadata stamp both backends read agrees with the plan.
        paths = pair.optimized.metadata["inline_paths"]
        assert paths[plan.point] == ("clampv",)

    @pytest.mark.parametrize("backend_name", ENGINES)
    def test_multiframe_bisimulation_check(self, backend_name):
        module = call_kernel_module("clamp_call")
        profile = warmed_profile(module, "clamp_call")
        pair = interprocedural_pair(module, "clamp_call", profile)
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

    def test_warm_inputs_take_no_deopt(self):
        module = call_kernel_module("clamp_call")
        profile = warmed_profile(module, "clamp_call")
        pair = interprocedural_pair(module, "clamp_call", profile)
        plans, _ = pair.deopt_plans()
        args, memory = call_kernel_arguments("clamp_call")
        assert check_multiframe_deopt(
            pair.base, pair.optimized, plans, args, module=module, memory=memory
        )


# ---------------------------------------------------------------------- #
# The module-level adaptive runtime.
# ---------------------------------------------------------------------- #


def make_engine(**overrides):
    settings = dict(
        hotness_threshold=3,
        min_samples=2,
        inline_min_calls=2,
    )
    settings.update(overrides)
    return Engine(EngineConfig(**settings))


class TestAdaptiveRuntime:
    @pytest.mark.parametrize("name", CALL_KERNEL_NAMES)
    def test_tiered_results_match_reference(self, name):
        module = call_kernel_module(name)
        entry = CALL_KERNEL_ENTRIES[name]
        runtime = make_engine()
        runtime.register_module(module)
        for _ in range(8):
            args, memory = call_kernel_arguments(name)
            actual = runtime.call(entry, args, memory=memory)
            args, memory = call_kernel_arguments(name)
            reference = Interpreter(module).run(
                module.get(entry), args, memory=memory
            )
            assert actual.value == reference.value
        assert runtime.stats(entry).compiled == 1

    def test_hot_sites_inline_in_the_optimized_tier(self):
        module = call_kernel_module("helper_loop")
        runtime = make_engine()
        runtime.register_module(module)
        for _ in range(8):
            args, memory = call_kernel_arguments("helper_loop")
            runtime.call("helper_loop", args, memory=memory)
        assert runtime.stats("helper_loop").inlined_frames >= 1

    def test_callees_tier_independently(self):
        module = call_kernel_module("chain")
        runtime = make_engine(inline=False)
        runtime.register_module(module)
        for _ in range(6):
            args, memory = call_kernel_arguments("chain")
            runtime.call("chain", args, memory=memory)
        # The helpers were only ever reached through residual dispatch,
        # yet both got hot and compiled on their own.
        assert runtime.stats("mix").compiled == 1
        assert runtime.stats("clamp8").compiled == 1

    def test_multiframe_deopt_resumes_correctly(self):
        module = call_kernel_module("clamp_call")
        runtime = make_engine(invalidate_after=100)
        runtime.register_module(module)
        for _ in range(6):
            args, memory = call_kernel_arguments("clamp_call")
            runtime.call("clamp_call", args, memory=memory)
        args, memory = call_kernel_arguments("clamp_call", violate=True)
        actual = runtime.call("clamp_call", args, memory=memory)
        args, memory = call_kernel_arguments("clamp_call", violate=True)
        reference = Interpreter(module).run(
            module.get("clamp_call"), args, memory=memory
        )
        assert actual.value == reference.value
        stats = runtime.stats("clamp_call")
        assert stats.multiframe_deopts >= 1
        assert ("clamp_call", "multiframe-deopt") in {
            (event.function, event.kind) for event in runtime.events
        }

    def test_repeated_multiframe_failures_invalidate(self):
        module = call_kernel_module("clamp_call")
        runtime = make_engine(invalidate_after=2)
        runtime.register_module(module)
        for _ in range(6):
            args, memory = call_kernel_arguments("clamp_call")
            runtime.call("clamp_call", args, memory=memory)
        for _ in range(4):
            args, memory = call_kernel_arguments("clamp_call", violate=True)
            runtime.call("clamp_call", args, memory=memory)
        stats = runtime.stats("clamp_call")
        assert stats.invalidations >= 1
        # After recompiling without the refuted assumption, violating
        # inputs stop failing guards.
        failures_before = runtime.stats("clamp_call").guard_failures
        for _ in range(3):
            args, memory = call_kernel_arguments("clamp_call", violate=True)
            result = runtime.call("clamp_call", args, memory=memory)
            args, memory = call_kernel_arguments("clamp_call", violate=True)
            reference = Interpreter(module).run(
                module.get("clamp_call"), args, memory=memory
            )
            assert result.value == reference.value
        assert runtime.stats("clamp_call").guard_failures == failures_before


class TestRecursionFuel:
    DEEP_SRC = """
func countdown(n) {
  if (n <= 0) { return 0; }
  return countdown(n - 1);
}
"""

    def _exhaust(self, depth_budget):
        module = compile_program(self.DEEP_SRC)
        runtime = make_engine(max_call_depth=depth_budget)
        runtime.register_module(module)
        with pytest.raises(StepLimitExceeded) as excinfo:
            runtime.call("countdown", [100_000])
        return str(excinfo.value)

    def test_deep_recursion_exhausts_fuel_not_python_stack(self):
        # A deterministic fuel exhaustion — never a host RecursionError —
        # at the same activation depth on every run.
        first, second = self._exhaust(40), self._exhaust(40)
        assert first == second
        assert "call depth exceeded" in first

    def test_runtime_recovers_after_exhaustion(self):
        module = compile_program(self.DEEP_SRC)
        runtime = make_engine(max_call_depth=40)
        runtime.register_module(module)
        with pytest.raises(StepLimitExceeded):
            runtime.call("countdown", [100_000])
        # The depth accounting unwound: shallow calls still work.
        assert runtime.call("countdown", [5]).value == 0

    def test_shallow_recursion_within_budget_is_exact(self):
        module = compile_program(self.DEEP_SRC)
        runtime = make_engine(max_call_depth=96)
        runtime.register_module(module)
        assert runtime.call("countdown", [30]).value == 0


# ---------------------------------------------------------------------- #
# Intrinsic purity table (satellite): calls stop being barriers.
# ---------------------------------------------------------------------- #


class TestIntrinsicPurity:
    def test_effect_queries_consult_the_table(self):
        pure = Call("x", "gcd", [])
        unknown = Call("x", "mystery", [])
        assert not pure.has_side_effects() and not pure.accesses_memory()
        assert unknown.has_side_effects() and unknown.accesses_memory()
        assert is_pure_callee("clamp") and not is_pure_callee("mystery")
        assert call_intrinsic("gcd", [12, 18]) == 6
        assert call_intrinsic("mystery", [1]) is None

    @pytest.mark.parametrize("backend_name", ENGINES)
    def test_intrinsics_callable_on_both_backends(self, backend_name):
        function = parse_function(
            """
func @f(a, b) {
entry:
  g = call @gcd(a, b)
  c = call @clamp(g, 0, 10)
  p = call @popcount(b)
  ret (c * 100 + p)
}
"""
        )
        backend = Interpreter() if backend_name == "interp" else CompiledBackend()
        result = backend.run(function, [12, 18])
        assert result.value == 6 * 100 + bin(18).count("1")

    def test_adce_removes_dead_pure_call_keeps_unknown(self):
        function = parse_function(
            """
func @f(a, b) {
entry:
  dead = call @gcd(a, b)
  kept = call @mystery(a)
  ret a
}
"""
        )
        AggressiveDCE().run(function)
        callees = [
            inst.callee
            for _, inst in function.instructions()
            if isinstance(inst, Call)
        ]
        assert callees == ["mystery"]

    def test_cse_deduplicates_pure_calls(self):
        function = parse_function(
            """
func @f(a, b) {
entry:
  x = call @gcd(a, b)
  y = call @gcd(a, b)
  ret (x + y)
}
"""
        )
        CommonSubexpressionElimination().run(function)
        calls = [
            inst for _, inst in function.instructions() if isinstance(inst, Call)
        ]
        assert len(calls) == 1
        assert Interpreter().run(function, [12, 18]).value == 12

    def test_pure_call_does_not_invalidate_loads(self):
        function = parse_function(
            """
func @f(p, a, b) {
entry:
  v1 = load p
  g = call @gcd(a, b)
  v2 = load p
  ret (v1 + v2 + g)
}
"""
        )
        CommonSubexpressionElimination().run(function)
        loads = sum(
            1 for _, inst in function.instructions() if str(inst).startswith("v2 = load")
        )
        assert loads == 0  # the second load was CSE'd across the pure call

    def test_unknown_call_still_invalidates_loads(self):
        function = parse_function(
            """
func @f(p, a) {
entry:
  v1 = load p
  g = call @mystery(a)
  v2 = load p
  ret (v1 + v2 + g)
}
"""
        )
        CommonSubexpressionElimination().run(function)
        loads = [
            inst for _, inst in function.instructions() if str(inst).startswith("v2 = load")
        ]
        assert len(loads) == 1  # still there: the call may have stored

    def test_licm_hoists_loop_invariant_pure_call(self):
        function = parse_function(
            """
func @f(a, b, n) {
entry:
  i = 0
  acc = 0
  jmp ph
ph:
  jmp loop
loop:
  i2 = phi [ph: i, body: i3]
  acc2 = phi [ph: acc, body: acc3]
  c = (i2 < n)
  br c ? body : exit
body:
  g = call @gcd(a, b)
  acc3 = (acc2 + g)
  i3 = (i2 + 1)
  jmp loop
exit:
  ret acc2
}
"""
        )
        LoopInvariantCodeMotion().run(function)
        body_calls = [
            inst
            for inst in function.blocks["body"].instructions
            if isinstance(inst, Call)
        ]
        assert body_calls == []  # hoisted to the preheader
        assert Interpreter().run(function, [12, 18, 4]).value == 24

    def test_intrinsic_table_is_consistent(self):
        for name, intrinsic in INTRINSICS.items():
            assert intrinsic.name == name
            assert intrinsic.arity >= 1
            assert intrinsic.pure and not intrinsic.accesses_memory
