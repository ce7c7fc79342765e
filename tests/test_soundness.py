"""Static OSR-soundness verifier: mutation corpus, gating, and lint.

The load-bearing properties, in order:

* **Zero false positives** — every version the real pipelines build (the
  12 benchmark loop kernels, the speculative dispatch workload, the
  warm-started poly engine) proves all three obligation packs clean;

* **Full mutation kill** — each entry of a corpus of targeted metadata
  corruptions (narrowed/widened live sets, dropped compensation writes,
  impure or unbound-reading compensation, fabricated keep-alives,
  missing/phantom plans, out-of-range mapping entries, phantom dispatch
  pins) is rejected with the *named* obligation that owns it;

* **Gating** — ``verify_deopt=strict`` blocks publication end to end on
  both backends and refuses tampered persisted artifacts at hydration;
  ``warn`` publishes but emits :class:`SoundnessViolation` events whose
  fold agrees with the mechanism counter; ``off`` skips verification and
  reports guards as unchecked.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.analysis.soundness import (
    PROVED,
    UNCHECKED,
    UnsoundVersionError,
    lint_function,
    lint_tier_payload,
    lint_version,
    verify_version,
)
from repro.analysis.liveness import live_variables
from repro.core.compensation import CompensationCode
from repro.core.frames import DeoptPlan
from repro.core.mapping import OSRMapping
from repro.core.osr_trans import OSRTransDriver
from repro.engine import (
    Engine,
    EngineConfig,
    SoundnessViolation,
    event_as_dict,
    event_from_dict,
)
from repro.engine.config import VERIFY_DEOPT_MODES, verify_deopt_from_env
from repro.ir import (
    Guard,
    ProgramPoint,
    Undef,
    Var,
    VerificationError,
    parse_expr,
    parse_function,
    verify_function,
)
from repro.ir.interp import Interpreter
from repro.passes import speculative_pipeline
from repro.vm.profile import ValueProfile, VersionKey
from repro.vm import runtime as runtime_module
from repro.vm.runtime import CompiledVersion
from repro.workloads import (
    LOOP_KERNEL_NAMES,
    benchmark_arguments,
    benchmark_function,
    speculative_arguments,
    speculative_function,
)

BACKENDS = ("interp", "compiled")

POLY_SRC = """
func add(a, b) { return a + b; }
func poly(k, x) {
  var i; var acc; acc = 0; i = 0;
  while (i < x) { acc = acc + add(k, i) * k; i = i + 1; }
  return acc;
}
"""


def build_kernel_version(name: str) -> CompiledVersion:
    """Profile + speculate + plan one benchmark kernel, off to the side."""
    function = benchmark_function(name)
    profile = ValueProfile()
    interp = Interpreter(profiler=profile)
    for _ in range(6):
        args, memory = benchmark_arguments(name)
        interp.run(function, args, memory=memory)
    pair = OSRTransDriver(
        speculative_pipeline(profile.function(name), min_samples=2)
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


@pytest.fixture(scope="module")
def kernel_version() -> CompiledVersion:
    """One real speculative version, shared (and never mutated) by the corpus."""
    version = build_kernel_version("bzip2")
    assert version.plans, "corpus base needs at least one deopt plan"
    assert len(version.forward_mapping), "corpus base needs mapping entries"
    return version


def first_plan_point(version: CompiledVersion) -> ProgramPoint:
    return min(version.plans, key=str)


def with_plan(version: CompiledVersion, point, plan) -> CompiledVersion:
    plans = dict(version.plans)
    plans[point] = plan
    return dataclasses.replace(version, plans=plans)


def with_frame(version: CompiledVersion, point, index, **changes) -> CompiledVersion:
    plan = version.plans[point]
    frames = list(plan.frames)
    frames[index] = dataclasses.replace(frames[index], **changes)
    return with_plan(version, point, dataclasses.replace(plan, frames=frames))


def copy_forward(version: CompiledVersion) -> OSRMapping:
    original = version.forward_mapping
    mapping = OSRMapping(original.source_view, original.target_view)
    for source in original.domain():
        entry = original[source]
        mapping.add(source, entry.target, entry.compensation)
    return mapping


def failed(version: CompiledVersion, *, key=None) -> set:
    report = verify_version(version, key=key)
    assert not report.ok
    return set(report.obligations_failed())


class _MysteryNode:
    """An expression node outside the closed pure grammar."""

    def operands(self):
        return ()

    def __str__(self):  # pragma: no cover - debugging aid
        return "mystery()"


# --------------------------------------------------------------------- #
# Zero false positives on everything the real pipelines build.
# --------------------------------------------------------------------- #
class TestZeroFalsePositives:
    @pytest.mark.parametrize("name", LOOP_KERNEL_NAMES)
    def test_benchmark_kernels_prove_clean(self, name):
        version = build_kernel_version(name)
        report = verify_version(version, function_name=name)
        assert report.ok, report.trace()
        assert report.checked_plans == len(version.plans)
        assert all(status == PROVED for status in report.guard_status.values())
        assert lint_version(version, function_name=name) == []

    def test_engine_published_versions_prove_clean(self):
        engine = Engine.from_source(POLY_SRC)
        for _ in range(12):
            engine.call("poly", [3, 20])
        engine.wait_for_compilation(timeout=30.0)
        state = engine.runtime.functions["poly"]
        with state.lock:
            entries = [(entry.key, entry.version) for entry in state.versions]
        assert entries
        for key, version in entries:
            assert verify_version(version, key=key).ok
            assert lint_version(version, key=key) == []


# --------------------------------------------------------------------- #
# Mutation corpus: every corruption is rejected with its named obligation.
# --------------------------------------------------------------------- #
class TestMutationCorpus:
    def test_ghost_live_variable_fails_definite_assignment(self, kernel_version):
        point = first_plan_point(kernel_version)
        frame = kernel_version.plans[point].frames[-1]
        mutant = with_frame(
            kernel_version,
            point,
            -1,
            live_at_target=frame.live_at_target | {"__ghost"},
        )
        assert "completeness/definite-assignment" in failed(mutant)

    def test_narrowed_live_set_fails_live_set(self, kernel_version):
        point = first_plan_point(kernel_version)
        frame = kernel_version.plans[point].frames[-1]
        actual = set(live_variables(frame.function).live_in(frame.target))
        assert actual, "corpus base needs live state at the landing point"
        victim = sorted(actual)[0]
        mutant = with_frame(
            kernel_version,
            point,
            -1,
            live_at_target=frame.live_at_target - {victim},
        )
        assert "completeness/live-set" in failed(mutant)

    def test_impure_compensation_fails_side_effect_free(self, kernel_version):
        point = first_plan_point(kernel_version)
        frame = kernel_version.plans[point].frames[-1]
        comp = CompensationCode.of(
            tuple(frame.compensation.assignments) + (("__t", _MysteryNode()),),
            keep_alive=frame.compensation.keep_alive,
        )
        mutant = with_frame(kernel_version, point, -1, compensation=comp)
        assert "purity/side-effect-free" in failed(mutant)

    def test_unbound_compensation_read_fails_reads_bound(self, kernel_version):
        point = first_plan_point(kernel_version)
        frame = kernel_version.plans[point].frames[-1]
        comp = CompensationCode.of(
            tuple(frame.compensation.assignments)
            + (("__t", Var("__never_bound")),),
            keep_alive=frame.compensation.keep_alive,
        )
        mutant = with_frame(kernel_version, point, -1, compensation=comp)
        assert "purity/reads-bound" in failed(mutant)

    def test_unbound_seed_read_fails_reads_bound(self, kernel_version):
        point = first_plan_point(kernel_version)
        frame = kernel_version.plans[point].frames[-1]
        seeds = dict(frame.param_seeds)
        seeds["__p"] = Var("__never_bound")
        mutant = with_frame(kernel_version, point, -1, param_seeds=seeds)
        assert "purity/reads-bound" in failed(mutant)

    def test_fabricated_plan_keep_alive_fails_keep_alive(self, kernel_version):
        point = first_plan_point(kernel_version)
        frame = kernel_version.plans[point].frames[-1]
        mutant = with_frame(
            kernel_version,
            point,
            -1,
            keep_alive=frame.keep_alive | {"%__fabricated"},
        )
        assert "purity/keep-alive" in failed(mutant)

    def test_dropped_plan_fails_guard_coverage(self, kernel_version):
        point = first_plan_point(kernel_version)
        plans = dict(kernel_version.plans)
        del plans[point]
        mutant = dataclasses.replace(kernel_version, plans=plans)
        assert "structure/guard-coverage" in failed(mutant)

    def test_phantom_plan_fails_guard_coverage(self, kernel_version):
        point = first_plan_point(kernel_version)
        guard_points = set(kernel_version.pair.guard_points())
        phantom = next(
            p
            for p in kernel_version.pair.optimized.program_points()
            if p not in guard_points
        )
        mutant = with_plan(kernel_version, phantom, kernel_version.plans[point])
        assert "structure/guard-coverage" in failed(mutant)

    def test_empty_plan_fails_plan_shape(self, kernel_version):
        point = first_plan_point(kernel_version)
        plan = kernel_version.plans[point]
        mutant = with_plan(
            kernel_version, point, dataclasses.replace(plan, frames=[])
        )
        assert "structure/plan-shape" in failed(mutant)

    def test_wrong_outer_frame_fails_plan_shape(self, kernel_version):
        point = first_plan_point(kernel_version)
        stranger = parse_function(
            "func @stranger(a) {\nentry:\n  ret a\n}"
        )
        mutant = with_frame(kernel_version, point, -1, function=stranger)
        assert "structure/plan-shape" in failed(mutant)

    def test_out_of_range_mapping_entry_fails_mapping_range(self, kernel_version):
        mapping = copy_forward(kernel_version)
        mapping.add(
            ProgramPoint("__nowhere", 0),
            ProgramPoint("__nada", 9),
            CompensationCode.empty(),
        )
        mutant = dataclasses.replace(kernel_version, forward_mapping=mapping)
        assert "structure/mapping-range" in failed(mutant)

    def test_past_the_end_mapping_target_fails_mapping_range(self, kernel_version):
        mapping = copy_forward(kernel_version)
        source = mapping.domain()[0]
        block = kernel_version.pair.optimized.entry_label
        size = len(
            next(
                b
                for b in kernel_version.pair.optimized.iter_blocks()
                if b.label == block
            ).instructions
        )
        mapping.add(
            source, ProgramPoint(block, size + 1), CompensationCode.empty()
        )
        mutant = dataclasses.replace(kernel_version, forward_mapping=mapping)
        assert "structure/mapping-range" in failed(mutant)

    def test_phantom_pinned_slot_fails_dispatch_totality(self, kernel_version):
        key = VersionKey(pinned=((99, 1),))
        assert "structure/dispatch-totality" in failed(kernel_version, key=key)

    def test_in_range_pinned_slot_is_accepted(self, kernel_version):
        key = VersionKey(pinned=((0, 7),))
        assert verify_version(kernel_version, key=key).ok

    def test_report_names_every_guard(self, kernel_version):
        report = verify_version(kernel_version)
        expected = {str(p) for p in kernel_version.pair.guard_points()}
        assert set(report.guard_status) == expected

    def test_violation_anchors_the_guard_point(self, kernel_version):
        point = first_plan_point(kernel_version)
        frame = kernel_version.plans[point].frames[-1]
        mutant = with_frame(
            kernel_version,
            point,
            -1,
            live_at_target=frame.live_at_target | {"__ghost"},
        )
        report = verify_version(mutant)
        assert report.guard_status.get(str(point)) == "violated"
        assert any(v.point == str(point) for v in report.violations)


# --------------------------------------------------------------------- #
# The hardened IR verifier (structure pack's ir-verify rule).
# --------------------------------------------------------------------- #
class TestHardenedIRVerify:
    def test_phi_in_predecessorless_block_is_rejected(self):
        function = parse_function(
            "func @bad(a) {\nentry:\n  x = phi [nowhere: a]\n  ret x\n}"
        )
        with pytest.raises(VerificationError, match="predecessor"):
            verify_function(function)

    def test_guard_on_undefined_register_is_rejected(self):
        function = parse_function(
            "func @bad(a) {\nentry:\n  c = (a < 1)\n  guard c\n  ret a\n}"
        )
        guard = next(
            inst
            for _, inst in function.instructions()
            if isinstance(inst, Guard)
        )
        guard.cond = Var("__phantom")
        with pytest.raises(VerificationError, match="undefined"):
            verify_function(function)


# --------------------------------------------------------------------- #
# The lint pack behind ``repro lint``.
# --------------------------------------------------------------------- #
class TestLint:
    def _guarded(self):
        return parse_function(
            "func @g(a) {\nentry:\n  c = (a < 1)\n  guard c\n  ret a\n}"
        )

    def test_clean_function_has_no_findings(self, sum_loop):
        assert lint_function(sum_loop) == []

    @pytest.mark.parametrize(
        "cond, phrase",
        [
            (parse_expr("(1 < 2)"), "constant true"),
            (parse_expr("(2 < 1)"), "constant false"),
            (Undef(), "undef"),
        ],
    )
    def test_dead_guard_is_reported(self, cond, phrase):
        function = self._guarded()
        guard = next(
            inst
            for _, inst in function.instructions()
            if isinstance(inst, Guard)
        )
        guard.cond = cond
        findings = [f for f in lint_function(function) if f.rule == "dead-guard"]
        assert len(findings) == 1
        assert phrase in findings[0].detail

    def test_unreachable_block_is_reported(self):
        function = parse_function(
            "func @u(a) {\nentry:\n  ret a\norphan:\n  ret a\n}"
        )
        rules = {f.rule for f in lint_function(function)}
        assert "unreachable-block" in rules

    def test_unused_keep_alive_is_reported(self, kernel_version):
        widened = dataclasses.replace(
            kernel_version, keep_alive=kernel_version.keep_alive | {"__pad"}
        )
        findings = lint_version(widened)
        assert any(
            f.rule == "unused-keep-alive" and "__pad" in f.detail
            for f in findings
        )


# --------------------------------------------------------------------- #
# Config knob and event plumbing.
# --------------------------------------------------------------------- #
class TestConfigAndEvents:
    def test_invalid_mode_is_rejected(self):
        with pytest.raises(ValueError, match="verify_deopt"):
            EngineConfig(verify_deopt="paranoid")

    @pytest.mark.parametrize("mode", VERIFY_DEOPT_MODES)
    def test_env_resolution(self, mode, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_DEOPT", mode)
        assert verify_deopt_from_env() == mode

    def test_env_rejects_unknown_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_DEOPT", "sometimes")
        with pytest.raises(ValueError, match="REPRO_VERIFY_DEOPT"):
            verify_deopt_from_env()

    def test_env_default_is_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY_DEOPT", raising=False)
        assert verify_deopt_from_env() == "off"

    def test_mode_does_not_change_the_fingerprint(self):
        # Verification is a publication gate, not a build input: the same
        # artifacts must warm-start a strict engine.
        assert (
            EngineConfig(verify_deopt="strict").fingerprint()
            == EngineConfig().fingerprint()
        )

    def test_soundness_violation_event_roundtrip(self):
        event = SoundnessViolation(
            "poly",
            ProgramPoint("loop", 2),
            obligation="completeness/live-set",
            detail="recorded live set omits ['acc2']",
            key="generic",
        )
        data = event_as_dict(event)
        assert data["kind"] == "soundness-violation"
        assert event_from_dict(json.loads(json.dumps(data))) == event


# --------------------------------------------------------------------- #
# Runtime gating: off / warn / strict, both backends, end to end.
# --------------------------------------------------------------------- #
def _sabotage_build(monkeypatch):
    """Make every built version declare a ghost live variable."""
    original = runtime_module.build_version

    def build(*args):
        version, rejected = original(*args)
        point = min(version.plans, key=str)
        plan = version.plans[point]
        frames = list(plan.frames)
        frames[-1] = dataclasses.replace(
            frames[-1], live_at_target=frames[-1].live_at_target | {"__ghost"}
        )
        plans = dict(version.plans)
        plans[point] = dataclasses.replace(plan, frames=frames)
        return dataclasses.replace(version, plans=plans), rejected

    monkeypatch.setattr(runtime_module, "build_version", build)


def _dispatch_engine(backend, mode):
    return Engine.from_functions(
        speculative_function("dispatch"),
        config=EngineConfig(
            hotness_threshold=3,
            min_samples=2,
            opt_backend=backend,
            compile_workers=0,
            verify_deopt=mode,
        ),
    )


def _warm_dispatch(engine, calls=6):
    for _ in range(calls):
        args, memory = speculative_arguments("dispatch")
        engine.call("dispatch", args, memory=memory)


class TestRuntimeGating:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_strict_publishes_clean_versions_with_reports(self, backend):
        engine = _dispatch_engine(backend, "strict")
        _warm_dispatch(engine)
        state = engine.runtime.functions["dispatch"]
        with state.lock:
            entries = list(state.versions)
        assert entries
        assert all(entry.verify_report is not None for entry in entries)
        assert all(entry.verify_report.ok for entry in entries)
        data = engine.runtime.introspect("dispatch")
        assert data["verify_deopt"] == "strict"
        for version in data["versions"]:
            assert version["soundness_violations"] == []
            assert version["guard_obligations"]
            assert set(version["guard_obligations"].values()) == {PROVED}

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_strict_blocks_unsound_publication(self, backend, monkeypatch):
        _sabotage_build(monkeypatch)
        engine = _dispatch_engine(backend, "strict")
        with pytest.raises(UnsoundVersionError, match="definite-assignment"):
            _warm_dispatch(engine)
        state = engine.runtime.functions["dispatch"]
        with state.lock:
            assert state.versions == ()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_warn_publishes_and_counts_violations(self, backend, monkeypatch):
        _sabotage_build(monkeypatch)
        engine = _dispatch_engine(backend, "warn")
        _warm_dispatch(engine)
        state = engine.runtime.functions["dispatch"]
        with state.lock:
            entries = list(state.versions)
        assert entries  # warn mode still publishes
        mechanism = engine.runtime.stats("dispatch")["soundness_violations"]
        fold = engine.stats("dispatch").soundness_violations
        assert mechanism == fold > 0
        events = [e for e in engine.events if isinstance(e, SoundnessViolation)]
        assert len(events) == mechanism
        assert all(
            e.obligation == "completeness/definite-assignment" for e in events
        )

    def test_off_skips_verification(self):
        engine = _dispatch_engine("interp", "off")
        _warm_dispatch(engine)
        state = engine.runtime.functions["dispatch"]
        with state.lock:
            entries = list(state.versions)
        assert entries
        assert all(entry.verify_report is None for entry in entries)
        data = engine.runtime.introspect("dispatch")
        for version in data["versions"]:
            assert set(version["guard_obligations"].values()) == {UNCHECKED}

    def test_env_var_selects_the_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_DEOPT", "strict")
        engine = Engine.from_functions(
            speculative_function("dispatch"),
            config=EngineConfig.from_env(),
        )
        assert engine.runtime.verify_deopt == "strict"


# --------------------------------------------------------------------- #
# Hydration gating: tampered persisted artifacts.
# --------------------------------------------------------------------- #
def _tampered_store(tmp_path, mutate):
    root = tmp_path / "store"
    engine = Engine.from_source(POLY_SRC)
    for _ in range(12):
        engine.call("poly", [3, 20])
    engine.wait_for_compilation(timeout=30.0)
    engine.save(root)
    entry = root / "objects" / EngineConfig().fingerprint() / "poly.json"
    data = json.loads(entry.read_text())
    assert data["versions"]
    mutate(data["versions"][-1]["tier"])
    entry.write_text(json.dumps(data))
    return root


def _widen_live(tier):
    tier["plans"][0]["frames"][-1]["live_at_target"].append("__ghost")


class TestHydrationGating:
    def test_strict_refuses_tampered_artifact(self, tmp_path):
        root = _tampered_store(tmp_path, _widen_live)
        with pytest.raises(UnsoundVersionError, match="artifact store"):
            Engine.open(
                POLY_SRC, root, config=EngineConfig(verify_deopt="strict")
            )

    def test_warn_hydrates_tampered_artifact_with_events(self, tmp_path):
        root = _tampered_store(tmp_path, _widen_live)
        engine = Engine.open(
            POLY_SRC, root, config=EngineConfig(verify_deopt="warn")
        )
        assert "poly" in engine.restored_functions
        assert engine.runtime.stats("poly")["soundness_violations"] > 0

    def test_strict_accepts_a_clean_store(self, tmp_path):
        root = tmp_path / "store"
        engine = Engine.from_source(POLY_SRC)
        for _ in range(12):
            engine.call("poly", [3, 20])
        engine.wait_for_compilation(timeout=30.0)
        engine.save(root)
        warm = Engine.open(
            POLY_SRC, root, config=EngineConfig(verify_deopt="strict")
        )
        assert "poly" in warm.restored_functions
        assert warm.call("poly", [3, 20]).value == engine.call("poly", [3, 20]).value

    def test_lint_tier_payload_flags_the_tamper(self, tmp_path):
        root = _tampered_store(
            tmp_path,
            lambda tier: tier["forward"]["entries"].append(
                ["entry:0", "__nowhere:9", {"assignments": [], "keep_alive": []}]
            ),
        )
        entry = root / "objects" / EngineConfig().fingerprint() / "poly.json"
        payload = json.loads(entry.read_text())["versions"][-1]["tier"]
        findings = lint_tier_payload(payload, "poly")
        assert any(f.rule == "mapping-range" for f in findings)

    def test_lint_tier_payload_flags_missing_plan(self, tmp_path):
        root = _tampered_store(tmp_path, lambda tier: tier["plans"].pop())
        entry = root / "objects" / EngineConfig().fingerprint() / "poly.json"
        payload = json.loads(entry.read_text())["versions"][-1]["tier"]
        findings = lint_tier_payload(payload, "poly")
        assert any(f.rule == "guard-coverage" for f in findings)

    def test_lint_tier_payload_accepts_clean_payload(self, tmp_path):
        root = tmp_path / "store"
        engine = Engine.from_source(POLY_SRC)
        for _ in range(12):
            engine.call("poly", [3, 20])
        engine.wait_for_compilation(timeout=30.0)
        engine.save(root)
        entry = root / "objects" / EngineConfig().fingerprint() / "poly.json"
        payload = json.loads(entry.read_text())["versions"][-1]["tier"]
        assert lint_tier_payload(payload, "poly") == []
