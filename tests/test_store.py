"""Persistence tests: artifact store, codecs and warm starts.

Covers the store round trip end to end: hypothesis properties for the
profile/config/mapping codecs, snapshot → save → ``Engine.open``
hydration with the zero-``TierUp`` warm-start acceptance check,
differential parity between a reloaded engine and a never-persisted one
(including guard-failure deoptimization from a hydrated version),
typed staleness refusal for every mismatch class, and the
merge-and-republish write path, including two processes writing one
entry at once.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.reconstruct import ReconstructionMode
from repro.engine import (
    Engine,
    EngineConfig,
    GuardFailed,
    Invalidated,
    Tier,
    TierUp,
    VersionRestored,
)
from repro.ir.function import ProgramPoint
from repro.ir.parser import parse_function
from repro.ir.printer import print_function
from repro.store import (
    ArtifactDecodeError,
    ArtifactKey,
    ConfigMismatchError,
    FunctionArtifact,
    ArtifactStore,
    StaleArtifactError,
    StoreFormatError,
    function_ir_hash,
    hydrate_runtime,
    snapshot_runtime,
)
from repro.store.codec import decode_version, encode_version
from repro.vm.profile import FunctionProfile
from repro.workloads import (
    polymorphic_arguments,
    polymorphic_function,
    polymorphic_phases,
    speculative_arguments,
    speculative_function,
)
from repro.workloads.polymorphic import POLYMORPHIC_SOURCES

POLY_SRC = """
func add(a, b) { return a + b; }
func poly(k, x) {
  var i; var acc; acc = 0; i = 0;
  while (i < x) { acc = acc + add(k, i) * k; i = i + 1; }
  return acc;
}
"""

GUARDED_SRC = """
func @guarded(a) {
entry:
  c = (a == 7)
  guard c
  d = (a < 100)
  guard d
  ret (a * 2)
}
"""


def warm_poly(engine, calls=12):
    for _ in range(calls):
        engine.call("poly", [3, 20])
    return engine


# --------------------------------------------------------------------- #
# Hypothesis: profile JSON codecs.
# --------------------------------------------------------------------- #
register_json = st.builds(
    lambda counts, overflowed: {
        "counts": sorted([v, c] for v, c in counts.items()),
        "overflowed": overflowed,
    },
    st.dictionaries(st.integers(-500, 500), st.integers(1, 10_000), max_size=5),
    st.booleans(),
)
branch_json = st.fixed_dictionaries(
    {"taken": st.integers(0, 10_000), "not_taken": st.integers(0, 10_000)}
)
point_keys = st.builds(
    lambda block, index: f"{block}:{index}",
    st.sampled_from(("entry", "loop", "while.body2", "if.then")),
    st.integers(0, 9),
)
call_site_json = st.fixed_dictionaries(
    {
        "callees": st.dictionaries(
            st.sampled_from(("add", "mul", "helper")), st.integers(1, 5000), max_size=3
        ),
        "args": st.lists(register_json, max_size=3),
    }
)
function_profile_json = st.fixed_dictionaries(
    {
        "values": st.dictionaries(
            st.sampled_from(("a", "b", "acc2", "i3")), register_json, max_size=4
        ),
        "branches": st.dictionaries(point_keys, branch_json, max_size=3),
        "call_sites": st.dictionaries(point_keys, call_site_json, max_size=2),
    }
)


class TestProfileCodecProperties:
    @settings(max_examples=50, deadline=None)
    @given(function_profile_json)
    def test_function_profile_roundtrip_is_identity(self, data):
        profile = FunctionProfile.from_json(data)
        assert FunctionProfile.from_json(profile.as_json()).as_json() == profile.as_json()

    @settings(max_examples=50, deadline=None)
    @given(function_profile_json, function_profile_json)
    def test_merge_commutes_with_roundtrip(self, left, right):
        direct = FunctionProfile.from_json(left)
        direct.merge(FunctionProfile.from_json(right))
        reloaded = FunctionProfile.from_json(FunctionProfile.from_json(left).as_json())
        reloaded.merge(
            FunctionProfile.from_json(FunctionProfile.from_json(right).as_json())
        )
        assert direct.as_json() == reloaded.as_json()


# --------------------------------------------------------------------- #
# Hypothesis: EngineConfig as_dict/from_dict and fingerprint.
# --------------------------------------------------------------------- #
config_kwargs = st.fixed_dictionaries(
    {},
    optional={
        "hotness_threshold": st.integers(1, 50),
        "invalidate_after": st.integers(1, 10),
        "speculate": st.booleans(),
        "min_samples": st.integers(1, 20),
        "min_ratio": st.floats(0.5, 1.0, allow_nan=False),
        "inline": st.booleans(),
        "inline_min_calls": st.integers(1, 10),
        "max_callee_size": st.integers(1, 200),
        "max_inline_depth": st.integers(1, 5),
        "max_call_depth": st.integers(1, 500),
        "step_limit": st.integers(1, 10_000_000),
        "mode": st.sampled_from(list(ReconstructionMode)),
        "compile_workers": st.integers(0, 4),
        "event_buffer_size": st.integers(1, 512),
    },
)


class TestConfigRoundTrip:
    @settings(max_examples=75, deadline=None)
    @given(config_kwargs)
    def test_from_dict_inverts_as_dict(self, kwargs):
        config = EngineConfig(**kwargs)
        reloaded = EngineConfig.from_dict(config.as_dict())
        assert reloaded == config
        assert reloaded.fingerprint() == config.fingerprint()

    def test_from_dict_accepts_mode_strings(self):
        assert EngineConfig.from_dict({"mode": "live"}).mode is ReconstructionMode.LIVE
        assert EngineConfig.from_dict({"mode": "AVAIL"}).mode is ReconstructionMode.AVAIL

    def test_from_dict_rejects_unknown_fields(self):
        for data in ({"hotness": 3}, {"passes": []}):
            with pytest.raises(ValueError, match="unknown EngineConfig field"):
                EngineConfig.from_dict(data)

    def test_fingerprint_ignores_runtime_only_knobs(self):
        base = EngineConfig()
        for changes in (
            {"compile_workers": 3},
            {"event_buffer_size": 8},
            {"step_limit": 10},
            {"max_call_depth": 4},
        ):
            assert base.replace(**changes).fingerprint() == base.fingerprint(), changes

    def test_fingerprint_tracks_semantic_knobs(self):
        base = EngineConfig()
        for changes in (
            {"hotness_threshold": 17},
            {"speculate": False},
            {"min_samples": 11},
            {"inline": False},
            {"mode": ReconstructionMode.LIVE},
        ):
            assert base.replace(**changes).fingerprint() != base.fingerprint(), changes


# --------------------------------------------------------------------- #
# IR round-trip prerequisites for persistence.
# --------------------------------------------------------------------- #
class TestPersistencePrimitives:
    def test_guard_reasons_survive_print_parse(self):
        function = speculative_function("dispatch")
        engine = Engine.from_functions(function)
        for _ in range(10):
            args, memory = speculative_arguments("dispatch")
            engine.call("dispatch", args, memory=memory)
        optimized = engine.function("dispatch").state.version.pair.optimized
        reparsed = parse_function(print_function(optimized))
        originals = {
            str(point): instr.reason
            for point, instr in _guards(optimized)
        }
        assert originals and any(reason for reason in originals.values())
        assert originals == {
            str(point): instr.reason for point, instr in _guards(reparsed)
        }

    def test_program_point_parse_roundtrip(self):
        point = ProgramPoint("while.body2", 7)
        assert ProgramPoint.parse(str(point)) == point
        with pytest.raises(ValueError):
            ProgramPoint.parse("no-separator")

    def test_function_ir_hash_tracks_content(self):
        a = parse_function(GUARDED_SRC)
        b = parse_function(GUARDED_SRC)
        assert function_ir_hash(a) == function_ir_hash(b)
        c = parse_function(GUARDED_SRC.replace("a * 2", "a * 3"))
        assert function_ir_hash(c) != function_ir_hash(a)


def _guards(function):
    from repro.ir.instructions import Guard

    for block in function.blocks.values():
        for index, instr in enumerate(block.instructions):
            if isinstance(instr, Guard):
                yield ProgramPoint(block.label, index), instr


# --------------------------------------------------------------------- #
# Tier enum (stringly tier replacement).
# --------------------------------------------------------------------- #
class TestTierEnum:
    def test_tier_is_string_compatible(self):
        assert Tier.BASE == "base"
        assert Tier.OPTIMIZED == "optimized"
        assert str(Tier.OPTIMIZED) == "optimized"

    def test_handle_tier_is_enum_and_str_comparable(self):
        engine = warm_poly(Engine.from_source(POLY_SRC))
        handle = engine.function("poly")
        assert handle.tier is Tier.OPTIMIZED
        assert handle.tier == "optimized"

    def test_events_carry_tier(self):
        engine = warm_poly(Engine.from_source(POLY_SRC))
        tier_ups = [e for e in engine.events if isinstance(e, TierUp)]
        assert tier_ups and all(e.tier is Tier.OPTIMIZED for e in tier_ups)
        engine.register(speculative_function("dispatch"))
        engine.register(speculative_function("dispatch"), replace=True)
        invalidated = [e for e in engine.events if isinstance(e, Invalidated)]
        assert invalidated and all(e.tier is Tier.BASE for e in invalidated)


# --------------------------------------------------------------------- #
# VersionInfo (the handle.state replacement).
# --------------------------------------------------------------------- #
class TestVersionInfo:
    def test_base_tier_version_info(self):
        engine = Engine.from_source(POLY_SRC)
        info = engine.function("poly").version
        assert info.tier is Tier.BASE
        assert not info.is_compiled
        assert info.artifact_key is None
        assert info.guards == 0 and info.inlined_frames == 0

    def test_optimized_version_info_matches_saved_key(self, tmp_path):
        engine = warm_poly(Engine.from_source(POLY_SRC))
        info = engine.function("poly").version
        assert info.tier is Tier.OPTIMIZED and info.is_compiled
        assert info.speculative
        assert info.guards >= 1
        assert info.inlined_frames >= 1  # add() was splice-inlined
        keys = engine.save(tmp_path / "store")
        assert info.artifact_key in keys


# --------------------------------------------------------------------- #
# Version codec round trip on a real compiled version.
# --------------------------------------------------------------------- #
class TestVersionCodec:
    @pytest.mark.parametrize("name", ("dispatch", "clamp_sum", "phase_field"))
    def test_encode_decode_encode_is_identity(self, name):
        engine = Engine.from_functions(speculative_function(name))
        for _ in range(10):
            args, memory = speculative_arguments(name)
            engine.call(name, args, memory=memory)
        runtime = engine.runtime
        state = runtime.functions[name]
        assert state.versions
        entry = state.versions[-1]
        backward = entry.backward_mapping(runtime.config.mode)
        payload = encode_version(entry.version, backward)
        assert json.loads(json.dumps(payload)) == payload  # JSON-clean
        decoded = decode_version(payload, state.base, lambda n: runtime.functions[n].base)
        re_encoded = encode_version(decoded, decoded.backward)
        assert re_encoded == payload
        # The views hydration rebuilds from the parsed IR answer every
        # Algorithm 1 query exactly as the views of the built version do.
        for side in ("opt_view", "base_view"):
            built = getattr(entry.version.pair, side)
            hydrated = getattr(decoded.pair, side)
            function = built.function
            registers = sorted(function.defined_variables() | set(function.params))
            for point in function.program_points():
                assert hydrated.live_in(point) == built.live_in(point)
                assert hydrated.available_at(point) == built.available_at(point)
                for register in registers:
                    assert hydrated.unique_reaching_definition(
                        register, point
                    ) == built.unique_reaching_definition(register, point)

    def test_decode_refuses_uncovered_guards(self):
        engine = warm_poly(Engine.from_source(POLY_SRC))
        runtime = engine.runtime
        state = runtime.functions["poly"]
        entry = state.versions[-1]
        payload = encode_version(
            entry.version, entry.backward_mapping(runtime.config.mode)
        )
        assert payload["plans"]
        broken = dict(payload, plans=[])
        with pytest.raises(ArtifactDecodeError, match="no.*deoptimization plan"):
            decode_version(broken, state.base, lambda n: runtime.functions[n].base)


# --------------------------------------------------------------------- #
# Warm-start acceptance: zero TierUp on a store-backed second engine.
# --------------------------------------------------------------------- #
class TestWarmStart:
    def test_second_engine_serves_first_call_compiled(self, tmp_path):
        config = EngineConfig()
        cold = warm_poly(Engine.from_source(POLY_SRC, config=config))
        cold.save(tmp_path / "store")

        warm = Engine.open(POLY_SRC, tmp_path / "store", config=config)
        assert set(warm.restored_functions) == {"add", "poly"}
        assert warm.function("poly").tier is Tier.OPTIMIZED
        result = warm.call("poly", [3, 20])
        assert result.value == cold.call("poly", [3, 20]).value
        assert [e for e in warm.events if isinstance(e, TierUp)] == []
        restored = [e for e in warm.events if isinstance(e, VersionRestored)]
        assert {e.function for e in restored} == {"add", "poly"}
        assert all(e.tier is Tier.OPTIMIZED for e in restored)

    def test_restored_stats_count_as_compiled(self, tmp_path):
        cold = warm_poly(Engine.from_source(POLY_SRC))
        cold.save(tmp_path / "store")
        warm = Engine.open(POLY_SRC, tmp_path / "store")
        stats = warm.stats("poly")
        assert stats.compiled == 1
        assert stats.speculative == 1
        assert stats.inlined_frames >= 1

    def test_profiles_hydrate_without_tier(self, tmp_path):
        # A profile-only artifact (engine saved before tier-up) still
        # shortens warming: the merged histograms are preloaded.
        config = EngineConfig(hotness_threshold=10_000)
        cold = Engine.from_source(POLY_SRC, config=config)
        for _ in range(5):
            cold.call("poly", [3, 20])
        cold.save(tmp_path / "store")
        warm = Engine.open(POLY_SRC, tmp_path / "store", config=config)
        assert warm.restored_functions == ()
        profile = warm.function("poly").profile
        assert profile.call_sites  # hydrated observations, zero warm calls

    def test_open_accepts_store_object(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        warm_poly(Engine.from_source(POLY_SRC)).save(store)
        warm = Engine.open(POLY_SRC, store)
        assert "poly" in warm.restored_functions

    def test_one_slot_engine_restores_only_the_generic_version(self, tmp_path):
        # Regression: a persisted multiverse opened with max_versions=1
        # used to admit its versions oldest-first, LRU-retire the generic
        # one and keep only the newest *specialized* version — every call
        # from another cluster then matched nothing and the function was
        # wedged in the base tier forever.
        kernel = "modal_sum"
        config = EngineConfig(hotness_threshold=3, min_samples=2, max_versions=4)
        engine = Engine.from_functions(polymorphic_function(kernel), config=config)
        phases = polymorphic_phases(kernel)
        for _ in range(5):
            for mode in phases:
                args, memory = polymorphic_arguments(kernel, mode)
                for _ in range(8):
                    engine.call(kernel, args, memory=memory)
        saved = [info.key for info in engine.function(kernel).versions]
        assert "generic" in saved and len(saved) >= 3
        engine.save(tmp_path / "store")

        warm = Engine.open(
            POLYMORPHIC_SOURCES[kernel],
            tmp_path / "store",
            config=config.replace(max_versions=1),
        )
        assert kernel in warm.restored_functions
        assert [info.key for info in warm.function(kernel).versions] == ["generic"]
        for mode in phases:
            args, memory = polymorphic_arguments(kernel, mode)
            expected = engine.call(kernel, args, memory=memory).value
            before = warm.function(kernel).version.hits
            for _ in range(10):
                assert warm.call(kernel, args, memory=memory).value == expected
            # Served by the optimized tier, whatever the cluster.
            assert warm.function(kernel).version.hits == before + 10
        assert [e for e in warm.events if isinstance(e, TierUp)] == []
        assert warm.stats(kernel).as_dict() == warm.runtime.stats(kernel)

    def test_format_1_artifact_is_refused_loudly(self, tmp_path):
        # Format 1 stored the newest version twice (``tier`` and
        # ``tier_versions[-1]``); such a file is refused, never half-read.
        root = tmp_path / "store"
        warm_poly(Engine.from_source(POLY_SRC)).save(root)
        fingerprint = EngineConfig().fingerprint()
        entry = root / "objects" / fingerprint / "poly.json"
        data = json.loads(entry.read_text())
        assert set(data) >= {"versions"} and "tier" not in data
        newest = data.pop("versions")[-1]["tier"]
        data.update(format=1, tier=newest)
        entry.write_text(json.dumps(data))
        with pytest.raises(StoreFormatError, match="format 1"):
            ArtifactStore(root).get("poly", fingerprint)
        with pytest.raises(StoreFormatError, match="format 1"):
            Engine.open(POLY_SRC, root)


# --------------------------------------------------------------------- #
# Differential parity: reloaded engine vs never-persisted engine.
# --------------------------------------------------------------------- #
class TestReloadedParity:
    @pytest.mark.parametrize("name", ("dispatch", "clamp_sum", "phase_field"))
    def test_guard_failure_deopt_from_reloaded_version(self, tmp_path, name):
        config = EngineConfig()

        cold = Engine.from_functions(speculative_function(name), config=config)
        for _ in range(10):
            args, memory = speculative_arguments(name)
            cold.call(name, args, memory=memory)
        assert cold.function(name).version.speculative
        cold.save(tmp_path / "store")

        reference = Engine.from_functions(speculative_function(name), config=config)
        for _ in range(10):
            args, memory = speculative_arguments(name)
            reference.call(name, args, memory=memory)

        # Hydrate against from_functions-style registration (not only the
        # Engine.open source path).
        reloaded = Engine.from_functions(speculative_function(name), config=config)
        assert hydrate_runtime(reloaded.runtime, tmp_path / "store") == [name]

        # Warm-regime parity straight from the restored version.
        args, memory = speculative_arguments(name)
        ref_args, ref_memory = speculative_arguments(name)
        assert (
            reloaded.call(name, args, memory=memory).value
            == reference.call(name, ref_args, memory=ref_memory).value
        )
        # Violating input: the hydrated version's guard fails and the
        # persisted deopt plan reconstructs the base frame(s).
        violate, violate_memory = speculative_arguments(name, violate=True)
        ref_violate, ref_violate_memory = speculative_arguments(name, violate=True)
        assert (
            reloaded.call(name, violate, memory=violate_memory).value
            == reference.call(name, ref_violate, memory=ref_violate_memory).value
        )
        failures = [e for e in reloaded.events if isinstance(e, GuardFailed)]
        assert failures and all(e.function == name for e in failures)
        assert [e for e in reloaded.events if isinstance(e, TierUp)] == []

    def test_multiframe_deopt_plans_survive_reload(self, tmp_path):
        # clamp_call inlines a guarded callee: the restored version must
        # keep the two-frame plan wired (inline_paths metadata included)
        # and actually resume through it on the violating input.
        from repro.workloads import call_kernel_arguments, call_kernel_module

        config = EngineConfig(
            min_samples=2, inline_min_calls=2, invalidate_after=100
        )
        module = call_kernel_module("clamp_call")
        cold = Engine.from_module(module, config=config)
        for _ in range(6):
            args, memory = call_kernel_arguments("clamp_call")
            cold.call("clamp_call", args, memory=memory)
        cold.save(tmp_path / "store")

        warm = Engine.from_module(call_kernel_module("clamp_call"), config=config)
        assert "clamp_call" in hydrate_runtime(warm.runtime, tmp_path / "store")
        version = warm.runtime.functions["clamp_call"].version
        multiframe = [p for p in version.plans.values() if p.is_multiframe]
        assert multiframe
        assert version.pair.optimized.metadata.get("inline_paths")
        for plan in multiframe:
            assert [f.function.name for f in plan.frames][-1] == "clamp_call"

        args, memory = call_kernel_arguments("clamp_call", violate=True)
        actual = warm.call("clamp_call", args, memory=memory)
        ref_args, ref_memory = call_kernel_arguments("clamp_call", violate=True)
        reference = Engine.from_module(
            call_kernel_module("clamp_call"), config=config
        ).call("clamp_call", ref_args, memory=ref_memory)
        assert actual.value == reference.value
        assert warm.stats("clamp_call").multiframe_deopts >= 1


# --------------------------------------------------------------------- #
# Staleness: every mismatch is a typed, loud refusal.
# --------------------------------------------------------------------- #
class TestStaleness:
    def test_changed_body_is_refused(self, tmp_path):
        warm_poly(Engine.from_source(POLY_SRC)).save(tmp_path / "store")
        changed = POLY_SRC.replace("acc + add(k, i) * k", "acc + add(k, i) * k + 1")
        with pytest.raises(StaleArtifactError, match="refusing to load"):
            Engine.open(changed, tmp_path / "store")

    def test_changed_callee_is_refused(self, tmp_path):
        # poly's own body is unchanged, but its inlined callee add()
        # changed — the artifact's function_hashes must catch it.
        warm_poly(Engine.from_source(POLY_SRC)).save(tmp_path / "store")
        changed_callee = POLY_SRC.replace("return a + b;", "return a + b + 0 * a;")
        with pytest.raises(StaleArtifactError):
            Engine.open(changed_callee, tmp_path / "store")

    def test_on_stale_skip_leaves_function_cold_but_working(self, tmp_path):
        warm_poly(Engine.from_source(POLY_SRC)).save(tmp_path / "store")
        changed = POLY_SRC.replace("acc + add(k, i) * k", "acc + add(k, i) * k + 1")
        engine = Engine.open(changed, tmp_path / "store", on_stale="skip")
        # add() is unchanged, so it still restores; the changed poly is
        # skipped and stays cold.
        assert engine.restored_functions == ("add",)
        assert engine.function("poly").tier is Tier.BASE
        # ...and the skipped function re-warms normally.
        for _ in range(12):
            engine.call("poly", [3, 20])
        assert engine.function("poly").tier is Tier.OPTIMIZED

    def test_entry_in_wrong_shard_is_refused(self, tmp_path):
        config = EngineConfig()
        warm_poly(Engine.from_source(POLY_SRC, config=config)).save(tmp_path / "store")
        store = ArtifactStore(tmp_path / "store")
        fingerprint = config.fingerprint()
        other = EngineConfig(hotness_threshold=99)
        shard = tmp_path / "store" / "objects" / other.fingerprint()
        shard.mkdir(parents=True)
        entry = tmp_path / "store" / "objects" / fingerprint / "poly.json"
        (shard / "poly.json").write_text(entry.read_text())
        with pytest.raises(ConfigMismatchError, match="refusing"):
            store.get("poly", other.fingerprint())

    def test_unknown_store_format_is_refused(self, tmp_path):
        root = tmp_path / "store"
        ArtifactStore(root)
        (root / "store.json").write_text(json.dumps({"format": 99}))
        with pytest.raises(StoreFormatError, match="format 99"):
            ArtifactStore(root)

    def test_unknown_artifact_format_is_refused(self, tmp_path):
        root = tmp_path / "store"
        warm_poly(Engine.from_source(POLY_SRC)).save(root)
        fingerprint = EngineConfig().fingerprint()
        entry = root / "objects" / fingerprint / "poly.json"
        data = json.loads(entry.read_text())
        data["format"] = 99
        entry.write_text(json.dumps(data))
        with pytest.raises(StoreFormatError, match="format 99"):
            ArtifactStore(root).get("poly", fingerprint)

    def test_corrupt_tier_payload_is_refused(self, tmp_path):
        root = tmp_path / "store"
        warm_poly(Engine.from_source(POLY_SRC)).save(root)
        fingerprint = EngineConfig().fingerprint()
        entry = root / "objects" / fingerprint / "poly.json"
        data = json.loads(entry.read_text())
        data["versions"][-1]["tier"]["plans"] = []
        entry.write_text(json.dumps(data))
        with pytest.raises(ArtifactDecodeError):
            Engine.open(POLY_SRC, root)

    def test_missing_store_without_create(self, tmp_path):
        with pytest.raises(StoreFormatError, match="no artifact store"):
            ArtifactStore(tmp_path / "nope", create=False)

    def test_hydrate_rejects_bad_on_stale(self, tmp_path):
        engine = Engine.from_source(POLY_SRC)
        with pytest.raises(ValueError, match="on_stale"):
            hydrate_runtime(engine.runtime, tmp_path / "store", on_stale="warn")


# --------------------------------------------------------------------- #
# The store's merge-and-republish write path.
# --------------------------------------------------------------------- #
class TestMergeAndRepublish:
    def test_profiles_accumulate_across_saves(self, tmp_path):
        root = tmp_path / "store"
        warm_poly(Engine.from_source(POLY_SRC)).save(root)
        store = ArtifactStore(root)
        fingerprint = EngineConfig().fingerprint()
        first = store.get("poly", fingerprint)
        first_calls = sum(
            sum(site.callees.values()) for site in first.profile.call_sites.values()
        )
        warm_poly(Engine.from_source(POLY_SRC)).save(root)
        second = store.get("poly", fingerprint)
        second_calls = sum(
            sum(site.callees.values()) for site in second.profile.call_sites.values()
        )
        assert second_calls == 2 * first_calls

    def test_tier_is_kept_when_incoming_has_none(self, tmp_path):
        root = tmp_path / "store"
        fingerprint = EngineConfig().fingerprint()
        warm_poly(Engine.from_source(POLY_SRC)).save(root)  # with tier
        # A short-lived engine that never tiered up publishes too:
        cold = Engine.from_source(POLY_SRC, config=EngineConfig(hotness_threshold=100))
        cold.call("poly", [3, 20])
        # Different fingerprint would shard separately; force same key.
        snapshot = snapshot_runtime(cold.runtime)
        store = ArtifactStore(root)
        for artifact in snapshot.artifacts:
            rekeyed = FunctionArtifact(
                key=ArtifactKey(
                    artifact.key.function, artifact.key.base_ir_hash, fingerprint
                ),
                profile=artifact.profile,
                function_hashes=artifact.function_hashes,
            )
            store.put(rekeyed)
        merged = store.get("poly", fingerprint)
        assert merged.versions  # the stored compiled tier survived

    def test_different_base_hash_supersedes(self, tmp_path):
        root = tmp_path / "store"
        warm_poly(Engine.from_source(POLY_SRC)).save(root)
        changed = POLY_SRC.replace("acc + add(k, i) * k", "acc + add(k, i) * k + 1")
        warm_poly(Engine.from_source(changed)).save(root)
        store = ArtifactStore(root)
        entry = store.get("poly", EngineConfig().fingerprint())
        # The entry now describes the new body — loading under it works.
        warm = Engine.open(changed, root)
        assert "poly" in warm.restored_functions
        assert entry.key.base_ir_hash != function_ir_hash(
            Engine.from_source(POLY_SRC).runtime.functions["poly"].base
        )

    def test_snapshot_is_pure_data(self, tmp_path):
        engine = warm_poly(Engine.from_source(POLY_SRC))
        snapshot = engine.snapshot()
        assert snapshot.config_fingerprint == engine.config.fingerprint()
        assert snapshot.artifact("poly").versions
        assert snapshot.artifact("missing") is None
        assert not (tmp_path / "store").exists()
        snapshot.save(tmp_path / "store")
        assert (tmp_path / "store" / "store.json").exists()

    def test_keys_lists_shards(self, tmp_path):
        root = tmp_path / "store"
        warm_poly(Engine.from_source(POLY_SRC)).save(root)
        store = ArtifactStore(root)
        names = {key.function for key in store.keys()}
        assert names == {"add", "poly"}
        assert store.keys(fingerprint="0" * 16) == []


# --------------------------------------------------------------------- #
# Two processes publishing one entry at once.
# --------------------------------------------------------------------- #
def _put_behind_barrier(root, payload, barrier):
    store = ArtifactStore(root)
    barrier.wait(timeout=60)  # both writers have opened the store
    store.put(FunctionArtifact.from_json(payload))


class TestConcurrentPut:
    def test_two_writers_merge_their_profiles(self, tmp_path):
        fcntl = pytest.importorskip("fcntl")  # the store locks entries with it
        root = str(tmp_path / "store")
        payloads = []
        for args in ([3, 20], [5, 7]):
            engine = Engine.from_source(POLY_SRC)
            for _ in range(12):
                engine.call("poly", args)
            payloads.append(engine.snapshot().artifact("poly").as_json())
        context = multiprocessing.get_context()
        barrier = context.Barrier(2)
        writers = [
            context.Process(target=_put_behind_barrier, args=(root, payload, barrier))
            for payload in payloads
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=60)
        assert [writer.exitcode for writer in writers] == [0, 0]

        expected = FunctionArtifact.from_json(payloads[0]).profile.clone()
        expected.merge(FunctionArtifact.from_json(payloads[1]).profile)
        fingerprint = EngineConfig().fingerprint()
        shard = tmp_path / "store" / "objects" / fingerprint
        merged = FunctionArtifact.from_json(json.loads((shard / "poly.json").read_text()))
        assert merged.profile.as_json() == expected.as_json()
        # No temp file is left, and the advisory lock file is not held.
        assert sorted(path.name for path in shard.iterdir()) == ["poly.json", "poly.lock"]
        with open(shard / "poly.lock", "a") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
