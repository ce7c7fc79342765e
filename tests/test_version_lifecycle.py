"""The version lifecycle, one step at a time: build → verify → admit →
select → fail → retire.

`repro.vm.version` takes no lock and publishes no event, so the table
algorithm and the builder are tested here without an engine; the
coordinator's single publication path (`AdaptiveRuntime._publish_version`)
is tested with a bare runtime and versions built off to the side.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.reconstruct import ReconstructionMode
from repro.engine import (
    Engine,
    EngineConfig,
    SpeculationRejected,
    TierUp,
    VersionAdded,
    VersionRestored,
    VersionRetired,
    event_as_dict,
)
from repro.ir.interp import Interpreter
from repro.ir.printer import print_function
from repro.store import FunctionArtifact, StoreFormatError
from repro.vm import AdaptiveRuntime
from repro.vm.profile import GENERIC_KEY, ValueProfile, VersionKey
from repro.vm.version import (
    SpecializedVersion,
    admit,
    build_version,
    select,
    without,
)
from repro.workloads import (
    polymorphic_arguments,
    polymorphic_function,
    polymorphic_phases,
    polymorphic_source,
    speculative_arguments,
    speculative_function,
)

# ---------------------------------------------------------------------- #
# The table algorithm: admit / select / without.
# ---------------------------------------------------------------------- #
KEYS = st.builds(
    lambda pins: VersionKey(tuple(sorted(pins.items()))),
    st.dictionaries(st.integers(0, 1), st.integers(0, 2), max_size=2),
)
ARGS = st.tuples(st.integers(0, 2), st.integers(0, 2))
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("admit"), KEYS),
        st.tuples(st.just("call"), ARGS),
        st.tuples(st.just("remove"), st.integers(0, 7)),
    ),
    max_size=40,
)


def _best_match(versions, args):
    """Brute-force spec of `select`: most specific match, newest on ties."""
    matches = [
        (entry.key.specificity, index)
        for index, entry in enumerate(versions)
        if all(args[slot] == value for slot, value in entry.key.pinned)
    ]
    return versions[max(matches)[1]] if matches else None


@settings(max_examples=200, deadline=None)
@given(ops=OPS, max_versions=st.integers(1, 4))
def test_table_invariants_over_random_sequences(ops, max_versions):
    versions = ()
    clock = 0
    for op, operand in ops:
        if op == "admit":
            clock += 1
            before = versions
            entry = SpecializedVersion(key=operand, version=object(), last_used=clock)
            versions, retired = admit(before, entry, max_versions)
            # The newcomer is the newest entry and replaced any same-key one.
            assert versions[-1] is entry
            # Retirement picks the least-recently-used entry, never the newcomer.
            survivors = [live for live in before if live.key != operand]
            for victim in retired:
                assert victim is min(survivors, key=lambda e: (e.last_used, e.hits))
                survivors.remove(victim)
            assert list(versions[:-1]) == survivors
        elif op == "call":
            chosen = select(versions, operand)
            assert chosen is _best_match(versions, operand)
            if chosen is not None:
                clock += 1
                chosen.hits += 1
                chosen.last_used = clock
        elif versions:
            victim = versions[operand % len(versions)]
            versions = without(versions, victim)
            assert victim not in versions
        keys = [entry.key for entry in versions]
        assert len(versions) <= max_versions
        assert len(set(keys)) == len(keys), "one live entry per key"


def test_without_removes_by_identity_not_by_key():
    old = SpecializedVersion(key=GENERIC_KEY, version=object())
    new = SpecializedVersion(key=GENERIC_KEY, version=object())
    assert without((new,), old) == (new,)
    assert without((old, new), old) == (new,)


# ---------------------------------------------------------------------- #
# build_version: pure, and it *returns* a rejection instead of publishing.
# ---------------------------------------------------------------------- #
def _profiled(name, calls=4):
    function = speculative_function(name)
    profile = ValueProfile()
    interpreter = Interpreter(profiler=profile)
    for _ in range(calls):
        args, memory = speculative_arguments(name)
        interpreter.run(function, args, memory=memory)
    return function, profile


def _no_callee(name):
    return None


@pytest.mark.parametrize("key", (GENERIC_KEY, VersionKey(((0, 3),))), ids=str)
def test_build_version_is_pure(key):
    function, profile = _profiled("dispatch")
    config = EngineConfig(min_samples=2)
    base_text = print_function(function)
    snapshot_before = json.dumps(profile.function("dispatch").as_json(), sort_keys=True)

    first, first_rejected = build_version(
        function, key, profile, frozenset(), config, _no_callee
    )
    second, second_rejected = build_version(
        function, key, profile, frozenset(), config, _no_callee
    )

    assert print_function(first.optimized) == print_function(second.optimized)
    assert first.speculative and first_rejected is second_rejected is None
    assert set(first.plans) == set(first.pair.guard_points())
    # Neither the base function nor the profile snapshot was touched.
    assert print_function(function) == base_text
    assert (
        json.dumps(profile.function("dispatch").as_json(), sort_keys=True)
        == snapshot_before
    )


def test_build_version_honours_excluded_reasons():
    function, profile = _profiled("dispatch")
    config = EngineConfig(min_samples=2)

    def guard_reasons(excluded):
        version, _ = build_version(
            function, GENERIC_KEY, profile, excluded, config, _no_callee
        )
        return frozenset(
            inst.reason
            for point, inst in version.optimized.instructions()
            if point in version.plans
        )

    refuted = guard_reasons(frozenset())
    assert refuted
    assert guard_reasons(refuted).isdisjoint(refuted)


def test_build_version_returns_the_rejected_point():
    # Under LIVE reconstruction one of clamp_sum's guards has no deopt
    # plan: the speculative build is discarded for the plain pipeline,
    # and the builder *says so* instead of announcing anything itself.
    function, profile = _profiled("clamp_sum")
    config = EngineConfig(min_samples=2, mode=ReconstructionMode.LIVE)
    version, rejected = build_version(
        function, GENERIC_KEY, profile, frozenset(), config, _no_callee
    )
    assert rejected is not None
    assert not version.speculative and version.keep_alive == frozenset()

    # The coordinator is the one that turns it into an event, once.
    engine = Engine.from_functions(function, config=config.replace(hotness_threshold=3))
    for _ in range(4):
        args, memory = speculative_arguments("clamp_sum")
        engine.call("clamp_sum", args, memory=memory)
    rejections = [e for e in engine.events if isinstance(e, SpeculationRejected)]
    assert [e.point for e in rejections] == [rejected]
    tier_ups = [e for e in engine.events if isinstance(e, TierUp)]
    assert len(tier_ups) == 1 and not tier_ups[0].speculative


# ---------------------------------------------------------------------- #
# _publish_version: one path, local and restored.
# ---------------------------------------------------------------------- #
KERNEL = "modal_sum"


def _modal_versions(config):
    """A generic and two specialized versions of modal_sum, built off to the side."""
    function = polymorphic_function(KERNEL)
    profile = ValueProfile()
    interpreter = Interpreter(profiler=profile)
    keys = [GENERIC_KEY]
    for mode in polymorphic_phases(KERNEL)[:2]:
        args, memory = polymorphic_arguments(KERNEL, mode)
        for _ in range(4):
            interpreter.run(function, args, memory=memory)
        keys.append(VersionKey(((0, mode),)))
    return function, [
        (key, build_version(function, key, profile, frozenset(), config, _no_callee)[0])
        for key in keys
    ]


def _published(config, *, restored):
    function, versions = _modal_versions(config)
    runtime = AdaptiveRuntime(config)
    state = runtime.register(function)
    for key, version in versions:
        assert runtime._publish_version(state, version, key, restored=restored)
    return runtime, [event_as_dict(event) for event in runtime.bus.events()]


def test_publish_emits_the_same_sequence_locally_and_restored():
    config = EngineConfig(min_samples=2, max_versions=2, verify_deopt="strict")
    local_runtime, local = _published(config, restored=False)
    restored_runtime, restored = _published(config, restored=True)

    assert [e["kind"] for e in local] == [
        "tier-up",  # generic: the plain first install
        "tier-up", "version-added",  # specialized: the multiverse grows
        "tier-up", "version-added", "version-retired",  # third version, two slots
    ]  # fmt: skip
    # Modulo TierUp <-> VersionRestored, and VersionAdded being a
    # local-growth announcement, the two streams are the same events.
    def normalise(events):
        kept = [dict(e) for e in events if e["kind"] != "version-added"]
        for event in kept:
            if event["kind"] in ("tier-up", "version-restored"):
                event["kind"] = "published"
                event.pop("compile_seconds", None)
        return kept

    assert normalise(local) == normalise(restored)
    assert not any(e["kind"] in ("tier-up", "version-added") for e in restored)

    # Same table either way; only local growth counts as "added".
    for runtime in (local_runtime, restored_runtime):
        keys = [str(entry.key) for entry in runtime.functions[KERNEL].versions]
        assert len(keys) == 2 and keys[-1] == local[-2]["key"]
        assert local[-1]["key"] not in keys  # the retired one is gone
    assert local_runtime.stats(KERNEL)["versions_added"] == 2
    assert restored_runtime.stats(KERNEL)["versions_added"] == 0
    assert local_runtime.stats(KERNEL)["versions_retired"] == 1
    assert restored_runtime.stats(KERNEL)["versions_retired"] == 1


def test_one_slot_table_admits_only_the_generic_version():
    config = EngineConfig(min_samples=2, max_versions=1)
    function, versions = _modal_versions(config)
    runtime = AdaptiveRuntime(config)
    state = runtime.register(function)
    outcomes = [
        runtime._publish_version(state, version, key, restored=True)
        for key, version in versions
    ]
    assert outcomes == [True, False, False]
    assert [entry.key for entry in state.versions] == [GENERIC_KEY]
    assert [type(e) for e in runtime.bus.events()] == [VersionRestored]


def test_one_slot_table_regrows_a_generic_version_when_nothing_matches():
    # Should a specialized version ever hold the only slot, a hot call
    # from another cluster must be able to replace it with the generic one.
    config = EngineConfig(hotness_threshold=3, min_samples=2, max_versions=1)
    function, versions = _modal_versions(config)
    runtime = AdaptiveRuntime(config)
    state = runtime.register(function)
    key, version = versions[1]
    state.versions = (SpecializedVersion(key=key, version=version),)
    other_mode = polymorphic_phases(KERNEL)[1]
    args, memory = polymorphic_arguments(KERNEL, other_mode)
    assert not key.matches(args)
    expected = Interpreter().run(function, args, memory=memory.copy()).value
    for _ in range(4):
        assert runtime.call(KERNEL, args, memory=memory).value == expected
    assert [entry.key for entry in state.versions] == [GENERIC_KEY]
    kinds = [type(e) for e in runtime.bus.events()]
    assert TierUp in kinds and VersionRetired in kinds and VersionAdded in kinds


# ---------------------------------------------------------------------- #
# The bound entry: resolved at publish, whichever way a version came in.
# ---------------------------------------------------------------------- #
def _function_run_by(backend, entry, args, memory):
    """Call ``entry.run``; return the function it executed and the result."""
    # The backend binds the cached artifact's checked entry.
    artifact = backend.compiled_artifact(entry.version.optimized)
    assert entry.run is artifact.invoke
    return artifact.function, entry.run(args, memory)


def test_every_way_into_the_table_binds_the_entrys_own_code(tmp_path):
    config = EngineConfig(hotness_threshold=3, min_samples=2, max_versions=4)
    source = polymorphic_source(KERNEL)
    phases = {
        mode: polymorphic_arguments(KERNEL, mode) for mode in polymorphic_phases(KERNEL)
    }
    oracle = {
        mode: Interpreter().run(polymorphic_function(KERNEL), args, memory=memory.copy())
        for mode, (args, memory) in phases.items()
    }
    # Local builds: the first tier-up is generic, phase traffic then
    # grows specialized versions; hydration re-installs all of them.
    engine = Engine.from_source(source, config=config)
    for _ in range(4):
        for args, memory in phases.values():
            for _ in range(8):
                engine.call(KERNEL, args, memory=memory)
    engine.save(tmp_path)
    reopened = Engine.open(source, tmp_path, config=config)
    assert KERNEL in reopened.restored_functions

    for each in (engine, reopened):
        entries = each.function(KERNEL).state.versions
        assert [entry.key.generic for entry in entries].count(True) == 1
        assert len(entries) >= 3
        backend = each.runtime.opt_backend
        for entry in entries:
            mode = next(m for m, (args, _) in phases.items() if entry.key.matches(args))
            args, memory = phases[mode]
            function, result = _function_run_by(backend, entry, args, memory.copy())
            assert function is entry.version.optimized
            assert result.value == oracle[mode].value
            assert result.backend == "compiled"
        # The arity check moved into the bound entry with the rest.
        short = phases[polymorphic_phases(KERNEL)[0]][0][:2]
        with pytest.raises(TypeError) as direct:
            backend.run(entries[-1].version.optimized, short)
        with pytest.raises(TypeError, match="expects 3 arguments, got 2") as raised:
            each.call(KERNEL, short)
        assert str(raised.value) == str(direct.value)
        each.close()


# ---------------------------------------------------------------------- #
# The store persists exactly one list of versions per function.
# ---------------------------------------------------------------------- #
def test_artifact_round_trips_on_the_single_list_format(tmp_path):
    config = EngineConfig(hotness_threshold=3, min_samples=2, max_versions=4)
    engine = Engine.from_functions(polymorphic_function(KERNEL), config=config)
    for _ in range(4):
        for mode in polymorphic_phases(KERNEL):
            args, memory = polymorphic_arguments(KERNEL, mode)
            for _ in range(8):
                engine.call(KERNEL, args, memory=memory)
    live = [info.key for info in engine.function(KERNEL).versions]
    assert len(live) >= 2

    artifact = engine.snapshot().artifact(KERNEL)
    data = json.loads(json.dumps(artifact.as_json()))
    assert data["format"] == 2 and "tier" not in data and "tier_versions" not in data
    assert [str(VersionKey.from_json(item["key"])) for item in data["versions"]] == live
    # Each optimized body is stored once.
    bodies = [item["tier"]["optimized_ir"] for item in data["versions"]]
    assert json.dumps(data).count(json.dumps(bodies[-1])) == 1
    assert FunctionArtifact.from_json(data).as_json() == data

    legacy = dict(data, format=1, tier=data["versions"][-1]["tier"])
    with pytest.raises(StoreFormatError, match="format 1"):
        FunctionArtifact.from_json(legacy)
    with pytest.raises(StoreFormatError, match="malformed"):
        FunctionArtifact.from_json({k: v for k, v in data.items() if k != "versions"})
