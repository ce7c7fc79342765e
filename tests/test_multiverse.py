"""The version multiverse: per-profile versions with entry dispatch.

Differential coverage of the multi-version runtime:

* **Growth + dispatch** — a phase-alternating caller grows one
  arm-pruned specialized version per entry-profile cluster; every call
  dispatches to the best-matching live version and the steady state
  stops deoptimizing, with every result checked against the
  single-tier interpreter oracle.

* **Typed events** — ``VersionAdded`` / ``VersionRetired`` /
  ``EntryDispatched`` counts match the mechanism's counters exactly,
  and the full ``EngineStats`` event fold agrees with
  ``AdaptiveRuntime.stats()`` field for field.

* **Bounds** — ``max_versions=2`` retires the least-recently-used
  version instead of growing without bound; ``max_versions=1`` pins
  the exact pre-multiverse single-generic-version behaviour.

* **Per-version speculation scoping** — a reason refuted against the
  generic version no longer blacklists the pinned-parameter
  speculation a *specialized* build exists to make.

* **Persistence** — a saved multiverse warm-starts with its whole
  version table, zero ``TierUp`` events, and dispatch working from the
  first call; a smaller ``max_versions`` on the opening engine
  truncates to the newest entries.

* **Concurrency** — 8 threads shifting phases out of lockstep against
  the interpreter oracle, with the event fold still exact afterwards.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import (
    Engine,
    EngineConfig,
    EntryDispatched,
    HotnessPolicy,
    TierUp,
    VersionAdded,
    VersionRestored,
    VersionRetired,
)
from repro.ir.interp import Interpreter
from repro.vm.profile import GENERIC_KEY, EntryClusterer, RegisterProfile, VersionKey
from repro.vm.version import excluded_reasons
from repro.workloads import (
    POLYMORPHIC_NAMES,
    polymorphic_arguments,
    polymorphic_function,
    polymorphic_phases,
)

KERNEL = "modal_sum"


def _poly_engine(*, name=KERNEL, policy=None, **overrides):
    config = dict(
        hotness_threshold=3, min_samples=2, max_versions=4
    )
    config.update(overrides)
    return Engine.from_functions(
        polymorphic_function(name), config=EngineConfig(**config), policy=policy
    )


def _phase_inputs(name=KERNEL):
    return [(mode, polymorphic_arguments(name, mode)) for mode in polymorphic_phases(name)]


def _oracle(name, mode):
    args, memory = polymorphic_arguments(name, mode)
    return Interpreter().run(polymorphic_function(name), args, memory=memory).value


def _drive(engine, per_phase, *, cycles=5, block=8, name=KERNEL, expected=None):
    """Phase-alternating calls; every result compared to the oracle."""
    for _ in range(cycles):
        for mode, (args, memory) in per_phase:
            for _ in range(block):
                result = engine.call(name, args, memory=memory)
                if expected is not None:
                    assert result.value == expected[mode], (name, mode)


# ---------------------------------------------------------------------- #
# Entry clustering (unit level).
# ---------------------------------------------------------------------- #
class TestEntryClusterer:
    def test_version_key_matching_and_round_trip(self):
        key = VersionKey(((0, 5), (2, 16)))
        assert key.specificity == 2 and not key.generic
        assert key.matches([5, 99, 16]) and not key.matches([4, 99, 16])
        assert str(key) == "arg0=5,arg2=16"
        assert VersionKey.from_json(key.as_json()) == key
        assert str(GENERIC_KEY) == "generic" and GENERIC_KEY.matches([1, 2, 3])

    def test_stable_slots_form_clusters(self):
        clusterer = EntryClusterer(max_clusters=4)
        for mode in (1, 5, 1, 5, 1, 5):
            clusterer.observe([mode, 7, 16])
        key = clusterer.key_for([5, 7, 16])
        assert key == VersionKey(((0, 5), (1, 7), (2, 16)))
        assert clusterer.cluster_samples(key) == 3
        assert clusterer.cluster_samples(GENERIC_KEY) == clusterer.observed == 6
        assert not clusterer.unstable

    def test_overflowing_slot_drops_out_of_signatures(self):
        clusterer = EntryClusterer(max_clusters=4)
        # Slot 1 takes a fresh value every call (an allocation address);
        # it overflows its histogram and stops discriminating clusters.
        for call in range(40):
            clusterer.observe([call % 2, 1000 + call, 16])
        key = clusterer.key_for([0, 9999, 16])
        assert dict(key.pinned).keys() == {0, 2}
        assert clusterer.cluster_samples(key) == 20
        assert not clusterer.unstable

    def test_signature_churn_demotes_to_generic(self):
        clusterer = EntryClusterer(max_clusters=1)
        # Two stable slots, far more distinct signatures than the bound:
        # the clusterer must admit defeat rather than invent clusters.
        for call in range(48):
            clusterer.observe([call % 8, call % 6])
        assert clusterer.unstable
        assert clusterer.key_for([0, 0]) == GENERIC_KEY

    # -- observe()'s known-signature path against the general one ------- #
    def test_known_signature_path_survives_a_mid_stream_overflow(self):
        # A pointer-like slot overflows early; much later the mode slot
        # takes its ninth value, re-projecting signatures that the fast
        # path has been counting for hundreds of calls.
        stream = [[call % 3, 1000 + call, 16] for call in range(300)]
        stream += [[3 + call % 7, 2000 + call, 16] for call in range(60)]
        fast, _ = _observe_both(stream, max_clusters=4)
        assert fast.slots[0].overflowed and fast.slots[1].overflowed
        assert fast.key_for([0, 1, 16]) == VersionKey(((2, 16),))

    def test_known_signature_path_counts_churn_like_the_general_one(self):
        stream = [[call % 8, call % 6] for call in range(200)]
        stream += [[call % 2, call % 2] for call in range(200)]  # back to known ones
        fast, _ = _observe_both(stream, max_clusters=1)
        assert fast.churn > 0 and len(fast.signatures) == 4

    def test_known_signature_path_handles_shorter_and_longer_calls(self):
        stream = [[1, 7], [1, 7], [1], [1, 7, 9], [1, 7], [1, 7, 9], [], [1]] * 6
        fast, _ = _observe_both(stream, max_clusters=2)
        assert len(fast.slots) == 3

    @settings(max_examples=150, deadline=None)
    @given(
        stream=st.lists(
            st.one_of(
                st.tuples(st.integers(0, 11), st.integers(0, 40), st.integers(0, 1)),
                st.tuples(st.integers(0, 2), st.integers(0, 40)),
                st.tuples(st.integers(0, 11), st.just(5), st.integers(0, 1), st.just(0)),
            ),
            max_size=150,
        ),
        max_clusters=st.integers(1, 4),
    )
    def test_known_signature_path_is_exact(self, stream, max_clusters):
        _observe_both([list(args) for args in stream], max_clusters=max_clusters)


def _reference_observe(self, args):
    """``EntryClusterer.observe`` as it was before it had a fast path:
    one histogram record per argument on every call."""
    self.observed += 1
    slots = self.slots
    if len(slots) < len(args):
        slots.extend(RegisterProfile() for _ in range(len(args) - len(slots)))
        self._stable = None
    overflow_changed = False
    for index, value in enumerate(args):
        slot = slots[index]
        was_overflowed = slot.overflowed
        slot.record(value)
        if slot.overflowed and not was_overflowed:
            overflow_changed = True
    if overflow_changed:
        self._reproject()
    signature = self._signature(args)
    if signature in self.signatures or len(self.signatures) < self._max_signatures:
        self.signatures[signature] += 1
    else:
        self.churn += 1


class _ReferenceClusterer(EntryClusterer):
    observe = _reference_observe


def _observe_both(stream, *, max_clusters):
    """Feed ``stream`` to both clusterers; everything observable agrees
    after every step (for this call's arguments and all earlier ones)."""
    fast = EntryClusterer(max_clusters=max_clusters)
    reference = _ReferenceClusterer(max_clusters=max_clusters)
    seen = []
    for args in stream:
        fast.observe(args)
        reference.observe(args)
        if args not in seen:
            seen.append(args)
        assert fast.observed == reference.observed
        assert fast.signatures == reference.signatures
        assert fast.churn == reference.churn
        assert fast.unstable == reference.unstable
        assert [s.overflowed for s in fast.slots] == [
            s.overflowed for s in reference.slots
        ]
        for probe in seen[-6:]:
            key = fast.key_for(probe)
            assert key == reference.key_for(probe)
            assert fast.cluster_samples(key) == reference.cluster_samples(key)
    return fast, reference


# ---------------------------------------------------------------------- #
# Growth, dispatch and the deopt-free steady state (differential).
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("kernel", POLYMORPHIC_NAMES)
def test_multiverse_grows_and_dispatch_stops_deopting(kernel):
    engine = _poly_engine(name=kernel)
    per_phase = _phase_inputs(kernel)
    expected = {mode: _oracle(kernel, mode) for mode in polymorphic_phases(kernel)}
    _drive(engine, per_phase, name=kernel, expected=expected)

    handle = engine.function(kernel)
    keys = [info.key for info in handle.versions]
    assert len(keys) >= 2, "entry clustering never specialized"
    assert len(set(keys)) == len(keys), "duplicate version keys live at once"
    assert keys[0] == "generic", "the first compile must stay generic"

    # The steady state dispatches without a single further deopt: every
    # phase has a version whose speculation that phase satisfies.
    failures_before = engine.stats(kernel).guard_failures
    _drive(engine, per_phase, cycles=2, name=kernel, expected=expected)
    assert engine.stats(kernel).guard_failures == failures_before

    # Each specialized phase lands on the version pinning its mode.
    for mode, (args, memory) in per_phase:
        engine.call(kernel, args, memory=memory)
        (dispatched,) = [info for info in handle.versions if info.dispatched]
        if dispatched.key != "generic":
            assert f"arg0={mode}" in dispatched.key


def test_exact_version_events_and_stats_fold():
    engine = _poly_engine()
    per_phase = _phase_inputs()
    _drive(engine, per_phase)

    state = engine.runtime.functions[KERNEL]
    events = engine.events
    added = [e for e in events if isinstance(e, VersionAdded)]
    retired = [e for e in events if isinstance(e, VersionRetired)]
    dispatched = [e for e in events if isinstance(e, EntryDispatched)]
    assert len(added) == state.versions_added >= 2
    assert len(retired) == state.versions_retired == 0
    assert len(dispatched) == state.entry_dispatches > 0
    assert {e.key for e in added} == {
        str(entry.key) for entry in state.versions if not entry.key.generic
    }

    # The event fold and the mechanism agree exactly — including the
    # new version gauges and counters.
    stats = engine.stats(KERNEL).as_dict()
    assert stats == engine.runtime.stats(KERNEL)
    assert stats["versions"] == len(state.versions) >= 2

    # Warm steady-state traffic stays event-free: repeating one phase
    # publishes no EntryDispatched after the first switch to it.
    mode, (args, memory) = per_phase[0]
    engine.call(KERNEL, args, memory=memory)
    before = len([e for e in engine.events if isinstance(e, EntryDispatched)])
    for _ in range(10):
        engine.call(KERNEL, args, memory=memory)
    after = len([e for e in engine.events if isinstance(e, EntryDispatched)])
    assert after == before, "same-version traffic must not publish dispatch events"


def test_retirement_at_the_version_bound():
    engine = _poly_engine(max_versions=2)
    per_phase = _phase_inputs()
    _drive(engine, per_phase, cycles=6)

    state = engine.runtime.functions[KERNEL]
    assert len(state.versions) <= 2
    assert state.versions_retired >= 1
    retired = [e for e in engine.events if isinstance(e, VersionRetired)]
    assert len(retired) == state.versions_retired
    live_keys = {str(entry.key) for entry in state.versions}
    for event in retired:
        assert event.versions <= 2
    # Mechanism and fold still agree after retirement churn.
    assert engine.stats(KERNEL).as_dict() == engine.runtime.stats(KERNEL)
    assert live_keys, "retirement must never empty the table"


def test_single_version_config_pins_legacy_behavior():
    engine = _poly_engine(max_versions=1)
    per_phase = _phase_inputs()
    expected = {mode: _oracle(KERNEL, mode) for mode in polymorphic_phases(KERNEL)}
    _drive(engine, per_phase, expected=expected)

    state = engine.runtime.functions[KERNEL]
    assert [str(entry.key) for entry in state.versions] == ["generic"]
    assert state.versions_added == 0 and state.versions_retired == 0
    assert state.entry_dispatches == 0
    assert not [
        e
        for e in engine.events
        if isinstance(e, (VersionAdded, VersionRetired, EntryDispatched))
    ]
    assert engine.stats(KERNEL).as_dict() == engine.runtime.stats(KERNEL)


# ---------------------------------------------------------------------- #
# Per-version speculation scoping (the blacklist bugfix).
# ---------------------------------------------------------------------- #
def test_refuted_reasons_are_scoped_per_version():
    params = _poly_engine().runtime.functions[KERNEL].base.params
    specialized = VersionKey(((0, 7),))
    refuted = {
        GENERIC_KEY: {
            "assume-constant mode == 1",
            "assume-branch if.else18 -> if.then19 (then side hot)",
        },
        specialized: {"assume-constant n == 16"},
    }
    generic_excluded = excluded_reasons(refuted, GENERIC_KEY, params)
    special_excluded = excluded_reasons(refuted, specialized, params)

    # The generic rebuild excludes exactly its own refutations.
    assert generic_excluded == frozenset(
        {
            "assume-constant mode == 1",
            "assume-branch if.else18 -> if.then19 (then side hot)",
        }
    )
    # The specialized build inherits the generic refutations EXCEPT the
    # assume-constant reason about its own pinned parameter (arg 0 is
    # ``mode``): re-speculating that parameter is the whole point of the
    # version, and its entry guard now protects it.
    assert "assume-constant mode == 1" not in special_excluded
    assert "assume-branch if.else18 -> if.then19 (then side hot)" in special_excluded
    assert "assume-constant n == 16" in special_excluded


def test_specialized_version_still_guards_its_pinned_parameter():
    """End to end: the generic version's mode speculation fails under
    other phases, yet the specialized versions still pin (and guard)
    mode — a global blacklist would have forbidden exactly that."""
    from repro.ir.printer import print_function

    engine = _poly_engine()
    per_phase = _phase_inputs()
    _drive(engine, per_phase)
    state = engine.runtime.functions[KERNEL]
    specialized = [entry for entry in state.versions if not entry.key.generic]
    assert specialized, "no specialized versions grew"
    for entry in specialized:
        mode = dict(entry.key.pinned)[0]
        text = print_function(entry.version.optimized)
        assert f'"assume-constant mode == {mode}"' in text


# ---------------------------------------------------------------------- #
# Policy hook.
# ---------------------------------------------------------------------- #
class _VetoVersions(HotnessPolicy):
    def __init__(self):
        self.proposals = []

    def should_add_version(self, state, key, config):
        self.proposals.append(str(key))
        return False


def test_policy_can_veto_version_growth():
    policy = _VetoVersions()
    engine = _poly_engine(policy=policy)
    per_phase = _phase_inputs()
    _drive(engine, per_phase)

    state = engine.runtime.functions[KERNEL]
    assert [str(entry.key) for entry in state.versions] == ["generic"]
    assert state.versions_added == 0
    assert policy.proposals, "the hook was never consulted"
    assert any(key != "generic" for key in policy.proposals)


# ---------------------------------------------------------------------- #
# The inspection API.
# ---------------------------------------------------------------------- #
def test_handle_versions_inspection_api():
    engine = _poly_engine()
    per_phase = _phase_inputs()
    _drive(engine, per_phase)

    handle = engine.function(KERNEL)
    infos = handle.versions
    assert len(infos) >= 2
    assert infos[0].key == "generic"
    assert [info for info in infos if info.dispatched], "no version marked dispatched"
    assert sum(1 for info in infos if info.dispatched) == 1
    for info in infos:
        assert info.tier == "optimized"
        assert info.hits > 0
        with pytest.raises(Exception):
            info.hits = 0  # frozen
    # ``handle.version`` stays the newest entry.
    assert handle.version.key == infos[-1].key


# ---------------------------------------------------------------------- #
# Persistence round trip.
# ---------------------------------------------------------------------- #
def test_warm_start_restores_the_multiverse(tmp_path):
    store = tmp_path / "store"
    engine = _poly_engine()
    per_phase = _phase_inputs()
    expected = {mode: _oracle(KERNEL, mode) for mode in polymorphic_phases(KERNEL)}
    _drive(engine, per_phase, expected=expected)
    saved_keys = [info.key for info in engine.function(KERNEL).versions]
    assert len(saved_keys) >= 2
    engine.save(store)

    from repro.workloads.polymorphic import POLYMORPHIC_SOURCES

    warm = Engine.open(
        POLYMORPHIC_SOURCES[KERNEL],
        store,
        config=EngineConfig(
            hotness_threshold=3, min_samples=2, max_versions=4
        ),
    )
    assert KERNEL in warm.restored_functions
    assert [info.key for info in warm.function(KERNEL).versions] == saved_keys

    # Zero recompiles: the first call of every phase dispatches straight
    # into its restored version.
    _drive(warm, per_phase, cycles=2, expected=expected)
    assert not [e for e in warm.events if isinstance(e, TierUp)]
    restores = [e for e in warm.events if isinstance(e, VersionRestored)]
    assert restores and restores[-1].versions == len(saved_keys)
    assert warm.stats(KERNEL).as_dict() == warm.runtime.stats(KERNEL)
    assert warm.stats(KERNEL).versions == len(saved_keys)


def test_warm_start_truncates_to_the_opening_bound(tmp_path):
    store = tmp_path / "store"
    engine = _poly_engine()
    _drive(engine, _phase_inputs())
    saved_keys = [info.key for info in engine.function(KERNEL).versions]
    assert len(saved_keys) >= 3
    engine.save(store)

    from repro.workloads.polymorphic import POLYMORPHIC_SOURCES

    warm = Engine.open(
        POLYMORPHIC_SOURCES[KERNEL],
        store,
        config=EngineConfig(
            hotness_threshold=3, min_samples=2, max_versions=2
        ),
    )
    kept = [info.key for info in warm.function(KERNEL).versions]
    assert kept == saved_keys[-2:], "truncation must keep the newest entries"


# ---------------------------------------------------------------------- #
# Concurrent phase shifting (differential).
# ---------------------------------------------------------------------- #
STRESS_THREADS = 8


def test_thread_stress_phase_shifting():
    """8 threads rotate through the phases out of lockstep: version
    growth, dispatch, retirement and deopt all race, and every result
    must still match the interpreter oracle."""
    engine = _poly_engine(max_versions=2)
    phases = polymorphic_phases(KERNEL)
    per_phase = {mode: polymorphic_arguments(KERNEL, mode) for mode in phases}
    expected = {mode: _oracle(KERNEL, mode) for mode in phases}
    barrier = threading.Barrier(STRESS_THREADS)
    divergences = []
    errors = []

    def worker(index: int):
        barrier.wait()
        try:
            for step in range(24):
                # Each thread starts at a different phase and rotates,
                # so the engine sees conflicting clusters concurrently.
                mode = phases[(index + step // 6) % len(phases)]
                args, memory = per_phase[mode]
                result = engine.call(KERNEL, args, memory=memory)
                if result.value != expected[mode]:
                    divergences.append((index, mode, result.value, expected[mode]))
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(repr(exc))

    threads = [
        threading.Thread(target=worker, args=(index,))
        for index in range(STRESS_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert errors == []
    assert divergences == []

    state = engine.runtime.functions[KERNEL]
    assert len(state.versions) <= 2
    # No torn installs: every live version is complete.
    for entry in state.versions:
        for point in entry.version.pair.guard_points():
            assert point in entry.version.plans
    assert engine.stats(KERNEL).as_dict() == engine.runtime.stats(KERNEL)
    assert engine.stats(KERNEL).calls == STRESS_THREADS * 24
