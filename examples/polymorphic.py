"""The version multiverse: one specialized version per entry profile.

A phase-alternating caller is the worst case for a single speculative
version: each phase pins a different ``mode``, so whatever one version
assumes, the next phase violates.  The pre-multiverse engine
(``max_versions=1``) settles on a compromise; with ``max_versions > 1``
the engine clusters entry profiles, keeps one arm-pruned specialized
version per hot cluster, and dispatches every call to the best-matching
live version — the dispatched *entries* generalization of Deoptless's
dispatched deopt targets.

The example drives the ``modal_sum`` kernel (an 8-arm ``mode`` dispatch
loop) through three phases, with an event-bus subscriber printing every
version the engine adds, retires or switches to, then shows the
resulting version table and the deopt-free steady state.

Run with:  python examples/polymorphic.py
"""

from repro.engine import (
    Engine,
    EngineConfig,
    EntryDispatched,
    TierUp,
    VersionAdded,
    VersionRetired,
)
from repro.workloads import (
    polymorphic_arguments,
    polymorphic_function,
    polymorphic_phases,
)

KERNEL = "modal_sum"


def main() -> None:
    engine = Engine.from_functions(
        polymorphic_function(KERNEL),
        config=EngineConfig(hotness_threshold=3, min_samples=2, max_versions=4),
    )

    def narrate(event) -> None:
        if isinstance(event, TierUp):
            print(f"  [compile]  tier-up under key '{event.key}'")
        elif isinstance(event, VersionAdded):
            print(f"  [grow]     version '{event.key}' added ({event.versions} live)")
        elif isinstance(event, VersionRetired):
            print(f"  [retire]   version '{event.key}' evicted ({event.versions} live)")
        elif isinstance(event, EntryDispatched):
            print(f"  [dispatch] entry switched to version '{event.key}'")

    engine.subscribe(narrate)
    handle = engine.function(KERNEL)
    phases = polymorphic_phases(KERNEL)

    print(f"driving {KERNEL} through phases {list(phases)}:")
    for cycle in range(3):
        for mode in phases:
            args, memory = polymorphic_arguments(KERNEL, mode)
            for _ in range(6):
                handle.call(args, memory=memory)

    print("\nlive version table (oldest first):")
    for info in handle.versions:
        marker = "  <- dispatched" if info.dispatched else ""
        print(f"  {info.key:24s} hits={info.hits:3d}{marker}")

    stats = handle.stats
    print(
        f"\nversions={stats.versions} added={stats.versions_added} "
        f"retired={stats.versions_retired} entry_dispatches={stats.entry_dispatches}"
    )
    recompiles = sum(1 for event in engine.events if isinstance(event, TierUp))
    assert recompiles <= 4, "the multiverse must reuse versions, not recompile"
    assert stats.versions >= 2, "entry clustering should have specialized"

    # The steady state: every phase dispatches to its own version and
    # nothing deoptimizes any more.
    failures_before = handle.stats.guard_failures
    for mode in phases:
        args, memory = polymorphic_arguments(KERNEL, mode)
        for _ in range(6):
            handle.call(args, memory=memory)
    assert handle.stats.guard_failures == failures_before
    print("steady state: one more full phase cycle ran with zero deopts")


if __name__ == "__main__":
    main()
