"""Versions: what one is, how one is built, and the table that holds them.

In the vocabulary of "On-Stack Replacement à la Carte" a *version* is
code plus mappings.  This module owns that noun end to end and nothing
else — it takes no lock, publishes no event and touches no runtime
state, so every function here is testable without an engine:

* :class:`CompiledVersion` — the immutable artifact of one build: the
  version pair, its per-guard deoptimization plans, the forward mapping
  and the K_avail keep-alive set, all from the *same* build.
* :func:`build_version` — profile snapshot + entry-profile key →
  :class:`CompiledVersion`.  The only thing a compile worker runs.
  :func:`verify_gate` is the static soundness check every version
  passes before it may be published.
* :class:`SpecializedVersion` — one table entry: a compiled version,
  the key it was specialized for and its mutable bookkeeping.
* :func:`select` / :func:`admit` / :func:`without` — the whole version
  table algorithm over immutable tuples.  The coordinator
  (:mod:`repro.vm.runtime`) swaps the resulting tuple into
  ``TieredFunction.versions`` with a single assignment under the
  function's lock, which is what makes installs atomic: a thread that
  read an entry once holds a pair, plans and mappings that all belong
  together, however many installs or invalidations race it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    MutableMapping,
    Optional,
    Sequence,
    Tuple,
)

from ..analysis.soundness import (
    PROVED,
    UNCHECKED,
    VIOLATED,
    WARNED,
    UnsoundVersionError,
    VerifyReport,
    verify_version,
)
from ..core.frames import DeoptPlan
from ..core.mapping import OSRMapping
from ..core.osr_trans import OSRTransDriver, VersionPair
from ..core.reconstruct import ReconstructionMode
from ..ir.function import Function, ProgramPoint
from ..passes import interprocedural_pipeline, speculative_pipeline, standard_pipeline
from .profile import GENERIC_KEY, FunctionProfile, RegisterProfile, ValueProfile, VersionKey

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.config import EngineConfig
    from .backend import BoundEntry

__all__ = [
    "NO_GAUGES",
    "CompiledVersion",
    "SpecializedVersion",
    "build_version",
    "verify_gate",
    "pin_profile",
    "excluded_reasons",
    "select",
    "admit",
    "without",
    "drop_continuations",
]


@dataclass(frozen=True)
class CompiledVersion:
    """One optimized tier, complete and immutable.

    Built entirely off to the side (possibly on a compile worker) and
    published by swapping a new tuple into ``TieredFunction.versions``:
    an executing thread that read the version once holds a consistent
    view — its pair, its plans, its forward mapping and its keep-alive
    set all belong to the same build.
    """

    pair: VersionPair
    #: Per-guard deoptimization plans (multi-frame for guards inside
    #: inlined code); the publication contract is that every guard point
    #: has one.
    plans: Mapping[ProgramPoint, DeoptPlan]
    #: Mapped f_base → f_opt entry points for optimizing OSR.
    forward_mapping: OSRMapping
    #: Registers the deopt compensations read even though they are dead
    #: in the optimized code (the paper's K_avail): the runtime must keep
    #: them alive across an optimizing OSR entry.
    keep_alive: FrozenSet[str]
    speculative: bool
    #: Full f_opt → f_base mapping, carried only by versions hydrated
    #: from a persisted artifact: their pair has no
    #: :class:`~repro.core.codemapper.CodeMapper` to rebuild one from,
    #: so the mapping itself is part of the artifact.  ``None`` on
    #: locally built versions (rebuilt lazily from the mapper instead).
    backward: Optional[OSRMapping] = None
    #: Inlined-frame count override for hydrated versions (the live count
    #: is derived from the mapper, which a hydrated pair lacks).
    restored_frames: Optional[int] = None

    @property
    def optimized(self) -> Function:
        return self.pair.optimized

    @property
    def inlined_frames(self) -> int:
        if self.restored_frames is not None:
            return self.restored_frames
        return len(self.pair.inlined_frames())

    def gauges(self) -> Dict[str, int]:
        """The installed-version facts events and stats both report."""
        return {
            "speculative": self.speculative,
            "guards": len(self.pair.guard_points()),
            "inlined_frames": self.inlined_frames,
        }


#: :meth:`CompiledVersion.gauges` of a function with no live version.
NO_GAUGES = {"speculative": False, "guards": 0, "inlined_frames": 0}


# ---------------------------------------------------------------------- #
# Build: profile → version.
# ---------------------------------------------------------------------- #
def excluded_reasons(
    refuted: Mapping[VersionKey, Iterable[str]],
    key: VersionKey,
    params: Sequence[str],
) -> FrozenSet[str]:
    """Guard reasons a build for ``key`` must not re-speculate.

    Blacklists are scoped per version key: a reason refuted against one
    version never poisons a *sibling* whose entry profile makes the same
    speculation sound.  A specialized build does inherit the generic
    version's refutations — its mixed traffic is what nominated the
    cluster in the first place — **except** constant assumptions about
    the very parameters the key pins: for those, the pinned profile
    (monomorphic by construction) is the authority, and re-enabling them
    is the point of per-key scoping.
    """
    exclude = set(refuted.get(key, ()))
    if not key.generic:
        pinned_names = {
            params[index] for index, _ in key.pinned if index < len(params)
        }
        for reason in refuted.get(GENERIC_KEY, ()):
            if reason.startswith("assume-constant "):
                if reason.split(" ", 2)[1] in pinned_names:
                    continue
            exclude.add(reason)
    return frozenset(exclude)


def pin_profile(
    base: Function, profile: FunctionProfile, key: VersionKey, min_samples: int
) -> FunctionProfile:
    """A clone of ``profile`` with ``key``'s parameters pinned.

    Specialization to an entry-profile cluster reuses the existing
    speculative machinery wholesale: each pinned parameter is given a
    perfectly monomorphic histogram, so the speculative pass guards it
    as an assumed constant and constant propagation folds the dispatch
    arms it selects — no dedicated compiler pass.

    Value histograms of *non-parameter* registers and all branch biases
    are dropped: the shared profile aggregates every entry cluster, so
    an intermediate register (say, a dispatch comparison) or a
    dispatch-arm branch can look monomorphic only because a *different*
    phase dominated the recording.  Speculating on it inside a build
    whose pinned parameters imply the other outcome constant-folds the
    guard predicate to false — a version that deoptimizes on every
    call.  Call-site profiles are kept (inlining decisions survive); the
    pinned parameters themselves carry the specialization.
    """
    pinned = profile.clone()
    params = base.params
    pinned.values = {
        name: prof for name, prof in pinned.values.items() if name in params
    }
    pinned.branches = {}
    weight = max(min_samples, 1)
    for index, value in key.pinned:
        if index < len(params):
            pinned.values[params[index]] = RegisterProfile(Counter({value: weight}))
    return pinned


def _assemble(
    pair: VersionPair,
    plans: Mapping[ProgramPoint, DeoptPlan],
    mode: ReconstructionMode,
    *,
    speculate: bool,
) -> CompiledVersion:
    keep_alive: FrozenSet[str] = frozenset()
    if speculate:
        for plan in plans.values():
            keep_alive |= plan.keep_alive()
    return CompiledVersion(
        pair=pair,
        plans=plans,
        forward_mapping=pair.forward_mapping(mode),
        keep_alive=keep_alive,
        speculative=speculate and bool(pair.guard_points()),
    )


def build_version(
    base: Function,
    key: VersionKey,
    profile_snapshot: ValueProfile,
    excluded: FrozenSet[str],
    config: "EngineConfig",
    resolve: Callable[[str], Optional[Function]],
) -> Tuple[CompiledVersion, Optional[ProgramPoint]]:
    """Build an optimized tier of ``base``, speculatively when safely possible.

    Pure construction over a merged profile snapshot.  ``key`` selects
    the entry-profile cluster to specialize for (the generic key builds
    the unspecialized version); ``excluded`` are the guard reasons
    already refuted for it (:func:`excluded_reasons`); ``resolve`` maps
    a callee name to its base function for the inliner.

    Returns the version and, when the speculative build had to be
    discarded because some guard cannot deoptimize, that guard's point
    (the version is then the non-speculative fallback) — announcing the
    rejection is the caller's job.
    """
    mode = config.mode
    rejected: Optional[ProgramPoint] = None
    if config.effective_speculate:
        caller_profile = profile_snapshot.function(base.name)
        if not key.generic:
            caller_profile = pin_profile(base, caller_profile, key, config.min_samples)
        if config.effective_inline:
            pipeline = interprocedural_pipeline(
                caller_profile,
                caller_profile.clone(),
                resolve=resolve,
                callee_profile=profile_snapshot.function,
                min_samples=config.min_samples,
                min_ratio=config.min_ratio,
                min_site_calls=config.inline_min_calls,
                max_callee_size=config.max_callee_size,
                max_inline_depth=config.max_inline_depth,
                exclude=excluded,
            )
        else:
            pipeline = speculative_pipeline(
                caller_profile,
                min_samples=config.min_samples,
                min_ratio=config.min_ratio,
                exclude=excluded,
            )
        pair = OSRTransDriver(pipeline).run(base)
        plans, uncovered = pair.deopt_plans(mode)
        if not uncovered:
            return _assemble(pair, plans, mode, speculate=True), None
        rejected = uncovered[0]
    pipeline = list(config.passes) if config.passes is not None else standard_pipeline()
    pair = OSRTransDriver(pipeline).run(base)
    plans, _ = pair.deopt_plans(mode)
    return _assemble(pair, plans, mode, speculate=False), rejected


def verify_gate(
    version: CompiledVersion,
    key: VersionKey,
    name: str,
    mode: str,
    origin: Optional[object] = None,
) -> Optional[VerifyReport]:
    """The publication gate of ``EngineConfig.verify_deopt`` (``mode``).

    ``off`` skips (returns ``None``); ``strict`` raises
    :class:`~repro.analysis.soundness.UnsoundVersionError` on any failed
    obligation — the version never reaches the table, and on the
    background pipeline the error goes sticky like a compiler crash;
    ``warn`` returns the failing report for the caller to count and
    announce.  The report is kept on the published entry so ``repro
    inspect --show guards`` can render per-guard statuses.  ``origin``
    names the artifact store a hydrated version came from, so a strict
    rejection says *which artifact on disk* is unsound.
    """
    if mode == "off":
        return None
    report = verify_version(version, key=key, function_name=name)
    if not report.ok and mode == "strict":
        context = (
            f"artifact store {origin} holds an unsound persisted version "
            f"of @{name} [key {key}]"
            if origin is not None
            else f"refusing to publish compiled version for @{name} [key {key}]"
        )
        raise UnsoundVersionError(report, context=context)
    return report


# ---------------------------------------------------------------------- #
# The table: entries, selection, admission, removal.
# ---------------------------------------------------------------------- #
@dataclass
class SpecializedVersion:
    """One live entry of a function's version multiverse.

    Pairs an immutable :class:`CompiledVersion` with the entry-profile
    :class:`~repro.vm.profile.VersionKey` it was specialized for and the
    mutable per-version bookkeeping.  The counters are protected by the
    owning ``TieredFunction``'s lock; :attr:`backward_cache` is an
    idempotent lazy value and needs none.
    """

    key: VersionKey
    version: CompiledVersion
    #: Entry dispatches served by this version.
    hits: int = 0
    #: Dispatch sequence number of the most recent hit (LRU retirement).
    last_used: int = 0
    #: Per-guard-point failure counters of *this* version.
    failures_at: Dict[ProgramPoint, int] = field(default_factory=dict)
    #: Lazily built full backward mapping of this version.
    backward_cache: Optional[OSRMapping] = None
    #: The static soundness verifier's report for this version (``None``
    #: when it was published with ``verify_deopt="off"``) — the
    #: inspection API renders per-guard obligation statuses from it.
    verify_report: Optional[VerifyReport] = None
    #: The optimized tier's bound entry for ``version.optimized``,
    #: ``(args, memory) -> ExecutionResult``, resolved once at publish
    #: (:meth:`repro.vm.backend.ExecutionBackend.prepare`); ``None``
    #: only on entries built outside the runtime.
    run: Optional["BoundEntry"] = None

    def backward_mapping(self, mode: ReconstructionMode) -> OSRMapping:
        """The full f_opt → f_base mapping of exactly this version.

        Guard failures are served by per-guard plans, so only forced
        deoptimization and snapshots need it: built on first use from
        the pair's mapper (or taken from the artifact a hydrated version
        came with) and kept on the entry.  Racing first uses build equal
        mappings; the last assignment wins.
        """
        if self.backward_cache is None:
            self.backward_cache = (
                self.version.backward
                if self.version.backward is not None
                else self.version.pair.backward_mapping(mode)
            )
        return self.backward_cache

    def guard_obligations(self) -> Dict[str, str]:
        """Per-guard-point obligation status of this published version.

        ``proved`` — the verifier discharged every obligation anchored
        at the point; ``warned`` — warn mode published the version
        despite a violation there (or a whole-version violation that
        taints every guard); ``unchecked`` — the version was published
        with the verifier off.
        """
        guard_points = [str(p) for p in self.version.pair.guard_points()]
        report = self.verify_report
        if report is None:
            return {point: UNCHECKED for point in guard_points}
        global_violation = any(v.point is None for v in report.violations)
        statuses: Dict[str, str] = {}
        for point in guard_points:
            status = report.guard_status.get(point, PROVED)
            if status == VIOLATED or (status == PROVED and global_violation):
                status = WARNED
            statuses[point] = status
        return statuses

    def describe(self, *, dispatched: bool) -> Dict[str, object]:
        """A JSON-safe description (caller holds the owning state's lock)."""
        report = self.verify_report
        return {
            "key": str(self.key),
            **self.version.gauges(),
            "hits": self.hits,
            "last_used": self.last_used,
            "dispatched": dispatched,
            "guard_failures": {
                str(point): count
                for point, count in sorted(
                    self.failures_at.items(), key=lambda kv: str(kv[0])
                )
            },
            "guard_obligations": self.guard_obligations(),
            "soundness_violations": [
                {
                    "obligation": violation.name,
                    "point": violation.point,
                    "detail": violation.detail,
                }
                for violation in (report.violations if report is not None else ())
            ],
        }


def select(
    versions: Sequence[SpecializedVersion], args: Sequence[int]
) -> Optional[SpecializedVersion]:
    """The best-matching entry for ``args``, or ``None``.

    Every pinned slot of a candidate's key must match; among matches the
    most *specific* key wins (a specialized version beats the generic
    one for its own cluster), newest-installed breaking ties.  The scan
    is O(versions × pinned slots) integer compares — the call fast path
    stays cheap because ``max_versions`` is small.
    """
    best: Optional[SpecializedVersion] = None
    for candidate in versions:
        if candidate.key.matches(args) and (
            best is None or candidate.key.specificity >= best.key.specificity
        ):
            best = candidate
    return best


def admit(
    versions: Sequence[SpecializedVersion],
    entry: SpecializedVersion,
    max_versions: int,
) -> Tuple[Tuple[SpecializedVersion, ...], List[SpecializedVersion]]:
    """``versions`` with ``entry`` appended as the newest, within bound.

    Replaces any live entry with the same key (at most one entry per
    key), then retires the least-recently-dispatched entries — never the
    newcomer — until at most ``max_versions`` remain.  Returns the new
    table and the retired entries (a replaced same-key entry is not
    *retired*, but its continuations are just as dead: see
    :func:`drop_continuations`).
    """
    entries = [live for live in versions if live.key != entry.key]
    entries.append(entry)
    retired: List[SpecializedVersion] = []
    while len(entries) > max_versions:
        victim = min(entries[:-1], key=lambda e: (e.last_used, e.hits))
        entries.remove(victim)
        retired.append(victim)
    return tuple(entries), retired


def without(
    versions: Sequence[SpecializedVersion], entry: SpecializedVersion
) -> Tuple[SpecializedVersion, ...]:
    """``versions`` minus exactly ``entry`` (by identity, not by key)."""
    return tuple(live for live in versions if live is not entry)


def drop_continuations(
    continuations: MutableMapping[tuple, object], dead_keys: Iterable[VersionKey]
) -> List[object]:
    """Flush (and return) cached continuations belonging to ``dead_keys``.

    A continuation is specialized against one version (its cache key
    leads with that version's :class:`VersionKey`); once the version is
    replaced, retired or invalidated it must never serve a live one.
    """
    dead = set(dead_keys)
    return [
        continuations.pop(ckey)
        for ckey in [ckey for ckey in continuations if ckey[0] in dead]
    ]
