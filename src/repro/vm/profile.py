"""Runtime value and branch profiles feeding the speculative tier.

The base tier of the adaptive runtime executes functions in the
interpreter with a :class:`ValueProfile` attached.  The profile records,
per function:

* the observed values of every defined register (parameters, assigns,
  loads and phi results), with a bounded per-register histogram, and
* the taken/not-taken counts of every conditional branch.

When a function gets hot, :class:`~repro.passes.speculate.SpeculativeGuards`
asks the profile two questions: which registers were *monomorphic*
(always — or almost always — one value) and which branches were heavily
*biased* in one direction.  Those are the facts the speculative tier
assumes and protects with ``guard`` instructions.

Concurrency: a :class:`ValueProfile` is a single-threaded sink — its
histograms are plain dict/Counter read-modify-write sequences.  The
adaptive runtime therefore records into a :class:`ShardedValueProfile`,
which keeps one private :class:`ValueProfile` *per recording thread*
(no locks on the hot profiling path, no lost updates) and merges the
shards into an immutable snapshot at compile-submission time via the
:meth:`FunctionProfile.merge`/:meth:`FunctionProfile.clone` machinery.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..ir.function import ProgramPoint

__all__ = [
    "RegisterProfile",
    "BranchProfile",
    "CallSiteProfile",
    "FunctionProfile",
    "ValueProfile",
    "ShardedValueProfile",
    "VersionKey",
    "EntryClusterer",
]

#: Histograms stop distinguishing values past this many distinct entries;
#: a register that overflows is certainly not monomorphic.
MAX_DISTINCT_VALUES = 8


@dataclass
class RegisterProfile:
    """Bounded histogram of the values one register was observed to hold."""

    counts: Counter = field(default_factory=Counter)
    overflowed: bool = False

    def record(self, value: int) -> None:
        if self.overflowed:
            return
        if value not in self.counts and len(self.counts) >= MAX_DISTINCT_VALUES:
            self.overflowed = True
            return
        self.counts[value] += 1

    @property
    def samples(self) -> int:
        return sum(self.counts.values())

    def dominant(self) -> Tuple[int, float]:
        """The most frequent value and its share of all samples."""
        if not self.counts:
            return 0, 0.0
        value, count = self.counts.most_common(1)[0]
        return value, count / self.samples

    def merge(self, other: "RegisterProfile") -> None:
        """Fold another histogram of the same register into this one.

        The distinct-value bound is re-enforced on the union: a merged
        histogram that exceeds it (or either side that already
        overflowed) is marked overflowed, so a register polymorphic
        *across* shards is never reported monomorphic.
        """
        self.counts.update(other.counts)
        if other.overflowed or len(self.counts) > MAX_DISTINCT_VALUES:
            self.overflowed = True

    def as_json(self) -> Dict[str, object]:
        """A JSON-compatible encoding (value keys as pair lists, not dict
        keys, because JSON object keys are strings)."""
        return {
            "counts": sorted([int(v), int(c)] for v, c in self.counts.items()),
            "overflowed": self.overflowed,
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "RegisterProfile":
        counts = Counter({int(v): int(c) for v, c in data.get("counts", [])})
        return cls(counts, bool(data.get("overflowed", False)))


@dataclass
class BranchProfile:
    """Taken/not-taken counts of one conditional branch."""

    taken: int = 0
    not_taken: int = 0

    @property
    def samples(self) -> int:
        return self.taken + self.not_taken

    def bias(self) -> Tuple[bool, float]:
        """The dominant direction and its share of all executions."""
        if self.samples == 0:
            return True, 0.0
        if self.taken >= self.not_taken:
            return True, self.taken / self.samples
        return False, self.not_taken / self.samples

    def merge(self, other: "BranchProfile") -> None:
        self.taken += other.taken
        self.not_taken += other.not_taken

    def as_json(self) -> Dict[str, object]:
        return {"taken": self.taken, "not_taken": self.not_taken}

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "BranchProfile":
        return cls(int(data.get("taken", 0)), int(data.get("not_taken", 0)))


@dataclass
class CallSiteProfile:
    """Execution facts about one ``call`` site.

    Records how often the site executed, which callees it dispatched to
    (direct calls are trivially monomorphic, but the counter keeps the
    shape ready for indirect calls) and a bounded per-argument value
    histogram — the raw material for argument-value speculation inside
    an inlined body.
    """

    callees: Counter = field(default_factory=Counter)
    arg_values: List[RegisterProfile] = field(default_factory=list)

    def record(self, callee: str, args: Sequence[int]) -> None:
        self.callees[callee] += 1
        while len(self.arg_values) < len(args):
            self.arg_values.append(RegisterProfile())
        for slot, value in zip(self.arg_values, args):
            slot.record(value)

    @property
    def samples(self) -> int:
        return sum(self.callees.values())

    def dominant_callee(self) -> Tuple[str, float]:
        """The most frequent callee and its share of all executions."""
        if not self.callees:
            return "", 0.0
        name, count = self.callees.most_common(1)[0]
        return name, count / self.samples

    def merge(self, other: "CallSiteProfile") -> None:
        """Fold another shard's facts about the same call site in."""
        self.callees.update(other.callees)
        while len(self.arg_values) < len(other.arg_values):
            self.arg_values.append(RegisterProfile())
        for slot, theirs in zip(self.arg_values, other.arg_values):
            slot.merge(theirs)

    def as_json(self) -> Dict[str, object]:
        return {
            "callees": {name: int(c) for name, c in sorted(self.callees.items())},
            "args": [slot.as_json() for slot in self.arg_values],
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "CallSiteProfile":
        site = cls(Counter({n: int(c) for n, c in dict(data.get("callees", {})).items()}))
        site.arg_values = [RegisterProfile.from_json(a) for a in data.get("args", [])]
        return site


@dataclass
class FunctionProfile:
    """All recorded facts about one function."""

    values: Dict[str, RegisterProfile] = field(default_factory=dict)
    branches: Dict[ProgramPoint, BranchProfile] = field(default_factory=dict)
    call_sites: Dict[ProgramPoint, CallSiteProfile] = field(default_factory=dict)

    def monomorphic_values(
        self, *, min_samples: int = 4, min_ratio: float = 0.999
    ) -> Dict[str, int]:
        """Registers that (essentially) always held one value.

        The default ratio is strict: a register qualifies only when every
        recorded sample (modulo rounding) agreed.  Guards make weaker
        speculation *safe*, but monomorphic facts are the profitable ones.
        """
        result: Dict[str, int] = {}
        for name, prof in self.values.items():
            if prof.overflowed or prof.samples < min_samples:
                continue
            value, ratio = prof.dominant()
            if ratio >= min_ratio:
                result[name] = value
        return result

    def biased_branches(
        self, *, min_samples: int = 4, min_ratio: float = 0.999
    ) -> Dict[ProgramPoint, bool]:
        """Branch points that (essentially) always went one way.

        Maps the branch's program point to the dominant direction
        (``True`` = then-target).
        """
        result: Dict[ProgramPoint, bool] = {}
        for point, prof in self.branches.items():
            if prof.samples < min_samples:
                continue
            direction, ratio = prof.bias()
            if ratio >= min_ratio:
                result[point] = direction
        return result

    def hot_call_sites(
        self, *, min_calls: int = 4, min_ratio: float = 0.999
    ) -> Dict[ProgramPoint, str]:
        """Call sites hot enough to inline, mapped to their dominant callee.

        A site qualifies when it executed at least ``min_calls`` times and
        (essentially) always dispatched to one callee.
        """
        result: Dict[ProgramPoint, str] = {}
        for point, prof in self.call_sites.items():
            if prof.samples < min_calls:
                continue
            callee, ratio = prof.dominant_callee()
            if callee and ratio >= min_ratio:
                result[point] = callee
        return result

    def merge_renamed(
        self,
        other: "FunctionProfile",
        *,
        rename: Dict[str, str],
        block_map: Dict[str, str],
        params: Sequence[str] = (),
        site_args: Sequence[RegisterProfile] = (),
    ) -> None:
        """Fold a callee's profile in under inlined (renamed) names.

        ``rename`` maps callee registers to their inlined names and
        ``block_map`` maps callee block labels to inlined labels — the
        correspondence the inlining pass recorded.  ``site_args`` are the
        call site's per-argument histograms; when present they override
        the callee's own parameter histograms, because the site-specific
        distribution is what holds inside *this* inlined body (a callee
        polymorphic across sites is often monomorphic per site).
        """
        for reg, prof in other.values.items():
            new = rename.get(reg)
            if new is not None and new not in self.values:
                self.values[new] = RegisterProfile(Counter(prof.counts), prof.overflowed)
        for index, param in enumerate(params):
            if index < len(site_args) and param in rename:
                slot = site_args[index]
                self.values[rename[param]] = RegisterProfile(
                    Counter(slot.counts), slot.overflowed
                )
        for point, br in other.branches.items():
            new_label = block_map.get(point.block)
            if new_label is not None:
                self.branches[ProgramPoint(new_label, point.index)] = BranchProfile(
                    br.taken, br.not_taken
                )

    def merge(self, other: "FunctionProfile") -> None:
        """Fold another profile of the same function into this one.

        Histograms and counters are summed key-wise; the distinct-value
        bounds are re-enforced on each union.  This is the shard-
        combining half of :class:`ShardedValueProfile`: each recording
        thread accumulates privately, and a compile submission merges
        the shards into one snapshot.
        """
        for name, prof in other.values.items():
            mine = self.values.get(name)
            if mine is None:
                self.values[name] = RegisterProfile(
                    Counter(prof.counts), prof.overflowed
                )
            else:
                mine.merge(prof)
        for point, br in other.branches.items():
            mine_br = self.branches.get(point)
            if mine_br is None:
                self.branches[point] = BranchProfile(br.taken, br.not_taken)
            else:
                mine_br.merge(br)
        for point, site in other.call_sites.items():
            mine_site = self.call_sites.get(point)
            if mine_site is None:
                clone_site = CallSiteProfile(Counter(site.callees))
                clone_site.arg_values = [
                    RegisterProfile(Counter(slot.counts), slot.overflowed)
                    for slot in site.arg_values
                ]
                self.call_sites[point] = clone_site
            else:
                mine_site.merge(site)

    def as_json(self) -> Dict[str, object]:
        """A JSON-compatible encoding; program points become ``block:index``
        keys (the :meth:`~repro.ir.function.ProgramPoint.parse` form)."""
        return {
            "values": {
                name: prof.as_json() for name, prof in sorted(self.values.items())
            },
            "branches": {
                str(point): br.as_json()
                for point, br in sorted(self.branches.items())
            },
            "call_sites": {
                str(point): site.as_json()
                for point, site in sorted(self.call_sites.items())
            },
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "FunctionProfile":
        profile = cls()
        for name, encoded in dict(data.get("values", {})).items():
            profile.values[name] = RegisterProfile.from_json(encoded)
        for key, encoded in dict(data.get("branches", {})).items():
            profile.branches[ProgramPoint.parse(key)] = BranchProfile.from_json(encoded)
        for key, encoded in dict(data.get("call_sites", {})).items():
            profile.call_sites[ProgramPoint.parse(key)] = CallSiteProfile.from_json(
                encoded
            )
        return profile

    def clone(self) -> "FunctionProfile":
        """An independent deep copy (histograms included).

        The inlining pipeline augments a *copy* of the caller's profile
        with renamed callee facts; cloning keeps that augmentation out of
        the persistent profile the base tier keeps feeding.
        """
        copy = FunctionProfile()
        for name, prof in self.values.items():
            copy.values[name] = RegisterProfile(Counter(prof.counts), prof.overflowed)
        for point, br in self.branches.items():
            copy.branches[point] = BranchProfile(br.taken, br.not_taken)
        for point, site in self.call_sites.items():
            clone_site = CallSiteProfile(Counter(site.callees))
            clone_site.arg_values = [
                RegisterProfile(Counter(slot.counts), slot.overflowed)
                for slot in site.arg_values
            ]
            copy.call_sites[point] = clone_site
        return copy


class ValueProfile:
    """Profile sink for the interpreter, keyed by function name.

    Implements the duck-typed profiler interface of
    :class:`~repro.ir.interp.Interpreter`: ``record_value`` and
    ``record_branch``.
    """

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionProfile] = {}

    def function(self, name: str) -> FunctionProfile:
        profile = self.functions.get(name)
        if profile is None:
            profile = self.functions[name] = FunctionProfile()
        return profile

    # ------------------------------------------------------------------ #
    # Interpreter hooks.
    # ------------------------------------------------------------------ #
    def record_value(self, function: str, register: str, value: int) -> None:
        profile = self.function(function)
        reg = profile.values.get(register)
        if reg is None:
            reg = profile.values[register] = RegisterProfile()
        reg.record(value)

    def record_branch(self, function: str, point: ProgramPoint, taken: bool) -> None:
        profile = self.function(function)
        br = profile.branches.get(point)
        if br is None:
            br = profile.branches[point] = BranchProfile()
        if taken:
            br.taken += 1
        else:
            br.not_taken += 1

    def record_call(
        self, function: str, point: ProgramPoint, callee: str, args: Sequence[int]
    ) -> None:
        profile = self.function(function)
        site = profile.call_sites.get(point)
        if site is None:
            site = profile.call_sites[point] = CallSiteProfile()
        site.record(callee, args)

    def merge(self, other: "ValueProfile") -> None:
        """Fold every function profile of ``other`` into this sink."""
        for name, profile in other.functions.items():
            self.function(name).merge(profile)

    def discard(self, name: str) -> None:
        """Forget everything recorded about ``name`` (re-registration)."""
        self.functions.pop(name, None)

    def __repr__(self) -> str:
        return f"<ValueProfile {len(self.functions)} functions>"


class _ProfileShard:
    """One thread's private profile plus the lock a snapshot needs.

    The lock is *uncontended* on the recording path (only the owning
    thread records into its shard) — it exists so a compile-submission
    snapshot can iterate the shard's dicts without racing an insert,
    which would raise ``RuntimeError: dictionary changed size during
    iteration`` on the reader and, via the sticky background-compile
    error path, permanently poison the function being compiled.
    """

    __slots__ = ("thread", "lock", "profile")

    def __init__(self) -> None:
        self.thread = threading.current_thread()
        self.lock = threading.Lock()
        self.profile = ValueProfile()


class ShardedValueProfile:
    """A thread-sharded profile sink for the concurrent runtime.

    Implements the same duck-typed profiler interface as
    :class:`ValueProfile` (``record_value`` / ``record_branch`` /
    ``record_call``), but every recording thread writes into its own
    private :class:`ValueProfile` shard, so no thread ever races another
    thread's read-modify-write and the recording path costs one
    thread-local lookup plus one *uncontended* lock.  Readers
    (:meth:`merged`, :meth:`function`) combine the shards into a fresh
    snapshot — the runtime takes one such snapshot per compile
    submission, so optimization always sees a consistent, complete view
    of what *all* threads observed, while the live shards keep
    recording.

    Shards of threads that have exited are folded into a retained
    accumulator (and dropped) on the next snapshot, so thread churn in a
    long-lived server does not grow the shard list — or the cost of
    future merges — without bound.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._registry_lock = threading.Lock()
        self._shards: List[_ProfileShard] = []
        #: Folded profiles of dead threads' shards (registry-locked).
        self._retired = ValueProfile()

    def _shard(self) -> _ProfileShard:
        shard = getattr(self._local, "shard", None)
        if shard is None:
            shard = _ProfileShard()
            self._local.shard = shard
            with self._registry_lock:
                self._shards.append(shard)
        return shard

    # ------------------------------------------------------------------ #
    # Interpreter hooks (hot path: thread-local lookup + uncontended lock).
    # ------------------------------------------------------------------ #
    def record_value(self, function: str, register: str, value: int) -> None:
        shard = self._shard()
        with shard.lock:
            shard.profile.record_value(function, register, value)

    def record_branch(self, function: str, point: ProgramPoint, taken: bool) -> None:
        shard = self._shard()
        with shard.lock:
            shard.profile.record_branch(function, point, taken)

    def record_call(
        self, function: str, point: ProgramPoint, callee: str, args: Sequence[int]
    ) -> None:
        shard = self._shard()
        with shard.lock:
            shard.profile.record_call(function, point, callee, args)

    # ------------------------------------------------------------------ #
    # Snapshot readers.
    # ------------------------------------------------------------------ #
    def _live_shards(self) -> List[_ProfileShard]:
        """Retire dead threads' shards; return the live ones (locked call)."""
        live: List[_ProfileShard] = []
        for shard in self._shards:
            if shard.thread.is_alive():
                live.append(shard)
            else:
                # The owning thread exited: no further writes can happen,
                # so the fold needs no shard lock.
                self._retired.merge(shard.profile)
        self._shards = live
        return list(live)

    def merged(self) -> ValueProfile:
        """A fresh :class:`ValueProfile` combining every shard.

        The result is an independent snapshot: mutating it feeds nothing
        back, and later recording does not change it.
        """
        snapshot = ValueProfile()
        with self._registry_lock:
            shards = self._live_shards()
            snapshot.merge(self._retired)
        for shard in shards:
            with shard.lock:
                snapshot.merge(shard.profile)
        return snapshot

    def function(self, name: str) -> FunctionProfile:
        """A merged snapshot of everything recorded about ``name``."""
        merged = FunctionProfile()
        with self._registry_lock:
            shards = self._live_shards()
            retired = self._retired.functions.get(name)
            if retired is not None:
                merged.merge(retired)
        for shard in shards:
            with shard.lock:
                profile = shard.profile.functions.get(name)
                if profile is not None:
                    merged.merge(profile)
        return merged

    def preload(self, profile: ValueProfile, *, name: Optional[str] = None) -> None:
        """Seed the sink with a previously persisted profile (warm start).

        The hydrated facts are folded into the retired accumulator — the
        same place dead threads' shards end up — so every later snapshot
        (:meth:`merged`, :meth:`function`) sees persisted and freshly
        recorded samples as one history.  ``name`` restricts the preload
        to a single function (an engine hydrates per-function artifacts).
        """
        with self._registry_lock:
            if name is None:
                self._retired.merge(profile)
            else:
                theirs = profile.functions.get(name)
                if theirs is not None:
                    self._retired.function(name).merge(theirs)

    def discard(self, name: str) -> None:
        """Drop every shard's facts about ``name`` (re-registration).

        The old body's program points need not exist in a replacement
        function, so stale histograms must not steer its speculation.
        """
        with self._registry_lock:
            self._retired.discard(name)
            shards = list(self._shards)
        for shard in shards:
            with shard.lock:
                shard.profile.discard(name)

    def __repr__(self) -> str:
        with self._registry_lock:
            count = len(self._shards)
        return f"<ShardedValueProfile {count} shards>"


# ---------------------------------------------------------------------- #
# Entry-profile clustering: the version-multiverse signature layer.
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class VersionKey:
    """Identity of one entry-profile cluster: pinned argument slots.

    A compiled version is keyed by the argument values its cluster pins:
    ``pinned`` holds ``(arg_index, value)`` pairs sorted by index.  The
    empty key is the *generic* version that matches every call — the
    single-version behaviour of the pre-multiverse runtime.  Matching is
    the call-fast-path operation, so it is a handful of integer
    comparisons and nothing else.
    """

    pinned: Tuple[Tuple[int, int], ...] = ()

    @property
    def specificity(self) -> int:
        """How many entry slots this key constrains (generic == 0)."""
        return len(self.pinned)

    @property
    def generic(self) -> bool:
        return not self.pinned

    def matches(self, args: Sequence[int]) -> bool:
        """True when every pinned slot holds exactly its pinned value."""
        for index, value in self.pinned:
            if index >= len(args) or args[index] != value:
                return False
        return True

    def as_json(self) -> List[List[int]]:
        return [[int(index), int(value)] for index, value in self.pinned]

    @classmethod
    def from_json(cls, data: Sequence[Sequence[int]]) -> "VersionKey":
        return cls(tuple(sorted((int(i), int(v)) for i, v in data)))

    def __str__(self) -> str:
        if not self.pinned:
            return "generic"
        return ",".join(f"arg{index}={value}" for index, value in self.pinned)


#: The key of the version that matches every call.
GENERIC_KEY = VersionKey()


def _no_slots(args: Sequence[int]) -> Tuple[()]:
    """Projection onto an empty stable set (``itemgetter()`` needs an index)."""
    return ()


class EntryClusterer:
    """Bounded online clustering of a function's entry argument tuples.

    Every call's arguments feed per-slot :class:`RegisterProfile`
    histograms plus a bounded counter of *signatures* — the projection
    of the argument tuple onto the **stable slots**, those whose
    histograms have not overflowed :data:`MAX_DISTINCT_VALUES`.  A slot
    like a memory base address (distinct on every call) overflows
    quickly and drops out of the signature, so clusters form over the
    slots that actually discriminate phases (a ``mode``/``kind``
    selector, a constant size).

    The structure is deliberately tiny because :meth:`observe` runs on
    the call fast path under the function's state lock: one Counter
    bump per call, plus one histogram record per argument the first
    time a signature is seen.  When the
    signature set outgrows its bound the excess observations count as
    *churn*; a churning (unstable) clusterer demotes the function to
    single-generic-version behaviour rather than chasing a signature
    distribution it cannot represent.
    """

    __slots__ = (
        "slots", "signatures", "observed", "churn", "_max_signatures",
        "_stable", "_project", "_known",
    )

    def __init__(self, *, max_clusters: int = 4) -> None:
        self.slots: List[RegisterProfile] = []
        #: signature (tuple of (slot, value) pairs) -> observation count.
        self.signatures: Counter = Counter()
        self.observed = 0
        #: Observations whose signature fell outside the bounded set.
        self.churn = 0
        self._max_signatures = max(4, 4 * max_clusters)
        self._stable: Optional[Tuple[int, ...]] = None
        self._project: Callable[[Sequence[int]], object] = _no_slots
        self._known: Dict[object, Tuple[Tuple[int, int], ...]] = {}

    # ------------------------------------------------------------------ #
    # Fast path.
    # ------------------------------------------------------------------ #
    def observe(self, args: Sequence[int]) -> None:
        """Record one call's entry arguments (state-locked fast path).

        A signature that was counted before needs no histogram work:
        each of its pairs was recorded in its slot before the signature
        was first counted (so no stable slot can overflow on it), and
        an overflowed slot ignores ``record``.  Such a call — nearly
        every warm one — only bumps two counters; a slot histogram thus
        weighs a value by how often the general path below saw it, and
        only membership and the distinct-value bound are ever read.
        """
        if self._stable is not None and len(args) == len(self.slots):
            signature = self._known.get(self._project(args))
            if signature is not None:
                self.signatures[signature] += 1
                self.observed += 1
                return
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
            if len(args) == len(slots):
                self._known[self._project(args)] = signature
        else:
            self.churn += 1

    def _stable_slots(self) -> Tuple[int, ...]:
        """Indices of slots whose histograms still distinguish values."""
        if self._stable is None:
            self._stable = stable = tuple(
                index for index, slot in enumerate(self.slots) if not slot.overflowed
            )
            # The known-signature index of ``observe`` lives and dies with
            # the stable set: full-length argument tuples, projected onto
            # it at C speed, mapped to the signature they were counted as.
            self._project = itemgetter(*stable) if stable else _no_slots
            self._known = {}
        return self._stable

    def _signature(self, args: Sequence[int]) -> Tuple[Tuple[int, int], ...]:
        return tuple(
            (index, args[index]) for index in self._stable_slots() if index < len(args)
        )

    def _reproject(self) -> None:
        """A slot overflowed: drop its component from every signature."""
        self._stable = None
        stable = set(self._stable_slots())
        merged: Counter = Counter()
        for signature, count in self.signatures.items():
            merged[tuple(pair for pair in signature if pair[0] in stable)] += count
        self.signatures = merged

    # ------------------------------------------------------------------ #
    # Cluster queries (compile-proposal path).
    # ------------------------------------------------------------------ #
    @property
    def unstable(self) -> bool:
        """True when the bounded signature set stopped being faithful."""
        return self.churn * 4 > self.observed

    def cluster_samples(self, key: VersionKey) -> int:
        """Observations matching ``key``'s pinned slots (cluster heat)."""
        if key.generic:
            return self.observed
        pinned = dict(key.pinned)
        total = 0
        for signature, count in self.signatures.items():
            held = dict(signature)
            if all(held.get(index) == value for index, value in pinned.items()):
                total += count
        return total

    def key_for(self, args: Sequence[int]) -> VersionKey:
        """The cluster key for one call's arguments.

        Pins every stable slot to the call's value.  When clustering is
        unstable (signature churn) or no slot is stable, the result is
        :data:`GENERIC_KEY` — the demote-to-single-version escape hatch.
        """
        if self.unstable:
            return GENERIC_KEY
        return VersionKey(self._signature(args))

    def __repr__(self) -> str:
        return (
            f"<EntryClusterer {len(self.signatures)} clusters, "
            f"{self.observed} observed, churn {self.churn}>"
        )
