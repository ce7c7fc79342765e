"""Pluggable tiering policies: *when* to act, separated from *how*.

The adaptive runtime is a mechanism — it knows how to compile, how to
enter optimized code mid-flight, how to unwind a failing guard, how to
grow the version multiverse.  A :class:`TieringPolicy` decides *whether* each
of those is worth doing (the knobs Deoptless identifies as exactly what
a client wants to vary):

* :meth:`~TieringPolicy.should_compile` — tier a function up now?
* :meth:`~TieringPolicy.select_osr_point` — where (if anywhere) should
  the triggering call hop into the fresh version mid-execution?
* :meth:`~TieringPolicy.should_invalidate` — do repeated failures
  refute the speculation, forcing a recompile without it?
* :meth:`~TieringPolicy.should_add_version` — grow the multiverse with
  a version specialized to a hot entry-profile cluster?

Policies are stateless strategies over the runtime's per-function
:class:`~repro.vm.runtime.TieredFunction` state and the engine's
:class:`~repro.engine.config.EngineConfig`; correctness constraints
(deopt-plan coverage, version identity) and the landing of a guard
failure (the first one in the profiled base tier, repeats in f_base's
compiled OSR entry stub) stay in the mechanism and cannot be overridden
from here.

Concurrency contract: the runtime may consult a policy from any request
thread, and :meth:`~TieringPolicy.should_compile` is evaluated *inside*
the function's state lock so the compile claim is race-free — policy
methods must therefore be quick, must not call back into the runtime or
engine, and, if they keep their own state (e.g. a counting test
policy), must protect it themselves.

:class:`HotnessPolicy` is the production default.  :class:`AlwaysCompile`
and :class:`NeverCompile` pin the compile decision for tests that need a
deterministic tier.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Protocol, Sequence, runtime_checkable

from ..ir.function import ProgramPoint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..vm.profile import VersionKey
    from ..vm.runtime import TieredFunction
    from .config import EngineConfig

__all__ = [
    "TieringPolicy",
    "HotnessPolicy",
    "AlwaysCompile",
    "NeverCompile",
]


@runtime_checkable
class TieringPolicy(Protocol):
    """Strategy protocol consulted by the runtime at every tier decision."""

    def should_compile(
        self, state: "TieredFunction", config: "EngineConfig"
    ) -> bool:
        """Build an optimized version for ``state`` now?"""
        ...

    def select_osr_point(
        self,
        state: "TieredFunction",
        candidates: Sequence[ProgramPoint],
        loop_points: Sequence[ProgramPoint],
        config: "EngineConfig",
    ) -> Optional[ProgramPoint]:
        """Pick the f_base point the triggering call OSR-enters from.

        ``candidates`` are every mapped, pause-capable point of f_base
        (in program order); ``loop_points`` is the subset inside natural
        loops.  Return ``None`` to skip the optimizing OSR and let the
        triggering call finish in the base tier.
        """
        ...

    def should_invalidate(
        self,
        state: "TieredFunction",
        point: ProgramPoint,
        failures: int,
        config: "EngineConfig",
    ) -> bool:
        """Refute the speculation after ``failures`` failures at ``point``?"""
        ...

    def should_add_version(
        self,
        state: "TieredFunction",
        key: "VersionKey",
        config: "EngineConfig",
    ) -> bool:
        """Grow ``state``'s multiverse with a version specialized to ``key``?

        Consulted (inside the state lock, like
        :meth:`should_compile`) before the runtime claims a compile for
        a hot entry-profile cluster while other versions are live.
        Return ``False`` to veto multiverse growth; the call keeps being
        served by the base tier or the best generic match.  The
        mechanism has already checked the hard bounds (``key`` is hot,
        clustering is stable, ``config.max_versions`` permits a table).
        """
        ...


class HotnessPolicy:
    """The default policy: counters against the config's thresholds.

    Compiles at ``hotness_threshold`` calls, prefers an OSR entry inside
    a loop (a long-running iteration is where an optimizing OSR pays),
    refutes a speculation after ``invalidate_after`` failures at one
    guard, and always lets the multiverse grow.
    """

    def should_compile(
        self, state: "TieredFunction", config: "EngineConfig"
    ) -> bool:
        return state.call_count >= config.hotness_threshold

    def select_osr_point(
        self,
        state: "TieredFunction",
        candidates: Sequence[ProgramPoint],
        loop_points: Sequence[ProgramPoint],
        config: "EngineConfig",
    ) -> Optional[ProgramPoint]:
        if loop_points:
            return loop_points[0]
        return candidates[0] if candidates else None

    def should_invalidate(
        self,
        state: "TieredFunction",
        point: ProgramPoint,
        failures: int,
        config: "EngineConfig",
    ) -> bool:
        return failures >= config.invalidate_after

    def should_add_version(
        self,
        state: "TieredFunction",
        key: "VersionKey",
        config: "EngineConfig",
    ) -> bool:
        return True


class AlwaysCompile(HotnessPolicy):
    """Compile on the very first call — deterministic optimized tier."""

    def should_compile(
        self, state: "TieredFunction", config: "EngineConfig"
    ) -> bool:
        return True


class NeverCompile(HotnessPolicy):
    """Never tier up: everything runs (and profiles) in the base tier."""

    def should_compile(
        self, state: "TieredFunction", config: "EngineConfig"
    ) -> bool:
        return False
