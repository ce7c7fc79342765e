"""Typed, validated, frozen configuration for the adaptive engine.

Every tuning knob of the runtime is a field of :class:`EngineConfig`:
hotness and profile thresholds, the optimized tier's backend (the base
tier always interprets — only the interpreter profiles), speculation and
inlining toggles with their budgets, the backend-independent recursion
fuel, and the sizes of the two bounded caches (the event ring buffer and
the per-function continuation cache).  The dataclass is frozen — a config is a value,
safely shared between engines — and validates itself on construction,
so a nonsensical knob fails loudly at the embedding site instead of
deep inside a tier transition.

:meth:`EngineConfig.from_env` subsumes the ``REPRO_BACKEND`` switch: it
resolves the optimized-tier backend from the environment *eagerly*, so
an invalid value raises a clear :class:`ValueError` (listing the
registered backend names) at startup rather than falling through to
first use.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from ..core.reconstruct import ReconstructionMode

__all__ = [
    "EngineConfig",
    "FINGERPRINT_FIELDS",
    "verify_deopt_from_env",
]

#: Accepted values for :attr:`EngineConfig.verify_deopt` (besides ``None``).
VERIFY_DEOPT_MODES: Tuple[str, ...] = ("off", "warn", "strict")


def verify_deopt_from_env() -> str:
    """Resolve the soundness-verifier mode from ``REPRO_VERIFY_DEOPT``.

    Empty or unset means ``"off"``; anything else must name a mode.
    Validated eagerly for the same reason as ``REPRO_BACKEND``: a typo'd
    CI lane should fail at engine construction, not silently verify
    nothing.
    """
    value = os.environ.get("REPRO_VERIFY_DEOPT", "").strip().lower()
    if not value:
        return "off"
    if value not in VERIFY_DEOPT_MODES:
        raise ValueError(
            f"REPRO_VERIFY_DEOPT={value!r} names no verifier mode; "
            f"choose from {sorted(VERIFY_DEOPT_MODES)}"
        )
    return value


#: Fields that determine *what optimized code the engine produces* — the
#: semantic identity a persisted artifact is keyed by.  Runtime-only knobs
#: (worker counts, buffer and cache sizes, execution fuel, backend
#: selection) change how fast or where code runs, never what is compiled,
#: so two engines differing only in those can safely share artifacts.
FINGERPRINT_FIELDS: Tuple[str, ...] = (
    "hotness_threshold",
    "invalidate_after",
    "speculate",
    "min_samples",
    "min_ratio",
    "inline",
    "inline_min_calls",
    "max_callee_size",
    "max_inline_depth",
    "mode",
    "passes",
)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


@dataclass(frozen=True)
class EngineConfig:
    """Every knob of the adaptive engine, as one validated value.

    Backends are given by registry name (see
    :data:`repro.vm.backend.BACKEND_NAMES`) or as an
    :class:`~repro.vm.backend.ExecutionBackend` instance for tests that
    inject a custom engine; ``opt_backend=None`` defers to the
    ``REPRO_BACKEND`` environment variable at engine construction.
    """

    # --- tiering -------------------------------------------------------- #
    #: Calls before a function is compiled (consulted by HotnessPolicy).
    hotness_threshold: int = 3
    #: Repeated failures at one guard before its assumption is refuted.
    invalidate_after: int = 2
    #: Live specialized versions a function may keep (the version
    #: multiverse bound).  ``1`` pins the historical single-version
    #: behaviour: one generic version, no profile-keyed entry dispatch.
    max_versions: int = 4

    # --- speculation ---------------------------------------------------- #
    speculate: bool = True
    #: Minimum profile samples before a fact is speculated on.
    min_samples: int = 4
    #: Minimum dominance ratio for an assume-constant/branch fact.
    min_ratio: float = 0.999

    # --- interprocedural inlining --------------------------------------- #
    inline: bool = True
    #: Calls a site needs in the caller's profile to be splice-inlined.
    inline_min_calls: int = 3
    #: Largest callee body (instructions) the inliner will splice.
    max_callee_size: int = 80
    #: Nested-inlining depth budget.
    max_inline_depth: int = 2

    # --- execution ------------------------------------------------------ #
    #: Backend-independent recursion fuel (activations per module call).
    max_call_depth: int = 96
    #: Per-activation step/block-transfer budget.
    step_limit: int = 2_000_000
    #: State-reconstruction mode for OSR mappings and deopt plans.
    mode: ReconstructionMode = ReconstructionMode.AVAIL
    #: Engine for optimized versions and continuations (name, instance,
    #: or None → the REPRO_BACKEND environment variable).
    opt_backend: Union[str, Any, None] = None
    #: Explicit pass pipeline (disables speculation when set).
    passes: Optional[Tuple[Any, ...]] = None

    # --- background compilation ----------------------------------------- #
    #: Worker threads for off-thread optimization.  ``0`` (the default)
    #: compiles synchronously on the triggering call — today's
    #: deterministic behavior, which tests rely on.  With ``>= 1`` a hot
    #: function's compile job is submitted to a bounded worker pool and
    #: the request path keeps executing the base tier until the finished
    #: version is atomically published into the tier table.
    compile_workers: int = 0

    # --- bounded observability ------------------------------------------ #
    #: Capacity of the event ring buffer (the bounded transition log).
    event_buffer_size: int = 4096
    #: Per-function cap on cached dispatched-OSR continuations.
    continuation_cache_size: int = 32

    # --- static soundness verification ----------------------------------- #
    #: Publication gate for the static OSR-soundness verifier
    #: (:mod:`repro.analysis.soundness`): ``"off"`` publishes versions
    #: unchecked (the historical behaviour), ``"warn"`` publishes but
    #: emits a :class:`~repro.engine.events.SoundnessViolation` event per
    #: failed obligation, ``"strict"`` refuses publication with a typed
    #: :class:`~repro.analysis.soundness.UnsoundVersionError`.  ``None``
    #: defers to the ``REPRO_VERIFY_DEOPT`` environment variable at
    #: engine construction (default ``"off"``).  Deliberately not part of
    #: the artifact fingerprint: verification never changes what code is
    #: compiled, only whether it may be published.
    verify_deopt: Optional[str] = None

    def __post_init__(self) -> None:
        _require(self.hotness_threshold >= 1,
                 f"hotness_threshold must be >= 1, got {self.hotness_threshold}")
        _require(self.invalidate_after >= 1,
                 f"invalidate_after must be >= 1, got {self.invalidate_after}")
        _require(self.max_versions >= 1,
                 f"max_versions must be >= 1, got {self.max_versions}")
        _require(self.min_samples >= 1,
                 f"min_samples must be >= 1, got {self.min_samples}")
        _require(0.0 < self.min_ratio <= 1.0,
                 f"min_ratio must be in (0, 1], got {self.min_ratio}")
        _require(self.inline_min_calls >= 1,
                 f"inline_min_calls must be >= 1, got {self.inline_min_calls}")
        _require(self.max_callee_size >= 1,
                 f"max_callee_size must be >= 1, got {self.max_callee_size}")
        _require(self.max_inline_depth >= 1,
                 f"max_inline_depth must be >= 1, got {self.max_inline_depth}")
        _require(self.max_call_depth >= 1,
                 f"max_call_depth must be >= 1, got {self.max_call_depth}")
        _require(self.step_limit >= 1,
                 f"step_limit must be >= 1, got {self.step_limit}")
        _require(self.compile_workers >= 0,
                 f"compile_workers must be >= 0, got {self.compile_workers}")
        _require(self.event_buffer_size >= 1,
                 f"event_buffer_size must be >= 1, got {self.event_buffer_size}")
        _require(self.continuation_cache_size >= 1,
                 f"continuation_cache_size must be >= 1, "
                 f"got {self.continuation_cache_size}")
        _require(isinstance(self.mode, ReconstructionMode),
                 f"mode must be a ReconstructionMode, got {self.mode!r}")
        _require(self.verify_deopt in (None, "off", "warn", "strict"),
                 f"verify_deopt must be one of 'off', 'warn', 'strict' "
                 f"(or None for REPRO_VERIFY_DEOPT), got {self.verify_deopt!r}")
        if self.passes is not None and not isinstance(self.passes, tuple):
            # Accept any sequence at the call site; store a tuple so the
            # frozen config stays value-like.
            object.__setattr__(self, "passes", tuple(self.passes))
        # Deferred import: repro.vm imports this module at load time.
        from ..vm.backend import BACKEND_NAMES, ExecutionBackend

        spec = self.opt_backend
        _require(
            spec is None
            or isinstance(spec, ExecutionBackend)
            or (isinstance(spec, str) and spec in BACKEND_NAMES),
            f"opt_backend={spec!r} names no backend; choose from {sorted(BACKEND_NAMES)}",
        )

    # ------------------------------------------------------------------ #
    # Construction helpers.
    # ------------------------------------------------------------------ #
    @classmethod
    def from_env(cls, **overrides: Any) -> "EngineConfig":
        """A config whose optimized-tier backend comes from ``REPRO_BACKEND``.

        The environment variable is read (and validated) *now*: an
        invalid value raises a :class:`ValueError` naming the registered
        backends instead of surfacing at first use.  Keyword overrides
        win over the environment.
        """
        from ..vm.backend import backend_name_from_env

        if "opt_backend" not in overrides:
            overrides["opt_backend"] = backend_name_from_env()
        if "verify_deopt" not in overrides:
            overrides["verify_deopt"] = verify_deopt_from_env()
        return cls(**overrides)

    def replace(self, **changes: Any) -> "EngineConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)

    def as_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EngineConfig":
        """Inverse of :meth:`as_dict` — ``from_dict(c.as_dict()) == c``.

        Accepts JSON-shaped input too: ``mode`` may be a mode name or
        value string, and ``passes`` any sequence.  Unknown keys raise
        (a config dict from a newer engine must not load silently).
        """
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown EngineConfig field(s) {unknown}; known: {sorted(known)}"
            )
        kwargs = dict(data)
        mode = kwargs.get("mode")
        if isinstance(mode, str) and not isinstance(mode, ReconstructionMode):
            try:
                kwargs["mode"] = ReconstructionMode(mode)
            except ValueError:
                kwargs["mode"] = ReconstructionMode[mode.upper()]
        return cls(**kwargs)

    def fingerprint(self) -> str:
        """A stable content hash of the semantically relevant fields.

        The persistent artifact store keys entries by this digest, so an
        artifact compiled under one speculation/inlining regime can never
        hydrate into an engine configured for another.  Only
        :data:`FINGERPRINT_FIELDS` participate: runtime-only knobs
        (``compile_workers``, buffer sizes, fuel, backend choice) are
        deliberately excluded so a 4-worker server can reuse what a
        single-threaded recorder compiled.  Pass pipelines hash by class
        name — the store cannot hash code objects, and a renamed pass
        *should* invalidate old artifacts.
        """
        payload: Dict[str, Any] = {}
        for name in FINGERPRINT_FIELDS:
            value = getattr(self, name)
            if name == "mode":
                value = value.value
            elif name == "passes" and value is not None:
                value = [getattr(p, "__name__", None) or type(p).__name__ for p in value]
            payload[name] = value
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    # Derived, not stored: an explicit pipeline overrides speculation,
    # and inlining only exists inside the speculative tier.
    @property
    def effective_speculate(self) -> bool:
        return self.speculate and self.passes is None

    @property
    def effective_inline(self) -> bool:
        return self.inline and self.effective_speculate
