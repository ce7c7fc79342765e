"""Adaptive multi-tier runtime built on the OSR framework.

This package is the *mechanism* layer: the compiled backend and its
emitter, value profiles, and the :class:`AdaptiveRuntime` tiering
machinery (:mod:`~repro.vm.version` — what a version is, how it is
built, the version table; :mod:`~repro.vm.transitions` — every OSR
mapping application; :mod:`~repro.vm.runtime` — the coordinator).  Embedders should use the :mod:`repro.engine` facade, which
wires a typed :class:`~repro.engine.EngineConfig`, a pluggable
:class:`~repro.engine.TieringPolicy` and the structured event bus
around this runtime.
"""

from .backend import CompiledBackend
from .closure_compile import CompiledFunction
from .profile import (
    GENERIC_KEY,
    BranchProfile,
    CallSiteProfile,
    EntryClusterer,
    FunctionProfile,
    RegisterProfile,
    ShardedValueProfile,
    ValueProfile,
    VersionKey,
)
from .runtime import (
    AdaptiveRuntime,
    CompiledVersion,
    ExecutionContext,
    SpecializedVersion,
    TieredFunction,
)

__all__ = [
    "AdaptiveRuntime",
    "TieredFunction",
    "CompiledVersion",
    "SpecializedVersion",
    "ExecutionContext",
    "VersionKey",
    "GENERIC_KEY",
    "EntryClusterer",
    "ValueProfile",
    "ShardedValueProfile",
    "FunctionProfile",
    "RegisterProfile",
    "BranchProfile",
    "CallSiteProfile",
    "CompiledBackend",
    "CompiledFunction",
]
