"""Adaptive multi-tier runtime built on the OSR framework.

This package is the *mechanism* layer: execution backends, the closure
compiler, value profiles, and the :class:`AdaptiveRuntime` tiering
machinery (:mod:`~repro.vm.version` — what a version is, how it is
built, the version table; :mod:`~repro.vm.transitions` — every OSR
mapping application; :mod:`~repro.vm.runtime` — the coordinator).  Embedders should use the :mod:`repro.engine` facade, which
wires a typed :class:`~repro.engine.EngineConfig`, a pluggable
:class:`~repro.engine.TieringPolicy` and the structured event bus
around this runtime.
"""

from .backend import CompiledBackend, ExecutionBackend, InterpreterBackend
from .closure_compile import ClosureCompiler, CompiledFunction, compile_ir_function
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
    "ExecutionBackend",
    "InterpreterBackend",
    "CompiledBackend",
    "ClosureCompiler",
    "CompiledFunction",
    "compile_ir_function",
]
