"""Pluggable execution backends for the adaptive runtime.

The OSR framework is backend-agnostic: a *tier* is a policy decision
(profile here, speculate there), while a *backend* is an execution
engine.  This module defines the seam between the two:

* :class:`ExecutionBackend` — the protocol every engine implements:
  ``run`` (call from the entry), ``run_from`` (resume at an arbitrary
  :class:`~repro.ir.function.ProgramPoint` with a transferred
  environment — the landing side of an OSR transition).

* :class:`InterpreterBackend` — the reference tree-walking engine
  (:class:`~repro.ir.interp.Interpreter`).  Slow, observable, and the
  only engine that can pause at a ``break_at`` point, which is why the
  profiled base tier always runs here.

* :class:`CompiledBackend` — the closure-compiled engine
  (:mod:`repro.vm.closure_compile`).  ``run_from`` compiles (and caches)
  an *OSR entry stub* per landing point, so an optimizing OSR lands
  directly in compiled code mid-loop.

Backends are registered by name; ``resolve_backend`` accepts a name, an
instance, or ``None`` (which consults the ``REPRO_BACKEND`` environment
variable and falls back to :data:`DEFAULT_BACKEND`, ``compiled`` — CI's
backend-parity job sets the variable to run the whole tier-1 suite on
the other engine).
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

from ..cfg.structure import UnstructurableCFG
from ..ir.function import Function, Module, ProgramPoint
from ..ir.interp import ExecutionResult, Interpreter, Memory, NativeFunction
from ..ir.intrinsics import call_intrinsic, is_intrinsic, reject_reserved_names
from .closure_compile import ClosureCompiler, CompiledFunction

__all__ = [
    "ExecutionBackend",
    "InterpreterBackend",
    "CompiledBackend",
    "BoundEntry",
    "BACKEND_NAMES",
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "backend_name_from_env",
    "resolve_backend",
]

#: What :meth:`ExecutionBackend.prepare` returns: one function's entry,
#: ``(args, memory) -> ExecutionResult``.
BoundEntry = Callable[..., ExecutionResult]

#: Environment variable selecting the backend optimized tiers run on.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Registered backend names, in preference order.
BACKEND_NAMES = ("compiled", "interp")

#: The backend optimized tiers run on when ``REPRO_BACKEND`` is unset.
DEFAULT_BACKEND = "compiled"


class ExecutionBackend:
    """Protocol of an execution engine usable as a runtime tier target.

    Subclasses must implement :meth:`run` and :meth:`run_from`; both
    return an :class:`~repro.ir.interp.ExecutionResult` and raise
    :class:`~repro.ir.interp.GuardFailure` (carrying the live state at
    the failing guard) so deoptimization handling is identical no matter
    which engine was executing.

    Concurrency contract: :meth:`run` and :meth:`run_from` must be safe
    to invoke from any number of threads at once — per-activation state
    lives on the activation, never on the backend.  Callers passing an
    explicit :class:`~repro.ir.interp.Memory` are responsible for not
    sharing one instance across concurrently executing activations.
    :meth:`register_native` is a setup-time operation; registering
    while other threads are executing is allowed but new names become
    visible to in-flight activations at an unspecified point.
    """

    #: Registry name of the backend.
    name: str = "abstract"

    def run(
        self,
        function: Function,
        args: Sequence[int] = (),
        *,
        memory: Optional[Memory] = None,
        profiler=None,
    ) -> ExecutionResult:
        """Run ``function`` from its entry with positional arguments."""
        raise NotImplementedError

    def run_from(
        self,
        function: Function,
        point: ProgramPoint,
        env: Mapping[str, int],
        *,
        memory: Optional[Memory] = None,
        previous_block: Optional[str] = None,
        profiler=None,
    ) -> ExecutionResult:
        """Resume ``function`` at ``point`` — the landing side of an OSR.

        The caller is responsible for having produced ``env`` via the
        appropriate OSR mapping (compensation code plus liveness
        restriction, plus any K_avail keep-alive values).  ``profiler``
        is honoured by profiling engines only: a deoptimization landing
        runs in the base tier, and profiling it lets the runtime keep
        *learning* after a speculation is refuted instead of freezing
        the histograms a hasty tier-up left behind.
        """
        raise NotImplementedError

    def register_native(self, name: str, fn: NativeFunction) -> None:
        """Make ``call @name(...)`` dispatch to a host function.

        The module-level adaptive runtime uses this to route residual
        calls in *any* tier back through itself, so every callee is
        counted, profiled and tiered independently no matter which
        engine executed the caller.
        """
        raise NotImplementedError

    def prepare(self, function: Function) -> BoundEntry:
        """Build what running ``function`` needs; return its bound entry.

        The runtime calls this once per version, before publishing it,
        and stores the result on the table entry: the *request path*
        then pays neither first-run setup (for the closure backend:
        lowering to Python and ``compile()``) nor a per-call artifact
        lookup.  The bound entry ``(args, memory) -> ExecutionResult``
        behaves exactly like ``run(function, args, memory=memory)``.
        Default: nothing to build, a closure over :meth:`run`.
        """

        def entry(
            args: Sequence[int], memory: Optional[Memory] = None
        ) -> ExecutionResult:
            return self.run(function, args, memory=memory)

        return entry

    def discard(self, function: Function) -> None:
        """Forget whatever was built for ``function``.

        The runtime calls this for every version that leaves the table
        (retired, invalidated, replaced), so a backend that caches
        per-function artifacts is bounded by the live table.  A later
        :meth:`run`/:meth:`run_from` of a discarded function must still
        work — it rebuilds.  Default: nothing kept, nothing to forget.
        """
        return None


class InterpreterBackend(ExecutionBackend):
    """The reference interpreter as a backend (tier-0 and fallback engine)."""

    name = "interp"

    def __init__(
        self,
        *,
        module: Optional[Module] = None,
        natives: Optional[Mapping[str, NativeFunction]] = None,
        step_limit: int = 2_000_000,
    ) -> None:
        self.module = module
        self.natives: Dict[str, NativeFunction] = dict(natives or {})
        reject_reserved_names(self.natives)
        self.step_limit = step_limit

    def register_native(self, name: str, fn: NativeFunction) -> None:
        reject_reserved_names((name,))
        self.natives[name] = fn

    def run(
        self,
        function: Function,
        args: Sequence[int] = (),
        *,
        memory: Optional[Memory] = None,
        profiler=None,
    ) -> ExecutionResult:
        interpreter = Interpreter(
            self.module,
            step_limit=self.step_limit,
            natives=self.natives,
            profiler=profiler,
        )
        return interpreter.run(function, args, memory=memory)

    def run_from(
        self,
        function: Function,
        point: ProgramPoint,
        env: Mapping[str, int],
        *,
        memory: Optional[Memory] = None,
        previous_block: Optional[str] = None,
        profiler=None,
    ) -> ExecutionResult:
        interpreter = Interpreter(
            self.module,
            step_limit=self.step_limit,
            natives=self.natives,
            profiler=profiler,
        )
        return interpreter.resume(
            function, point, env, memory=memory, previous_block=previous_block
        )


class CompiledBackend(ExecutionBackend):
    """The closure-compiled engine.

    Functions are lowered once (per entry point) and cached; ``run_from``
    lowers an OSR entry stub for the landing point on first use, so a
    steady-state optimizing OSR is one dict lookup plus one Python call.

    ``call @f(...)`` sites resolve through this backend: module callees
    are themselves closure-compiled on first call, host natives are
    invoked directly — mirroring :class:`~repro.ir.interp.Interpreter`'s
    resolution order.

    A function with no structured spelling — an irreducible CFG, which
    only hand-written IR can contain, or nesting deeper than Python
    compiles — is not compiled: ``prepare``/``run``/``run_from`` run it
    on the reference interpreter over the same module, natives and step
    limit.

    Step-budget semantics differ from the interpreter's: the interpreter
    charges callees against the caller's single budget, while every
    compiled invocation (including nested calls) gets its own
    ``step_limit`` of loop iterations — per-call fuel keeps the hot
    loops free of shared-counter traffic.  Termination is still
    guaranteed (each activation is bounded, and recursion depth is
    bounded by the Python stack); only *total* work across deep call
    trees is looser than the interpreter's accounting.
    """

    name = "compiled"

    def __init__(
        self,
        *,
        module: Optional[Module] = None,
        natives: Optional[Mapping[str, NativeFunction]] = None,
        step_limit: int = 2_000_000,
    ) -> None:
        self.module = module
        self.natives: Dict[str, NativeFunction] = dict(natives or {})
        reject_reserved_names(self.natives)
        self.step_limit = step_limit
        self.compiler = ClosureCompiler(
            step_limit=step_limit, resolve_call=self._resolve_call
        )

    # -------------------------------------------------------------- #
    # Call resolution shared by every function this backend compiles.
    # -------------------------------------------------------------- #
    def _resolve_call(self, callee: str, args: List[int], memory: Memory) -> int:
        # Intrinsic names are reserved (see repro.ir.intrinsics); after
        # that, the resolution order matches the interpreter's: module
        # functions, then host natives.
        if is_intrinsic(callee):
            result = call_intrinsic(callee, list(args))
            assert result is not None
            return result
        if self.module is not None and callee in self.module:
            result = self.run(self.module.get(callee), args, memory=memory)
            return result.value if result.value is not None else 0
        native = self.natives.get(callee)
        if native is not None:
            return int(native(list(args), memory))
        raise KeyError(f"call to unknown function @{callee}")

    def register_native(self, name: str, fn: NativeFunction) -> None:
        reject_reserved_names((name,))
        self.natives[name] = fn

    def _interpreter(self) -> Interpreter:
        return Interpreter(
            self.module, step_limit=self.step_limit, natives=self.natives
        )

    def prepare(self, function: Function) -> BoundEntry:
        """Lower (and cache) the entry artifact; return its checked entry."""
        try:
            return self.compiler.compile(function).invoke
        except UnstructurableCFG:

            def interpreted(args: Sequence[int], memory: Optional[Memory] = None):
                return self._interpreter().run(function, args, memory=memory)

            return interpreted

    def discard(self, function: Function) -> None:
        self.compiler.discard(function)

    def compiled_artifact(
        self, function: Function, point: Optional[ProgramPoint] = None
    ) -> CompiledFunction:
        """Compile (or fetch the cached) artifact for inspection.

        Exposes the :class:`~repro.vm.closure_compile.CompiledFunction`
        so tooling can read ``.source`` (the generated Python; CI
        archives it next to the benchmark recordings).  Raises
        :class:`~repro.cfg.structure.UnstructurableCFG` for a function
        this backend runs on the interpreter instead.
        """
        return self.compiler.compile(function, point)

    # -------------------------------------------------------------- #
    # ExecutionBackend interface.
    # -------------------------------------------------------------- #
    def run(
        self,
        function: Function,
        args: Sequence[int] = (),
        *,
        memory: Optional[Memory] = None,
        profiler=None,
    ) -> ExecutionResult:
        try:
            artifact = self.compiler.compile(function)
        except UnstructurableCFG:
            return self._interpreter().run(function, args, memory=memory)
        return artifact.invoke(args, memory)

    def run_from(
        self,
        function: Function,
        point: ProgramPoint,
        env: Mapping[str, int],
        *,
        memory: Optional[Memory] = None,
        previous_block: Optional[str] = None,
        profiler=None,
    ) -> ExecutionResult:
        # Compiled code does not observe values; ``profiler`` is accepted
        # for interface parity and ignored.
        try:
            stub = self.compiler.compile(function, point)
        except UnstructurableCFG:
            return self._interpreter().resume(
                function, point, env, memory=memory, previous_block=previous_block
            )
        return stub(dict(env), memory, previous_block)


#: Backend constructors by registry name.
_FACTORIES: Dict[str, Callable[..., ExecutionBackend]] = {
    "interp": InterpreterBackend,
    "compiled": CompiledBackend,
}


def backend_name_from_env() -> str:
    """The backend name selected by ``REPRO_BACKEND`` (unset: :data:`DEFAULT_BACKEND`).

    An invalid value raises immediately, naming the registered backends
    — it must never fall through to some silent default.
    :meth:`repro.engine.EngineConfig.from_env` calls this eagerly so a
    typo in ``REPRO_BACKEND`` fails at engine construction, not at the
    first tier-up.
    """
    name = os.environ.get(BACKEND_ENV_VAR, "").strip().lower()
    if not name:
        return DEFAULT_BACKEND
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"{BACKEND_ENV_VAR}={name!r} names no backend; "
            f"choose from {sorted(BACKEND_NAMES)}"
        )
    return name


def resolve_backend(
    spec: Union[None, str, ExecutionBackend],
    *,
    step_limit: int = 2_000_000,
) -> ExecutionBackend:
    """Resolve a backend spec: instance, registry name, or ``None``.

    ``None`` consults :data:`BACKEND_ENV_VAR` and falls back to
    :data:`DEFAULT_BACKEND` — the hook the CI backend-parity job uses to
    run the entire suite on the other engine without touching any call
    site.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    if spec is None:
        spec = backend_name_from_env()
    factory = _FACTORIES.get(spec)
    if factory is None:
        raise ValueError(
            f"unknown backend {spec!r}; choose from {sorted(BACKEND_NAMES)}"
        )
    return factory(step_limit=step_limit)
