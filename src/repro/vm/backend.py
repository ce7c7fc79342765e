"""The compiled engine of the adaptive runtime.

The runtime runs two engines.  The profiled base tier is the reference
:class:`~repro.ir.interp.Interpreter`, built fresh per activation: it
alone feeds a profiler and pauses at a ``break_at`` point.  Optimized
versions, and f_base where a repeated guard failure lands, run as
generated Python through :class:`CompiledBackend`: ``run`` calls a
function from its entry, and ``run_from`` resumes it at a
:class:`~repro.ir.function.ProgramPoint` through an *OSR entry stub*
compiled (and cached) per landing point, so an optimizing OSR lands
directly in compiled code mid-loop.  The emitter lives in
:mod:`repro.vm.closure_compile`; this module owns its artifact cache.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..cfg.structure import UnstructurableCFG
from ..ir.function import Function, Module, ProgramPoint
from ..ir.interp import ExecutionResult, Interpreter, Memory, NativeFunction
from ..ir.intrinsics import call_intrinsic, is_intrinsic, reject_reserved_names
from ..ir.verify import verify_function
from . import closure_compile
from .closure_compile import CompiledFunction

__all__ = ["CompiledBackend", "BoundEntry"]

#: What :meth:`CompiledBackend.prepare` returns: one function's entry,
#: ``(args, memory) -> ExecutionResult``.
BoundEntry = Callable[..., ExecutionResult]

#: A cache entry's artifact, or the refusal of a function with no
#: structured spelling.
_Built = Union[CompiledFunction, UnstructurableCFG]


class CompiledBackend:
    """The closure-compiled engine.

    Functions are lowered once per entry point (the function's own entry
    or an OSR landing point) and cached, so a steady-state optimizing
    OSR is one dict lookup plus one Python call.

    ``call @f(...)`` sites in generated code resolve through
    :meth:`_resolve_call`: intrinsics, then module callees (themselves
    compiled on first call), then host natives, mirroring
    :class:`~repro.ir.interp.Interpreter`'s resolution order.

    A function with no structured spelling (an irreducible CFG, which
    only hand-written IR can contain, or nesting deeper than Python
    compiles) is not compiled: ``prepare``/``run``/``run_from`` run it on
    the reference interpreter over the same module, natives and step
    limit.  The refusal is cached like an artifact, so such a function
    is verified and analysed once.

    Step-budget semantics differ from the interpreter's: the interpreter
    charges callees against the caller's single budget, while every
    compiled invocation (including nested calls) gets its own
    ``step_limit`` of loop iterations — per-call fuel keeps the hot
    loops free of shared-counter traffic.  Termination is still
    guaranteed (each activation is bounded, and recursion depth is
    bounded by the Python stack); only *total* work across deep call
    trees is looser than the interpreter's accounting.

    Thread-safety: generated code keeps *all* execution state in locals
    (plus the caller-supplied :class:`Memory`), so one artifact may run
    on any number of threads at once.  Cache writes take a lock (a
    lookup is one atomic ``dict.get``); when two threads race to lower
    one ``(function, entry)`` the first to publish wins, so callers
    share one artifact per key.  The cache pins what it holds (artifact,
    source text and IR function) until :meth:`discard`.
    """

    def __init__(
        self,
        *,
        module: Optional[Module] = None,
        step_limit: int = 2_000_000,
    ) -> None:
        self.module = module
        #: Host functions by name; :meth:`register_native` fills it.
        self.natives: Dict[str, NativeFunction] = {}
        self.step_limit = step_limit
        #: ``(id(function), entry) -> (function, artifact or refusal)``;
        #: holding the function keeps its id from being reused.
        self._cache: Dict[Tuple[int, Optional[ProgramPoint]], Tuple[Function, _Built]] = {}
        self._cache_lock = threading.Lock()

    def _resolve_call(self, callee: str, args: List[int], memory: Memory) -> int:
        """What generated code's ``call @callee(...)`` runs."""
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
        """Make ``call @name(...)`` dispatch to a host function."""
        reject_reserved_names((name,))
        self.natives[name] = fn

    def _interpreter(self) -> Interpreter:
        return Interpreter(
            self.module, step_limit=self.step_limit, natives=self.natives
        )

    # -------------------------------------------------------------- #
    # The artifact cache.
    # -------------------------------------------------------------- #
    def _artifact(
        self, function: Function, entry: Optional[ProgramPoint] = None
    ) -> _Built:
        """Look up or lower ``function`` entered at ``entry`` (``None``:
        its entry); a refusal is cached and returned, not raised.

        Callers must not mutate a function after its first lowering (the
        runtime lowers only after the pass pipeline finished).
        """
        key = (id(function), entry)
        cached = self._cache.get(key)
        if cached is None:
            verify_function(function, require_ssa=False)
            try:
                built: _Built = self._lower(function, entry)
            except UnstructurableCFG as refusal:
                built = refusal
            with self._cache_lock:
                cached = self._cache.setdefault(key, (function, built))
        return cached[1]

    def _lower(
        self, function: Function, entry: Optional[ProgramPoint]
    ) -> CompiledFunction:
        source, namespace = closure_compile.emit(function, entry)
        namespace["_call"] = self._resolve_call
        namespace["_FUEL"] = self.step_limit
        exec(compile(source, f"<closure:{function.name}>", "exec"), namespace)
        return CompiledFunction(
            function, entry, namespace["__compiled__"], source, namespace["_snapshot"]
        )

    def discard(self, function: Function) -> None:
        """Forget what was built for ``function`` (entry and OSR stubs).

        The runtime calls this for every version that leaves the table
        (retired, invalidated, replaced), so the cache is bounded by the
        live table.  Running code keeps its own reference to what it
        executes, and a later :meth:`run`/:meth:`run_from` of a discarded
        function lowers it again.
        """
        with self._cache_lock:
            for key in [key for key, (held, _) in self._cache.items() if held is function]:
                del self._cache[key]

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
        artifact = self._artifact(function, point)
        if isinstance(artifact, UnstructurableCFG):
            raise UnstructurableCFG(*artifact.args)
        return artifact

    # -------------------------------------------------------------- #
    # Execution.
    # -------------------------------------------------------------- #
    def prepare(self, function: Function) -> BoundEntry:
        """Lower (and cache) the entry artifact; return its checked entry.

        The runtime calls this once per version, before publishing it,
        and stores the result on the table entry: the *request path*
        then pays neither lowering to Python and ``compile()`` nor a
        per-call artifact lookup.  The bound entry ``(args, memory) ->
        ExecutionResult`` behaves exactly like ``run(function, args,
        memory=memory)``.
        """
        artifact = self._artifact(function)
        if isinstance(artifact, CompiledFunction):
            return artifact.invoke

        def interpreted(args: Sequence[int], memory: Optional[Memory] = None):
            return self._interpreter().run(function, args, memory=memory)

        return interpreted

    def run(
        self,
        function: Function,
        args: Sequence[int] = (),
        *,
        memory: Optional[Memory] = None,
    ) -> ExecutionResult:
        """Run ``function`` from its entry with positional arguments."""
        return self.prepare(function)(args, memory)

    def run_from(
        self,
        function: Function,
        point: ProgramPoint,
        env: Mapping[str, int],
        *,
        memory: Optional[Memory] = None,
        previous_block: Optional[str] = None,
    ) -> ExecutionResult:
        """Resume ``function`` at ``point``: the landing side of an OSR.

        ``env`` is what the OSR mapping produced (compensation code,
        liveness restriction and any K_avail keep-alive values).
        """
        stub = self._artifact(function, point)
        if isinstance(stub, CompiledFunction):
            return stub(dict(env), memory, previous_block)
        return self._interpreter().resume(
            function, point, env, memory=memory, previous_block=previous_block
        )
