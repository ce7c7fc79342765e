"""Multi-frame deoptimization: reconstructing a virtual call stack.

Speculative inlining (:mod:`repro.passes.inline`) erases call
boundaries: a guard that fires inside an inlined body is, logically, a
guard firing *inside a callee activation that was never created*.  The
backward mapping at such a point therefore does not yield a single
``(landing point, compensation)`` pair, but a **stack** of frames:

* the innermost frame is the inlined callee's own f_base, landed at the
  point the frame's :class:`~repro.core.codemapper.CodeMapper` view maps
  the guard to, with an environment rebuilt *in the callee's namespace*
  (the inliner's injective renaming is inverted, and Algorithm 1 runs
  against the callee's own liveness);
* each enclosing frame is the parent version (another inlined callee,
  or ultimately the caller's f_base) paused *after* its call site, with
  the call's destination register left to be bound from the inner
  frame's return value (``assume_defined`` in
  :func:`~repro.core.reconstruct.build_compensation`).

A guard between the splice's argument bindings deoptimizes to the call
instruction itself — nothing of the callee has run — which degenerates
to a single caller frame landing *at* the call, re-executed by the base
tier.

:func:`build_deopt_plans` computes one :class:`DeoptPlan` per guard of
an optimized version and reports the guards it cannot cover; the
adaptive runtime installs speculation only when the uncovered list is
empty, and materializes the plan's :class:`FrameState` stack when a
guard fires.  It also stamps the optimized function's
``"inline_paths"`` metadata so both execution backends can attach the
virtual stack to the :class:`~repro.ir.interp.GuardFailure` they raise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from ..ir.expr import Expr, Var, evaluate, free_vars, substitute
from ..ir.function import Function, ProgramPoint
from .codemapper import InlinedFrame
from .compensation import CompensationCode
from .reconstruct import CannotReconstruct, ReconstructionMode, build_compensation

__all__ = [
    "RenamedView",
    "FramePlan",
    "FrameState",
    "DeoptPlan",
    "build_deopt_plans",
]


class RenamedView:
    """A liveness/availability view translated into a frame's namespace.

    Wraps the optimized function's view and renames the registers that
    belong to one inlined frame back to the callee's own names; registers
    outside the frame disappear.  Only the *source-side* queries of
    Algorithm 1 are provided (``live_in`` / ``available_at``) — the
    destination side always uses the callee's pristine view.
    """

    #: The wrapped view is a pair's ``FunctionView``, which exists only
    #: over SSA IR.
    single_assignment = True

    def __init__(self, inner, inverse_rename: Mapping[str, str]) -> None:
        self.inner = inner
        self.inverse_rename = dict(inverse_rename)

    def _translate(self, names) -> FrozenSet[str]:
        return frozenset(
            self.inverse_rename[name] for name in names if name in self.inverse_rename
        )

    def live_in(self, point) -> FrozenSet[str]:
        return self._translate(self.inner.live_in(point))

    def available_at(self, point) -> FrozenSet[str]:
        return self._translate(self.inner.available_at(point))


@dataclass
class FramePlan:
    """How to rebuild one base-tier frame from a failing guard's state."""

    #: The base-tier function this frame resumes (a callee f_base for the
    #: innermost frame of an inlined guard; the caller f_base otherwise).
    function: Function
    #: Landing point: the mapped guard point for the innermost frame, the
    #: instruction *after* the call site for enclosing frames.
    target: ProgramPoint
    #: Compensation code in this frame's own namespace.
    compensation: CompensationCode
    #: Optimized register name → frame-local name (``None`` = identity,
    #: i.e. the frame lives in the caller's namespace).
    inverse_rename: Optional[Dict[str, str]]
    #: Optimized block label → frame-local label (for translating the
    #: failure's arrival block on the innermost frame).
    inverse_blocks: Optional[Dict[str, str]]
    #: Register (frame-local name) to bind with the inner frame's return
    #: value before resuming; ``None`` for the innermost frame and for
    #: calls that discard their result.
    dest: Optional[str]
    #: Variables live at the landing point (frame-local names).
    live_at_target: FrozenSet[str]
    #: Registers (in *optimized* naming) the compensation reads although
    #: they are dead in the optimized code — this frame's contribution to
    #: the version's K_avail set.
    keep_alive: FrozenSet[str] = frozenset()
    #: Frame-local parameter name → argument expression (in *optimized*
    #: naming, aliases resolved) to evaluate against the failing state
    #: when the renamed parameter binding was optimized away.  SSA makes
    #: this sound: an argument expression's inputs hold their call-time
    #: values everywhere inside the inlined body.
    param_seeds: Dict[str, Expr] = field(default_factory=dict)

    def transfer(self, env: Mapping[str, int]) -> Dict[str, int]:
        """Rebuild this frame's environment from the failing guard's env."""
        if self.inverse_rename is None:
            seed = dict(env)
        else:
            seed = {
                self.inverse_rename[name]: value
                for name, value in env.items()
                if name in self.inverse_rename
            }
        for param, expr in self.param_seeds.items():
            if param not in seed:
                seed[param] = evaluate(expr, env)
        full = self.compensation.apply_to(seed)
        live = self.live_at_target
        return {name: value for name, value in full.items() if name in live}

    def translate_block(self, label: Optional[str]) -> Optional[str]:
        """Map an optimized arrival block into this frame's label space."""
        if label is None or self.inverse_blocks is None:
            return label
        return self.inverse_blocks.get(label)


@dataclass
class FrameState:
    """One materialized frame of a reconstructed virtual stack."""

    function: str
    point: ProgramPoint
    env: Dict[str, int]
    previous_block: Optional[str] = None
    dest: Optional[str] = None


@dataclass
class DeoptPlan:
    """The full deoptimization recipe for one guard point."""

    point: ProgramPoint
    #: Frames innermost-first; the last entry is always the caller f_base.
    frames: List[FramePlan] = field(default_factory=list)

    @property
    def is_multiframe(self) -> bool:
        return len(self.frames) > 1

    def inline_path(self) -> Tuple[str, ...]:
        """Callee names of the virtual stack, innermost first."""
        return tuple(plan.function.name for plan in self.frames[:-1])

    def keep_alive(self) -> FrozenSet[str]:
        """K_avail of the whole stack, in optimized naming."""
        result: FrozenSet[str] = frozenset()
        for plan in self.frames:
            result |= plan.keep_alive
        return result


def _frame_keep_alive(
    compensation: CompensationCode, rename: Optional[Dict[str, str]]
) -> FrozenSet[str]:
    if rename is None:
        return compensation.keep_alive
    return frozenset(rename.get(name, name) for name in compensation.keep_alive)


def _seed_inputs(seeds: Mapping[str, Expr]) -> FrozenSet[str]:
    """All registers the seed expressions read, in optimized naming."""
    inputs: FrozenSet[str] = frozenset()
    for expr in seeds.values():
        inputs |= free_vars(expr)
    return inputs


def _resolve_aliases(expr: Expr, aliases: Mapping[str, Expr], limit: int = 8) -> Expr:
    """Chase ``replace`` actions: rewrite an expression's replaced inputs.

    CSE and speculation substitute registers away (copy propagation,
    assume-constant); an argument expression captured at inline time may
    therefore reference registers that no longer exist in the optimized
    code.  The recorded aliases recover their values.  The iteration cap
    guards against pathological alias cycles.
    """
    for _ in range(limit):
        needed = free_vars(expr) & set(aliases)
        if not needed:
            break
        expr = substitute(expr, {name: aliases[name] for name in needed})
    return expr


def _certain_registers(pair, point: ProgramPoint) -> set:
    """Registers certainly bound in the failing state at ``point``.

    Parameters of the optimized function plus registers defined on every
    path to the guard (must-availability); live registers are included
    because liveness at a reached point implies a binding on the path
    that reached it.
    """
    return (
        set(pair.opt_view.available_at(point))
        | set(pair.optimized.params)
        | set(pair.opt_view.live_in(point))
    )


def _param_seeds(
    frame: InlinedFrame, pair, point: ProgramPoint, certain: set
) -> Dict[str, Expr]:
    """Argument expressions evaluable against the failing state at ``point``.

    A seed qualifies when every input is certainly bound when the guard
    fires.
    """
    aliases = getattr(pair.mapper, "aliases", {})
    seeds: Dict[str, Expr] = {}
    for param, arg in frame.param_args.items():
        expr = _resolve_aliases(arg, aliases)
        if free_vars(expr) <= certain:
            seeds[param] = expr
    return seeds


def _build_with_seeds(
    pair,
    point: ProgramPoint,
    source_view,
    dst_view,
    dst_point: ProgramPoint,
    mode: ReconstructionMode,
    rename: Optional[Dict[str, str]],
    seeds: Dict[str, Expr],
    certain: set,
    extra_assume: FrozenSet[str] = frozenset(),
) -> CompensationCode:
    """Build a frame compensation, exploiting aliases for stuck variables.

    When Algorithm 1 cannot rebuild a destination variable — typically a
    call result the caller's base version keeps live but CSE replaced
    everywhere — the ``replace`` actions recorded by the passes may name
    a live alias for it (the paper's Section 6.2).  The alias expression
    becomes a *seed*: the runtime evaluates it against the failing state
    and binds the variable directly, so the build is retried with the
    variable assumed defined.  ``seeds`` is extended in place.
    """
    aliases = getattr(pair.mapper, "aliases", {})
    while True:
        try:
            return build_compensation(
                source_view,
                point,
                dst_view,
                dst_point,
                mode=mode,
                assume_defined=frozenset(seeds) | extra_assume,
            )
        except CannotReconstruct as exc:
            var = exc.variable
            if var in seeds or var in extra_assume:
                raise
            opt_name = rename.get(var, var) if rename is not None else var
            resolved = _resolve_aliases(Var(opt_name), aliases)
            if isinstance(resolved, Var) and resolved.name == opt_name:
                raise  # no alias recorded: genuinely unrecoverable
            if not free_vars(resolved) <= certain:
                raise
            seeds[var] = resolved


def build_deopt_plans(
    pair,
    mode: ReconstructionMode = ReconstructionMode.AVAIL,
) -> Tuple[Dict[ProgramPoint, DeoptPlan], List[ProgramPoint]]:
    """Deoptimization plans for every guard of ``pair.optimized``.

    Returns ``(plans, uncovered)``.  A guard lands in ``uncovered`` when
    any frame of its virtual stack cannot be mapped or its environment
    cannot be rebuilt under ``mode`` — the caller must then refuse to
    install the speculative version: a guard that cannot deoptimize
    would strand execution on failure.

    As a side effect the optimized function's ``"inline_paths"`` metadata
    is (re)stamped with each covered guard's virtual stack, which the
    execution backends attach to the :class:`~repro.ir.interp.GuardFailure`
    they raise.
    """
    mapper = pair.mapper
    frames: List[InlinedFrame] = list(getattr(mapper, "inlined_frames", []))
    callee_views: Dict[int, object] = {}

    def view_of(function: Function):
        key = id(function)
        if key not in callee_views:
            from .views import FunctionView

            callee_views[key] = FunctionView(function)
        return callee_views[key]

    plans: Dict[ProgramPoint, DeoptPlan] = {}
    uncovered: List[ProgramPoint] = []
    paths: Dict[ProgramPoint, Tuple[str, ...]] = {}

    for point in pair.guard_points():
        plan = _plan_for(pair, point, frames, mode, view_of)
        if plan is None:
            uncovered.append(point)
        else:
            plans[point] = plan
            if plan.is_multiframe:
                paths[point] = plan.inline_path()

    pair.optimized.metadata["inline_paths"] = paths
    return plans, uncovered


def _plan_for(pair, point, frames, mode, view_of) -> Optional[DeoptPlan]:
    mapper = pair.mapper
    frame_index = getattr(mapper, "block_frames", {}).get(point.block)

    chain: List[FramePlan] = []
    certain = _certain_registers(pair, point)
    try:
        if frame_index is None:
            target = mapper.corresponding_original_point(point)
            if target is None:
                return None
            seeds: Dict[str, Expr] = {}
            compensation = _build_with_seeds(
                pair,
                point,
                pair.opt_view,
                pair.base_view,
                target,
                mode,
                None,
                seeds,
                certain,
            )
            chain.append(
                FramePlan(
                    function=pair.base,
                    target=target,
                    compensation=compensation,
                    inverse_rename=None,
                    inverse_blocks=None,
                    dest=None,
                    live_at_target=pair.base_view.live_in(target),
                    keep_alive=compensation.keep_alive | _seed_inputs(seeds),
                    param_seeds=seeds,
                )
            )
            return DeoptPlan(point, chain)

        frame = frames[frame_index]
        frame_mapper = mapper.frame_mapper(frame)
        target = frame_mapper.corresponding_original_point(point)
        if target is None:
            return None
        callee_view = view_of(frame.callee)
        inverse = frame.inverse_rename()
        seeds = _param_seeds(frame, pair, point, certain)
        compensation = _build_with_seeds(
            pair,
            point,
            RenamedView(pair.opt_view, inverse),
            callee_view,
            target,
            mode,
            frame.rename,
            seeds,
            certain,
        )
        chain.append(
            FramePlan(
                function=frame.callee,
                target=target,
                compensation=compensation,
                inverse_rename=inverse,
                inverse_blocks={new: old for old, new in frame.block_map.items()},
                dest=None,
                live_at_target=callee_view.live_in(target),
                keep_alive=(
                    _frame_keep_alive(compensation, frame.rename)
                    | _seed_inputs(seeds)
                ),
                param_seeds=seeds,
            )
        )

        # Walk outward: each enclosing frame resumes just past its call.
        current = frame
        while True:
            parent_index = current.parent
            if parent_index is None:
                parent_fn = pair.base
                parent_view = pair.base_view
                original_call_uid = mapper.backward_uid.get(current.call_uid)
                parent_inverse: Optional[Dict[str, str]] = None
                parent_rename: Optional[Dict[str, str]] = None
            else:
                parent = frames[parent_index]
                parent_fn = parent.callee
                parent_view = view_of(parent_fn)
                inverse_uids = {new: old for old, new in parent.uid_map.items()}
                original_call_uid = inverse_uids.get(current.call_uid)
                parent_inverse = parent.inverse_rename()
                parent_rename = parent.rename
            if original_call_uid is None:
                return None
            located = parent_fn.find_by_uid(original_call_uid)
            if located is None:
                return None
            call_point, _ = located
            resume = ProgramPoint(call_point.block, call_point.index + 1)
            dest_local: Optional[str] = None
            if current.dest is not None:
                dest_local = (
                    current.dest
                    if parent_inverse is None
                    else parent_inverse.get(current.dest, current.dest)
                )
            if parent_inverse is None:
                source_view = pair.opt_view
                parent_seeds: Dict[str, Expr] = {}
            else:
                # An enclosing inlined frame's own parameter bindings may
                # equally have been folded away; its argument expressions
                # seed them just like the innermost frame's.
                source_view = RenamedView(pair.opt_view, parent_inverse)
                parent_seeds = _param_seeds(frames[parent_index], pair, point, certain)
            # The destination is bound by the runtime from the inner
            # frame's return value, never seeded from the failing state.
            parent_seeds.pop(dest_local, None)
            compensation = _build_with_seeds(
                pair,
                point,
                source_view,
                parent_view,
                resume,
                mode,
                parent_rename,
                parent_seeds,
                certain,
                extra_assume=(
                    frozenset({dest_local}) if dest_local else frozenset()
                ),
            )
            parent_seed_inputs = _seed_inputs(parent_seeds)
            chain.append(
                FramePlan(
                    function=parent_fn,
                    target=resume,
                    compensation=compensation,
                    inverse_rename=parent_inverse,
                    inverse_blocks=None,
                    dest=dest_local,
                    live_at_target=parent_view.live_in(resume),
                    keep_alive=(
                        _frame_keep_alive(compensation, parent_rename)
                        | parent_seed_inputs
                    ),
                    param_seeds=parent_seeds,
                )
            )
            if parent_index is None:
                return DeoptPlan(point, chain)
            current = frames[parent_index]
    except CannotReconstruct:
        return None
