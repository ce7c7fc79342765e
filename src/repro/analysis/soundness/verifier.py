"""Static verification of a compiled version's OSR/deopt metadata.

:func:`verify_version` proves — for **all** inputs, not tested ones —
that every guard of a :class:`~repro.vm.runtime.CompiledVersion` can
deoptimize soundly: the recorded deopt plans and OSR mappings definitely
assign every live base-tier variable at their landing points, the
compensation code is pure and reads only certainly-bound (or K_avail
kept-alive) values, and the version's structural invariants hold.  The
checks run over dataflow facts derived from the IR itself — the pair's
liveness/availability views (computed from the function bodies, never
from the recorded metadata), plus a fresh liveness pass for inlined
callee frames — so a payload whose metadata was corrupted, widened,
narrowed or hand-edited fails *here*, before publication, instead of
crashing mid-deoptimization.

The module deliberately never imports :mod:`repro.vm` at runtime (the
runtime imports *us* to gate publication); a version is duck-typed
through the attributes every ``CompiledVersion`` exposes — ``pair``,
``plans``, ``forward_mapping``, ``keep_alive`` and the optional hydrated
``backward`` mapping.  Crucially the verifier never touches
``pair.mapper``: hydrated pairs carry none.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Set

from ...ir.expr import BinOp, Const, Expr, UnOp, Undef, Var, free_vars, walk
from ...ir.function import Function
from ...ir.intrinsics import is_pure_callee
from ...ir.verify import VerificationError, verify_function
from ..liveness import LivenessInfo, live_variables
from .obligations import PROVED, VIOLATED, VerifyReport, Violation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...vm.runtime import CompiledVersion

__all__ = ["verify_version"]

#: The closed, side-effect-free expression grammar compensation code and
#: parameter seeds may use.  Everything else — loads, calls (pure per
#: :func:`repro.ir.intrinsics.is_pure_callee` or not), allocation — is a
#: purity violation: compensation runs mid-deoptimization and must not
#: observe or mutate anything beyond the captured register state.
_PURE_NODES = (Const, Var, Undef, UnOp, BinOp)


def _expr_problem(expr: Expr) -> Optional[str]:
    """``None`` when ``expr`` stays inside the pure grammar, else why not."""
    try:
        nodes = list(walk(expr))
    except Exception as exc:  # a hand-rolled node without operands()
        return f"unwalkable expression node: {exc}"
    for node in nodes:
        if not isinstance(node, _PURE_NODES):
            callee = getattr(node, "callee", None)
            if callee is not None and is_pure_callee(str(callee)):
                return (
                    f"call to intrinsic {callee!r} (pure, but calls are "
                    f"outside the compensation grammar)"
                )
            return f"node {type(node).__name__} is outside the pure grammar"
    return None


def _reachable_blocks(function: Function) -> Set[str]:
    blocks = {block.label: block for block in function.iter_blocks()}
    seen: Set[str] = set()
    work = [function.entry_label]
    while work:
        label = work.pop()
        if label in seen or label not in blocks:
            continue
        seen.add(label)
        work.extend(blocks[label].successors())
    return seen


class _Checker:
    """One verification run; accumulates violations over the packs."""

    def __init__(self, version: "CompiledVersion", key, function_name: Optional[str]):
        self.version = version
        self.pair = version.pair
        self.base = self.pair.base
        self.optimized = self.pair.optimized
        self.name = function_name or self.base.name
        self.key = key
        self.key_str = str(key) if key is not None else "generic"
        self.violations: List[Violation] = []
        self.checked_frames = 0
        self.checked_mappings = 0
        self._liveness: Dict[int, LivenessInfo] = {}
        self.kept = frozenset(version.keep_alive)
        self._base_params = frozenset(self.base.params)
        self._opt_params = frozenset(self.optimized.params)
        self._certain_opt_cache: Dict[object, FrozenSet[str]] = {}
        self._certain_base_cache: Dict[object, FrozenSet[str]] = {}
        self._domains: Dict[int, tuple] = {}
        self._sizes: Dict[int, Dict[str, int]] = {}
        self.guard_points = tuple(self.pair.guard_points())

    # ------------------------------------------------------------------ #
    # Shared dataflow facts.
    # ------------------------------------------------------------------ #
    def _live_info(self, function: Function) -> LivenessInfo:
        # The pair's views already carry liveness recomputed from the IR
        # at construction (independent of the recorded plan metadata), so
        # the two functions every single-frame plan names are free here;
        # only inlined callee frames pay for a fresh dataflow pass.
        if function is self.base:
            info = getattr(self.pair.base_view, "liveness", None)
            if info is not None:
                return info
        elif function is self.optimized:
            info = getattr(self.pair.opt_view, "liveness", None)
            if info is not None:
                return info
        info = self._liveness.get(id(function))
        if info is None:
            info = live_variables(function)
            self._liveness[id(function)] = info
        return info

    def _certain_opt(self, point) -> FrozenSet[str]:
        """Registers certainly bound in the failing state at ``point``.

        Mirrors :func:`repro.core.frames._certain_registers`: parameters,
        must-available registers, and live registers (liveness at a
        reached point implies a binding on the path that reached it).
        """
        certain = self._certain_opt_cache.get(point)
        if certain is None:
            view = self.pair.opt_view
            certain = view.available_at(point) | self._opt_params | view.live_in(point)
            self._certain_opt_cache[point] = certain
        return certain

    def _certain_base(self, point) -> FrozenSet[str]:
        certain = self._certain_base_cache.get(point)
        if certain is None:
            view = self.pair.base_view
            certain = view.available_at(point) | self._base_params | view.live_in(point)
            self._certain_base_cache[point] = certain
        return certain

    def _domain(self, mapping) -> tuple:
        """One deterministic-order domain per mapping (``domain()`` sorts
        on every call, and both the structure and mapping packs walk it)."""
        domain = self._domains.get(id(mapping))
        if domain is None:
            domain = tuple(mapping.domain())
            self._domains[id(mapping)] = domain
        return domain

    def fail(self, obligation, rule, detail, *, point=None, frame=None) -> None:
        self.violations.append(
            Violation(
                obligation=obligation,
                rule=rule,
                function=self.name,
                detail=detail,
                point=point,
                frame=frame,
            )
        )

    # ------------------------------------------------------------------ #
    # Pack: structure.
    # ------------------------------------------------------------------ #
    def check_structure(self) -> None:
        # The pair's views exist only over SSA IR.
        try:
            verify_function(self.optimized, require_ssa=True)
        except VerificationError as exc:
            for problem in exc.problems:
                self.fail("structure", "ir-verify", problem)

        guard_points = set(self.guard_points)
        plans = self.version.plans
        for point in sorted(guard_points, key=str):
            if point not in plans:
                self.fail(
                    "structure",
                    "guard-coverage",
                    "guard has no deoptimization plan",
                    point=str(point),
                )
        for point in sorted(plans, key=str):
            if point not in guard_points:
                self.fail(
                    "structure",
                    "guard-coverage",
                    "deoptimization plan targets a point with no guard",
                    point=str(point),
                )

        reachable = _reachable_blocks(self.optimized)
        for point in sorted(guard_points, key=str):
            if point.block not in reachable:
                self.fail(
                    "structure",
                    "guard-reachability",
                    f"guard block {point.block!r} is unreachable from entry",
                    point=str(point),
                )

        # Dispatch totality: a version key may only pin argument slots the
        # base function actually receives — a key pinning a phantom slot
        # could never be matched (or worse, matched against garbage) by
        # the entry dispatcher.
        pinned = getattr(self.key, "pinned", None) or ()
        arity = len(self.base.params)
        for slot, _value in pinned:
            if not 0 <= slot < arity:
                self.fail(
                    "structure",
                    "dispatch-totality",
                    f"version key pins argument slot {slot}, but "
                    f"@{self.base.name} takes {arity} parameter(s)",
                )

        # Mapping range validity.  The two directions are *not* exact
        # inverses by construction (each maps to the nearest sound
        # landing point, so round trips legitimately drift forward), but
        # every entry of both must name real program points — a
        # corrupted payload pointing into a nonexistent block (or past
        # the end of one) would crash the transfer instead of deopting.
        forward = self.version.forward_mapping
        backward = getattr(self.version, "backward", None)
        self.checked_mappings += len(forward)
        self._check_mapping_points(forward, "forward", self.base, self.optimized)
        if backward is not None and len(backward):
            self.checked_mappings += len(backward)
            self._check_mapping_points(
                backward, "backward", self.optimized, self.base
            )

    def _block_sizes(self, function: Function) -> Dict[str, int]:
        sizes = self._sizes.get(id(function))
        if sizes is None:
            sizes = {
                block.label: len(block.instructions)
                for block in function.iter_blocks()
            }
            self._sizes[id(function)] = sizes
        return sizes

    def _check_mapping_points(self, mapping, label, source_fn, target_fn):
        src_sizes = self._block_sizes(source_fn)
        dst_sizes = self._block_sizes(target_fn)
        for source in self._domain(mapping):
            target = mapping[source].target
            if (
                source.block not in src_sizes
                or not 0 <= source.index <= src_sizes[source.block]
            ):
                self.fail(
                    "structure",
                    "mapping-range",
                    f"{label} mapping source {source} is not a program "
                    f"point of @{source_fn.name}",
                    point=str(source),
                )
            if (
                target.block not in dst_sizes
                or not 0 <= target.index <= dst_sizes[target.block]
            ):
                self.fail(
                    "structure",
                    "mapping-range",
                    f"{label} mapping entry {source} -> {target} targets no "
                    f"program point of @{target_fn.name}",
                    point=str(source),
                )

    # ------------------------------------------------------------------ #
    # Packs: completeness + purity, per deopt plan frame.
    # ------------------------------------------------------------------ #
    def check_plans(self) -> None:
        for point in sorted(self.version.plans, key=str):
            plan = self.version.plans[point]
            point_str = str(point)
            if not plan.frames:
                self.fail(
                    "structure",
                    "plan-shape",
                    "deoptimization plan has no frames",
                    point=point_str,
                )
                continue
            outer = plan.frames[-1].function
            if outer.name != self.base.name:
                self.fail(
                    "structure",
                    "plan-shape",
                    f"outermost frame resumes @{outer.name}; the last frame "
                    f"of a plan must be the caller @{self.base.name}",
                    point=point_str,
                )
            missing_kept = sorted(plan.keep_alive() - self.kept)
            if missing_kept:
                self.fail(
                    "purity",
                    "keep-alive",
                    f"plan keep-alive register(s) {missing_kept} are missing "
                    f"from the version's K_avail set",
                    point=point_str,
                )
            certain = self._certain_opt(point)
            live_at_guard = self.pair.opt_view.live_in(point)
            for index, frame in enumerate(plan.frames):
                self.checked_frames += 1
                self._check_frame(
                    frame,
                    point_str,
                    index if plan.is_multiframe else None,
                    certain,
                    live_at_guard,
                )

    def _check_frame(self, frame, point_str, frame_tag, certain, live_at_guard):
        # Translate the certainly-bound set into the frame's namespace,
        # exactly as FramePlan.transfer renames the failing environment.
        if frame.inverse_rename is None:
            frame_certain = set(certain)
            to_opt: Optional[Dict[str, str]] = None
        else:
            frame_certain = {
                frame.inverse_rename[name]
                for name in certain
                if name in frame.inverse_rename
            }
            to_opt = {local: opt for opt, local in frame.inverse_rename.items()}
        seeds = frame.param_seeds
        comp = frame.compensation
        params = set(self.optimized.params)

        # Purity: the transfer's code stays inside the closed grammar.
        for dest, expr in comp.assignments:
            issue = _expr_problem(expr)
            if issue:
                self.fail(
                    "purity",
                    "side-effect-free",
                    f"compensation write to {dest!r} is impure: {issue}",
                    point=point_str,
                    frame=frame_tag,
                )
        for param, expr in sorted(seeds.items()):
            issue = _expr_problem(expr)
            if issue:
                self.fail(
                    "purity",
                    "side-effect-free",
                    f"parameter seed for {param!r} is impure: {issue}",
                    point=point_str,
                    frame=frame_tag,
                )

        # Purity: seeds evaluate against the *optimized* failing state, so
        # every input must be certainly bound there, and dead inputs must
        # ride in K_avail or the backend will have dropped them.
        for param, expr in sorted(seeds.items()):
            inputs = free_vars(expr)
            unbound = sorted(inputs - certain)
            if unbound:
                self.fail(
                    "purity",
                    "reads-bound",
                    f"seed for parameter {param!r} reads {unbound}, not "
                    f"certainly bound at the failing guard",
                    point=point_str,
                    frame=frame_tag,
                )
            dead = sorted(inputs - live_at_guard - params - self.kept - set(unbound))
            if dead:
                self.fail(
                    "purity",
                    "keep-alive",
                    f"seed for parameter {param!r} reads {dead}, dead at the "
                    f"guard and missing from the version's K_avail set",
                    point=point_str,
                    frame=frame_tag,
                )

        # Purity: compensation reads only renamed-certain or seeded values
        # (sequentially — input_variables() already discounts prior
        # defines), and its dead reads are kept alive.
        readable = frame_certain | set(seeds)
        inputs = set(comp.input_variables())
        unbound = sorted(inputs - readable)
        if unbound:
            self.fail(
                "purity",
                "reads-bound",
                f"compensation reads {unbound}, neither certainly bound in "
                f"the frame's namespace nor seeded",
                point=point_str,
                frame=frame_tag,
            )
        for local in sorted(inputs - set(unbound)):
            if local in seeds:
                continue  # seed inputs were checked in optimized naming
            opt_name = local if to_opt is None else to_opt.get(local)
            if opt_name is None:
                continue
            if (
                opt_name not in live_at_guard
                and opt_name not in params
                and opt_name not in self.kept
            ):
                self.fail(
                    "purity",
                    "keep-alive",
                    f"compensation reads {opt_name!r}, dead at the guard and "
                    f"missing from the version's K_avail set",
                    point=point_str,
                    frame=frame_tag,
                )

        # Completeness (i): the recorded live set covers the base tier's
        # recomputed liveness at the landing point — a narrowed recording
        # would silently drop live state during the transfer's final
        # restriction.
        actual_live = self._live_info(frame.function).live_in(frame.target)
        narrowed = sorted(actual_live - set(frame.live_at_target))
        if narrowed:
            self.fail(
                "completeness",
                "live-set",
                f"recorded live set at {frame.target} omits live base-tier "
                f"variable(s) {narrowed} of @{frame.function.name}",
                point=point_str,
                frame=frame_tag,
            )

        # Completeness (ii): definite assignment — everything the frame
        # declares live at the landing point is bound by the transfer:
        # renamed certain state, seeded parameters, the call destination
        # the runtime binds from the inner frame's return value, or a
        # compensation write.
        defined = frame_certain | set(seeds) | set(comp.defined_variables())
        if frame.dest is not None:
            defined.add(frame.dest)
        unassigned = sorted(set(frame.live_at_target) - defined)
        if unassigned:
            self.fail(
                "completeness",
                "definite-assignment",
                f"live variable(s) {unassigned} at {frame.target} of "
                f"@{frame.function.name} are never assigned by the transfer "
                f"(rename + seeds + compensation)",
                point=point_str,
                frame=frame_tag,
            )

    # ------------------------------------------------------------------ #
    # Packs: completeness + purity, per OSR mapping entry.
    # ------------------------------------------------------------------ #
    def check_mappings(self) -> None:
        forward = self.version.forward_mapping
        self._check_mapping_entries(
            forward,
            "forward",
            certain_of=self._certain_base,
            target_live=self.pair.opt_view.live_in,
            extra_kept=frozenset(),
        )
        backward = getattr(self.version, "backward", None)
        if backward is not None and len(backward):
            self._check_mapping_entries(
                backward,
                "backward",
                certain_of=self._certain_opt,
                target_live=self.pair.base_view.live_in,
                extra_kept=self.kept,
            )

    def _check_mapping_entries(self, mapping, label, *, certain_of, target_live, extra_kept):
        source_view = mapping.source_view
        source_params = self._base_params if label == "forward" else self._opt_params
        for source in self._domain(mapping):
            entry = mapping[source]
            comp = entry.compensation
            point_str = str(source)
            certain = certain_of(source)
            for dest, expr in comp.assignments:
                issue = _expr_problem(expr)
                if issue:
                    self.fail(
                        "purity",
                        "side-effect-free",
                        f"{label} compensation write to {dest!r} is impure: "
                        f"{issue}",
                        point=point_str,
                    )
            inputs = set(comp.input_variables())
            unbound = sorted(inputs - certain)
            if unbound:
                self.fail(
                    "purity",
                    "reads-bound",
                    f"{label} compensation reads {unbound}, not certainly "
                    f"bound at the OSR source",
                    point=point_str,
                )
            kept = frozenset(comp.keep_alive) | extra_kept
            source_live = source_view.live_in(source)
            dead = sorted(inputs - source_live - source_params - kept - set(unbound))
            if dead:
                self.fail(
                    "purity",
                    "keep-alive",
                    f"{label} compensation reads {dead}, dead at the OSR "
                    f"source and not kept alive",
                    point=point_str,
                )
            defined = certain | set(comp.defined_variables())
            unassigned = sorted(target_live(entry.target) - defined)
            if unassigned:
                self.fail(
                    "completeness",
                    "definite-assignment",
                    f"{label} mapping to {entry.target} leaves live "
                    f"variable(s) {unassigned} unassigned",
                    point=point_str,
                )

    # ------------------------------------------------------------------ #
    def report(self) -> VerifyReport:
        flagged = {v.point for v in self.violations if v.point is not None}
        status = {
            str(point): VIOLATED if str(point) in flagged else PROVED
            for point in self.guard_points
        }
        return VerifyReport(
            function=self.name,
            key=self.key_str,
            violations=tuple(self.violations),
            guard_status=status,
            checked_plans=len(self.version.plans),
            checked_frames=self.checked_frames,
            checked_mappings=self.checked_mappings,
        )


def verify_version(
    version: "CompiledVersion",
    *,
    key=None,
    function_name: Optional[str] = None,
) -> VerifyReport:
    """Statically prove a compiled version's deopt metadata sound.

    ``key`` is the :class:`~repro.vm.profile.VersionKey` the version is
    about to be published under (``None`` checks everything except
    dispatch totality); ``function_name`` overrides the reported name.
    Returns a :class:`~repro.analysis.soundness.obligations.VerifyReport`
    — raising on violations is the caller's policy decision
    (``verify_deopt=strict`` wraps the report in
    :class:`~repro.analysis.soundness.obligations.UnsoundVersionError`).
    """
    checker = _Checker(version, key, function_name)
    checker.check_structure()
    checker.check_plans()
    checker.check_mappings()
    return checker.report()
