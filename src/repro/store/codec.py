"""JSON codecs for compiled-tier artifacts.

The design principle: **persist what execution needs, rebuild what
analysis can recompute.**  A live :class:`~repro.vm.runtime.CompiledVersion`
drags a deep derived structure behind it — a
:class:`~repro.core.codemapper.CodeMapper`, liveness/availability views,
expression trees — but what guard handling and OSR actually *consume* at
runtime is much smaller:

* the optimized function body — serialized as canonical IR text through
  the printer/parser round-trip (guard reasons included);
* per-guard :class:`~repro.core.frames.DeoptPlan` stacks — each frame
  referencing its base-tier function **by name** (resolved against the
  registered functions at hydration), plus compensation code and the
  inverse renamings as plain data;
* the forward and backward :class:`~repro.core.mapping.OSRMapping`
  entries, with compensation code; and
* the keep-alive set and speculative flag.

Expressions serialize as their canonical text (``str(expr)`` ⇄
:func:`~repro.ir.parser.parse_expr`); program points as ``block:index``
(:meth:`~repro.ir.function.ProgramPoint.parse`).  The liveness views a
hydrated pair needs are rebuilt from the parsed IR — they are pure
functions of the function body.  The pair's mapper is *not* persisted:
a hydrated version instead carries its backward mapping explicitly
(:attr:`~repro.vm.runtime.CompiledVersion.backward`) and an inlined-frame
count, the only two things the runtime would otherwise derive from it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..core.compensation import CompensationCode
from ..core.frames import DeoptPlan, FramePlan
from ..core.mapping import OSRMapping
from ..core.osr_trans import VersionPair
from ..core.views import FunctionView
from ..ir.function import Function, ProgramPoint
from ..ir.parser import parse_expr, parse_function
from ..ir.printer import print_function
from ..vm.runtime import CompiledVersion
from .artifacts import ArtifactDecodeError

__all__ = [
    "encode_compensation",
    "decode_compensation",
    "encode_mapping",
    "decode_mapping",
    "encode_deopt_plan",
    "decode_deopt_plan",
    "encode_version",
    "decode_version",
    "plan_function_names",
]

#: ``resolve(name) -> Function``: how decoders find the registered base
#: function a frame resumes into.
FunctionResolver = Callable[[str], Function]


# ---------------------------------------------------------------------- #
# Compensation code.
# ---------------------------------------------------------------------- #
def encode_compensation(code: CompensationCode) -> Dict[str, object]:
    return {
        "assign": [[dest, str(expr)] for dest, expr in code.assignments],
        "keep_alive": sorted(code.keep_alive),
    }


def decode_compensation(data: Mapping[str, object]) -> CompensationCode:
    return CompensationCode.of(
        ((dest, parse_expr(text)) for dest, text in data.get("assign", [])),
        data.get("keep_alive", ()),
    )


# ---------------------------------------------------------------------- #
# OSR mappings.
# ---------------------------------------------------------------------- #
def encode_mapping(mapping: OSRMapping) -> Dict[str, object]:
    return {
        "name": mapping.name,
        "entries": [
            [str(point), str(entry.target), encode_compensation(entry.compensation)]
            for point, entry in sorted(mapping.entries(), key=lambda kv: str(kv[0]))
        ],
    }


def decode_mapping(
    data: Mapping[str, object],
    source_view: FunctionView,
    target_view: FunctionView,
) -> OSRMapping:
    mapping = OSRMapping(source_view, target_view, name=str(data.get("name", "")))
    for source, target, compensation in data.get("entries", []):
        mapping.add(
            ProgramPoint.parse(source),
            ProgramPoint.parse(target),
            decode_compensation(compensation),
        )
    return mapping


# ---------------------------------------------------------------------- #
# Deoptimization plans.
# ---------------------------------------------------------------------- #
def _encode_frame(plan: FramePlan) -> Dict[str, object]:
    return {
        "function": plan.function.name,
        "target": str(plan.target),
        "compensation": encode_compensation(plan.compensation),
        "inverse_rename": plan.inverse_rename,
        "inverse_blocks": plan.inverse_blocks,
        "dest": plan.dest,
        "live_at_target": sorted(plan.live_at_target),
        "keep_alive": sorted(plan.keep_alive),
        "param_seeds": {
            param: str(expr) for param, expr in sorted(plan.param_seeds.items())
        },
    }


def _decode_frame(data: Mapping[str, object], resolve: FunctionResolver) -> FramePlan:
    inverse_rename = data.get("inverse_rename")
    inverse_blocks = data.get("inverse_blocks")
    return FramePlan(
        function=resolve(str(data["function"])),
        target=ProgramPoint.parse(str(data["target"])),
        compensation=decode_compensation(data["compensation"]),
        inverse_rename=dict(inverse_rename) if inverse_rename is not None else None,
        inverse_blocks=dict(inverse_blocks) if inverse_blocks is not None else None,
        dest=data.get("dest"),
        live_at_target=frozenset(data.get("live_at_target", ())),
        keep_alive=frozenset(data.get("keep_alive", ())),
        param_seeds={
            param: parse_expr(text)
            for param, text in dict(data.get("param_seeds", {})).items()
        },
    )


def encode_deopt_plan(plan: DeoptPlan) -> Dict[str, object]:
    return {
        "point": str(plan.point),
        "frames": [_encode_frame(frame) for frame in plan.frames],
    }


def decode_deopt_plan(
    data: Mapping[str, object], resolve: FunctionResolver
) -> DeoptPlan:
    return DeoptPlan(
        point=ProgramPoint.parse(str(data["point"])),
        frames=[_decode_frame(frame, resolve) for frame in data.get("frames", [])],
    )


# ---------------------------------------------------------------------- #
# Whole compiled versions.
# ---------------------------------------------------------------------- #
def encode_version(
    version: CompiledVersion, backward: OSRMapping
) -> Dict[str, object]:
    """Encode an installed version as a self-contained tier payload.

    ``backward`` is the full f_opt → f_base mapping of exactly this
    version — the caller obtains it from the runtime's lazy cache (or
    from :attr:`CompiledVersion.backward` for an already-hydrated
    version), because a persisted pair cannot rebuild it.
    """
    return {
        "optimized_ir": print_function(version.pair.optimized),
        "speculative": version.speculative,
        "keep_alive": sorted(version.keep_alive),
        "inlined_frames": version.inlined_frames,
        "plans": [
            encode_deopt_plan(plan)
            for _, plan in sorted(version.plans.items(), key=lambda kv: str(kv[0]))
        ],
        "forward": encode_mapping(version.forward_mapping),
        "backward": encode_mapping(backward),
    }


def decode_version(
    data: Mapping[str, object],
    base: Function,
    resolve: FunctionResolver,
) -> CompiledVersion:
    """Rebuild an installable :class:`CompiledVersion` from a tier payload.

    ``base`` must be the *registered* base function (the hydrated pair
    shares it so OSR lands in the body the engine actually runs), and
    ``resolve`` maps deopt-plan frame names to registered functions.
    The pair's program views answer liveness, availability and ``ud`` on
    demand from the parsed IR; the pair carries no mapper, so the payload's backward mapping and
    inlined-frame count ride on the version itself.
    """
    try:
        optimized = parse_function(str(data["optimized_ir"]))
    except (KeyError, ValueError) as exc:
        raise ArtifactDecodeError(f"cannot parse persisted optimized IR: {exc}") from exc
    base_view = FunctionView(base)
    opt_view = FunctionView(optimized)
    pair = VersionPair(
        base=base,
        optimized=optimized,
        mapper=None,
        base_view=base_view,
        opt_view=opt_view,
    )
    plans: Dict[ProgramPoint, DeoptPlan] = {}
    for encoded in data.get("plans", []):
        plan = decode_deopt_plan(encoded, resolve)
        plans[plan.point] = plan
    # Re-stamp the metadata build_deopt_plans() leaves on a locally built
    # version: both execution backends read "inline_paths" at guard-failure
    # time to attach the virtual stack to the GuardFailure they raise.
    paths: Dict[ProgramPoint, Tuple[str, ...]] = {
        point: plan.inline_path()
        for point, plan in plans.items()
        if plan.is_multiframe
    }
    optimized.metadata["inline_paths"] = paths
    # Install-time coverage contract: every guard must be able to
    # deoptimize.  A payload violating it was corrupted or hand-edited.
    uncovered = [point for point in pair.guard_points() if point not in plans]
    if uncovered:
        raise ArtifactDecodeError(
            f"persisted guard(s) at {[str(p) for p in uncovered]} have no "
            f"deoptimization plan; refusing to install @{base.name}"
        )
    return CompiledVersion(
        pair=pair,
        plans=plans,
        forward_mapping=decode_mapping(data.get("forward", {}), base_view, opt_view),
        keep_alive=frozenset(data.get("keep_alive", ())),
        speculative=bool(data.get("speculative", False)),
        backward=decode_mapping(data.get("backward", {}), opt_view, base_view),
        restored_frames=int(data.get("inlined_frames", 0)),
    )


def plan_function_names(version: CompiledVersion) -> List[str]:
    """Every function name a version's deopt plans resume into."""
    names = []
    for plan in version.plans.values():
        for frame in plan.frames:
            if frame.function.name not in names:
                names.append(frame.function.name)
    return names
