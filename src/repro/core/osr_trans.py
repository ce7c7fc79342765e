"""OSR_trans at the IR level: forward and backward OSR mappings, built automatically.

:class:`OSRTransDriver` is the embodiment of Section 5.4: it clones a
function, runs an OSR-aware pass pipeline on the clone while a
:class:`~repro.core.codemapper.CodeMapper` records primitive actions,
derives the point correspondence from the recorded actions, and builds
per-point compensation code with ``reconstruct``.  Its output (the
per-point feasibility classes and compensation sizes) is what Figures
7–8 and Table 3 aggregate.

The literal ``OSR_trans(p, T)`` of Section 4.2 over the formal language
is :func:`repro.rewrite.osr_trans_formal`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..ir.function import Function, ProgramPoint
from ..ir.instructions import Guard
from .codemapper import CodeMapper, clone_for_optimization
from .compensation import CompensationCode
from .mapping import OSRMapping
from .reconstruct import (
    CannotReconstruct,
    OSRPointClass,
    ReconstructionMode,
    build_compensation,
    classify_point,
)
from .views import FunctionView

__all__ = ["PointReport", "OSRTransDriver", "VersionPair"]


@dataclass
class PointReport:
    """Feasibility of one OSR source point (one bar segment of Figure 7/8)."""

    source: ProgramPoint
    target: Optional[ProgramPoint]
    point_class: OSRPointClass
    compensation: Optional[CompensationCode]

    @property
    def feasible(self) -> bool:
        return self.point_class is not OSRPointClass.UNSUPPORTED and self.target is not None


@dataclass
class VersionPair:
    """A function, its optimized clone, and everything needed to hop between them."""

    base: Function
    optimized: Function
    mapper: CodeMapper
    base_view: FunctionView
    opt_view: FunctionView

    def report(self, *, deopt: bool = False) -> List[PointReport]:
        """Per-point OSR feasibility in the chosen direction.

        ``deopt=False`` analyses optimizing transitions (f_base → f_opt,
        Figure 7); ``deopt=True`` analyses deoptimizing transitions
        (f_opt → f_base, Figure 8).
        """
        reports: List[PointReport] = []
        if not deopt:
            src_fn, src_view, dst_view = self.base, self.base_view, self.opt_view
            correspond = self.mapper.corresponding_optimized_point
        else:
            src_fn, src_view, dst_view = self.optimized, self.opt_view, self.base_view
            correspond = self.mapper.corresponding_original_point

        for point in src_fn.program_points():
            target = correspond(point)
            if target is None:
                reports.append(PointReport(point, None, OSRPointClass.UNSUPPORTED, None))
                continue
            point_class, code = classify_point(src_view, point, dst_view, target)
            reports.append(PointReport(point, target, point_class, code))
        return reports

    def guard_points(self) -> List[ProgramPoint]:
        """Program points of every ``guard`` in the optimized version."""
        return [
            point
            for point, inst in self.optimized.instructions()
            if isinstance(inst, Guard)
        ]

    def inlined_frames(self):
        """The per-site inline records the pipeline left on the CodeMapper."""
        return list(getattr(self.mapper, "inlined_frames", []))

    def deopt_plans(self, mode: ReconstructionMode = ReconstructionMode.AVAIL):
        """Multi-frame deoptimization plans for every guard (see core.frames).

        Returns ``(plans, uncovered)``.  Speculation is only sound when
        *every* guard can deoptimize, so callers must treat a non-empty
        uncovered list as "do not install this speculative version".
        Also stamps the optimized function's ``"inline_paths"`` metadata.
        """
        from .frames import build_deopt_plans

        return build_deopt_plans(self, mode)

    def forward_mapping(self, mode: ReconstructionMode = ReconstructionMode.AVAIL) -> OSRMapping:
        """A populated OSR mapping f_base → f_opt under the given strategy."""
        return self._mapping(deopt=False, mode=mode)

    def backward_mapping(self, mode: ReconstructionMode = ReconstructionMode.AVAIL) -> OSRMapping:
        """A populated OSR mapping f_opt → f_base under the given strategy."""
        return self._mapping(deopt=True, mode=mode)

    def _mapping(self, *, deopt: bool, mode: ReconstructionMode) -> OSRMapping:
        if not deopt:
            src_view, dst_view = self.base_view, self.opt_view
            src_fn = self.base
            correspond = self.mapper.corresponding_optimized_point
            name = "fbase→fopt"
        else:
            src_view, dst_view = self.opt_view, self.base_view
            src_fn = self.optimized
            correspond = self.mapper.corresponding_original_point
            name = "fopt→fbase"
        mapping = OSRMapping(src_view, dst_view, name=name)
        for point in src_fn.program_points():
            target = correspond(point)
            if target is None:
                continue
            try:
                code = build_compensation(src_view, point, dst_view, target, mode=mode)
            except CannotReconstruct:
                continue
            mapping.add(point, target, code)
        return mapping


class OSRTransDriver:
    """Clone-optimize-and-map driver for IR functions (the paper's ``apply``)."""

    def __init__(self, passes: Sequence) -> None:
        from ..passes.base import PassManager

        self.passes = list(passes)
        self._manager = PassManager(self.passes)

    def run(self, function: Function, *, suffix: str = ".opt") -> VersionPair:
        """Optimize a clone of ``function`` and build the version pair.

        The original function is left untouched (it is the deoptimization
        target); the clone is optimized in place while the CodeMapper
        records the primitive actions of every pass.
        """
        optimized, mapper = clone_for_optimization(function, suffix)
        self._manager.run(optimized, mapper)
        return VersionPair(
            base=function,
            optimized=optimized,
            mapper=mapper,
            base_view=FunctionView(function),
            opt_view=FunctionView(optimized),
        )
