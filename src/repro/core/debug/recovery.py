"""Recovering endangered variables with ``reconstruct`` (Section 7.2/7.4).

For every endangered user variable at a breakpoint, try to rebuild its
source-level value from the state of the optimized code, using the same
Algorithm 1 machinery that powers OSR compensation code:

* the **live** strategy may only read registers live at the breakpoint in
  the optimized code (what a stock debugger can see);
* the **avail** strategy may additionally read values that have been
  computed but are no longer live — a debugger realizes this with
  invisible breakpoints that spill such values before they are clobbered,
  and the set of values it must preserve is the *keep set* reported in
  Table 5.

``measure_recoverability`` produces the per-function average
recoverability ratio that Figure 9 aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from ...ir.debuginfo import DebugInfo
from ...ir.expr import Var, free_vars
from ..osr_trans import VersionPair
from ..reconstruct import (
    CannotReconstruct,
    ReconstructionMode,
    reconstruct_variable,
)
from .endangered import BreakpointReport, EndangeredAnalysis, analyze_function

__all__ = ["RecoveryReport", "measure_recoverability"]


@dataclass
class RecoveryReport:
    """Recoverability of endangered user variables for one function."""

    function_name: str
    base_size: int
    endangered_analysis: EndangeredAnalysis
    #: per affected breakpoint: (endangered count, recovered with live,
    #: recovered with avail)
    per_point: List[Tuple[int, int, int]] = field(default_factory=list)
    #: values the avail strategy needs preserved (the paper's keep set).
    keep_set: Set[str] = field(default_factory=set)

    def average_ratio(self, mode: ReconstructionMode) -> float:
        """Average across affected points of recovered/endangered."""
        ratios: List[float] = []
        for endangered, live_ok, avail_ok in self.per_point:
            if endangered == 0:
                continue
            recovered = live_ok if mode is ReconstructionMode.LIVE else avail_ok
            ratios.append(recovered / endangered)
        return sum(ratios) / len(ratios) if ratios else 1.0

    @property
    def needs_keep_values(self) -> bool:
        return bool(self.keep_set)


def measure_recoverability(pair: VersionPair, debug: DebugInfo) -> RecoveryReport:
    """Evaluate how many endangered variables ``reconstruct`` can recover."""
    analysis = analyze_function(pair, debug)
    report = RecoveryReport(
        function_name=pair.base.name,
        base_size=pair.base.num_instructions(),
        endangered_analysis=analysis,
    )

    for breakpoint_report in analysis.affected_points:
        endangered = breakpoint_report.endangered
        live_recovered = 0
        avail_recovered = 0
        for var_name in endangered:
            binding = breakpoint_report.bindings[var_name]
            registers = (
                [binding.name]
                if isinstance(binding, Var)
                else sorted(free_vars(binding))
            )
            if _recoverable(pair, breakpoint_report, registers, ReconstructionMode.LIVE):
                live_recovered += 1
                avail_recovered += 1
                continue
            keep: Set[str] = set()
            if _recoverable(
                pair, breakpoint_report, registers, ReconstructionMode.AVAIL, keep
            ):
                avail_recovered += 1
                report.keep_set |= keep
        report.per_point.append((len(endangered), live_recovered, avail_recovered))
    return report


def _recoverable(
    pair: VersionPair,
    breakpoint_report: BreakpointReport,
    registers: List[str],
    mode: ReconstructionMode,
    keep_out: Optional[Set[str]] = None,
) -> bool:
    """Can every register of the binding be rebuilt from the optimized state?

    The reconstruction runs *from* the optimized code's state at the
    breakpoint *towards* the unoptimized version's landing point — the
    same direction as a deoptimizing OSR.
    """
    src_view = pair.opt_view
    dst_view = pair.base_view
    src_point = breakpoint_report.opt_point
    dst_point = breakpoint_report.base_point

    visited: Set[object] = set()
    keep: Set[str] = set()
    try:
        for register in registers:
            reconstruct_variable(
                register,
                src_view,
                src_point,
                dst_view,
                dst_point,
                dst_point,
                mode=mode,
                visited=visited,
                keep_alive=keep,
                single_assignment=src_view.single_assignment and dst_view.single_assignment,
            )
    except CannotReconstruct:
        return False
    if keep_out is not None:
        keep_out |= keep
    return True
