"""Endangered-variable analysis for optimized-code debugging (Section 7).

A scalar user variable is *endangered* at a breakpoint when the register
that carries its source-level value in the unoptimized version
(``f_base``) is not guaranteed to hold that value in the optimized version
(``f_opt``) at the corresponding location — because the defining
instruction was deleted, moved or became dead.  In the framework's terms:
the binding register is not live at the optimized point, so the
live-variable-bisimulation guarantee does not apply to it.

``analyze_function`` inspects every optimized-code location whose
deoptimization landing point corresponds to a source-level location
(i.e. a possible breakpoint) and reports, per location, which user
variables are reported correctly and which are endangered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ...ir.debuginfo import DebugInfo
from ...ir.expr import Const, Expr, Var
from ...ir.function import ProgramPoint
from ...ir.instructions import Phi
from ..osr_trans import VersionPair

__all__ = ["BreakpointReport", "EndangeredAnalysis", "analyze_function"]


@dataclass
class BreakpointReport:
    """User-variable status at one optimized-code breakpoint location."""

    opt_point: ProgramPoint
    base_point: ProgramPoint
    source_line: Optional[int]
    #: variable name → binding expression in f_base at this location.
    bindings: Dict[str, Expr]
    #: variables whose value a debugger would report correctly.
    correct: List[str]
    #: variables whose reported value may be wrong (endangered).
    endangered: List[str]

    @property
    def has_endangered(self) -> bool:
        return bool(self.endangered)


@dataclass
class EndangeredAnalysis:
    """Per-function summary of the endangered-variable analysis."""

    function_name: str
    base_size: int
    optimized: bool
    reports: List[BreakpointReport] = field(default_factory=list)

    @property
    def breakpoint_count(self) -> int:
        return len(self.reports)

    @property
    def affected_points(self) -> List[BreakpointReport]:
        return [r for r in self.reports if r.has_endangered]

    @property
    def is_endangered(self) -> bool:
        return bool(self.affected_points)

    def fraction_affected(self) -> float:
        """Fraction of source-level locations with ≥1 endangered user variable."""
        if not self.reports:
            return 0.0
        return len(self.affected_points) / len(self.reports)

    def endangered_counts(self) -> List[int]:
        """Number of endangered variables at each affected point."""
        return [len(r.endangered) for r in self.affected_points]


def analyze_function(pair: VersionPair, debug: DebugInfo) -> EndangeredAnalysis:
    """Run the endangered-variable analysis on an optimized/unoptimized pair.

    For every point of ``f_opt`` whose deoptimization landing point in
    ``f_base`` corresponds to a source location, the user variables bound
    there are classified:

    * **correct** — the binding is a constant, or a register live at both
      the optimized point and the landing point (LVB ⇒ same value);
    * **endangered** — everything else: the register is dead, deleted or
      renamed at the optimized location, so the debugger cannot trust it.
    """
    analysis = EndangeredAnalysis(
        function_name=pair.base.name,
        base_size=pair.base.num_instructions(),
        optimized=bool(pair.mapper.actions),
    )

    seen_base_points = set()
    for opt_point in pair.optimized.program_points():
        # Phi nodes are not breakpoint locations (they have no source
        # counterpart and execute "on the edge"); skip them so liveness is
        # always compared after the phi run on both sides.
        if isinstance(pair.optimized.instruction_at(opt_point), Phi):
            continue
        base_point = pair.mapper.corresponding_original_point(opt_point)
        if base_point is None:
            continue
        base_inst = pair.base.instruction_at(base_point)
        if base_inst.source_line is None:
            continue
        # Report each source location once (multiple optimized points can
        # map to the same landing instruction).
        if base_point in seen_base_points:
            continue
        seen_base_points.add(base_point)

        bindings = debug.bindings_at(base_inst.uid)
        if not bindings:
            continue

        opt_live = pair.opt_view.live_in(opt_point)
        base_live = pair.base_view.live_in(base_point)

        correct: List[str] = []
        endangered: List[str] = []
        for var_name, value in sorted(bindings.items()):
            if isinstance(value, Const):
                correct.append(var_name)
                continue
            # A register-carried variable is endangered when the register
            # is still live at the landing point in f_base (the source
            # level expects it) but optimization killed it at the
            # breakpoint in f_opt.  Registers dead in *both* versions are
            # not an optimization-induced problem (an unoptimized debugger
            # would be equally unable to show them), and registers live in
            # f_opt hold the correct value by live-variable bisimilarity.
            from ...ir.expr import free_vars

            registers = (
                [value.name] if isinstance(value, Var) else sorted(free_vars(value))
            )
            if all(reg in opt_live or reg not in base_live for reg in registers):
                correct.append(var_name)
            else:
                endangered.append(var_name)

        analysis.reports.append(
            BreakpointReport(
                opt_point=opt_point,
                base_point=base_point,
                source_line=base_inst.source_line,
                bindings=bindings,
                correct=correct,
                endangered=endangered,
            )
        )
    return analysis
