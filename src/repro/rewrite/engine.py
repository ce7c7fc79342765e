"""Transformation engine: apply rewrite rules and record what changed.

``TransformationResult`` is the formal-language analogue of the paper's
``apply(p, T) → (p', Δ_pp', Δ_p'p)`` step: it carries the transformed
program and the list of rule applications performed; the rules rewrite
in place, so both Δ point mappings are the identity (Theorem 4.6) and are
not materialized.  ``OSR_trans`` (:mod:`repro.rewrite.osr_trans`)
consumes it to build forward and backward OSR mappings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from ..formal.program import FormalProgram
from .rule import RewriteRule, RuleApplication

__all__ = ["TransformationResult", "apply_rule", "apply_rules"]


@dataclass
class TransformationResult:
    """Outcome of applying one or more in-place rewrite rules."""

    original: FormalProgram
    transformed: FormalProgram
    applications: List[RuleApplication] = field(default_factory=list)

    def changed_points(self) -> List[int]:
        """Program points whose instruction differs between the two versions."""
        return sorted(
            {
                point
                for application in self.applications
                for point in application.points()
            }
        )


def apply_rule(
    program: FormalProgram,
    rule: RewriteRule,
    *,
    exhaustive: bool = True,
    max_applications: int = 1000,
) -> TransformationResult:
    """Apply a single rule (once or exhaustively) to ``program``."""
    if exhaustive:
        transformed, applications = rule.apply_exhaustively(
            program, max_applications=max_applications
        )
    else:
        step = rule.apply_first(program)
        if step is None:
            transformed, applications = program, []
        else:
            transformed, application = step
            applications = [application]
    return TransformationResult(program, transformed, applications)


def apply_rules(
    program: FormalProgram,
    rules: Sequence[RewriteRule],
    *,
    max_rounds: int = 10,
    max_applications: int = 1000,
) -> TransformationResult:
    """Apply a sequence of rules round-robin until a fixed point.

    Each round runs every rule exhaustively in order; rounds repeat until
    no rule fires (or the round budget is exhausted).  This mirrors how a
    pass pipeline iterates a function to quiescence.
    """
    current = program
    all_applications: List[RuleApplication] = []
    for _ in range(max_rounds):
        fired = False
        for rule in rules:
            current_result = apply_rule(
                current, rule, exhaustive=True, max_applications=max_applications
            )
            if current_result.applications:
                fired = True
                all_applications.extend(current_result.applications)
                current = current_result.transformed
        if not fired:
            break
    return TransformationResult(program, current, all_applications)
