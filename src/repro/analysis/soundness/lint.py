"""The IR lint pack behind ``repro lint``.

Three layers, all returning :class:`LintFinding` lists instead of
raising, so a lint run reports everything at once:

* :func:`lint_function` — structural findings on one IR function: the
  hardened :func:`repro.ir.verify.verify_function` problems, blocks
  unreachable from entry, and *dead guards* (constant conditions — an
  always-true guard is pure overhead, an always-false one deoptimizes on
  every execution);

* :func:`lint_version` — a compiled version: the full soundness
  verifier's obligation violations folded into findings, plus *unused
  keep-alives* (K_avail registers the runtime pins but no compensation
  or seed ever reads);

* :func:`lint_tier_payload` — a persisted tier payload straight from an
  artifact store, **without** needing the base function registered: the
  optimized IR is parsed and function-linted, guard/plan coverage is
  checked both ways at the point-string level, and the persisted
  forward/backward mappings are range-checked against the optimized
  body's program points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set

from ...ir.expr import evaluate, free_vars
from ...ir.function import Function
from ...ir.instructions import Guard
from ...ir.verify import VerificationError, is_ssa, verify_function
from .verifier import _reachable_blocks, verify_version

__all__ = [
    "LintFinding",
    "lint_function",
    "lint_version",
    "lint_tier_payload",
]


@dataclass(frozen=True)
class LintFinding:
    """One lint finding: a named rule, a location, and what it saw."""

    rule: str
    function: str
    detail: str
    point: Optional[str] = None


def lint_function(function: Function) -> List[LintFinding]:
    """Structural lint on one IR function (no version metadata needed)."""
    findings: List[LintFinding] = []
    try:
        verify_function(function, require_ssa=is_ssa(function))
    except VerificationError as exc:
        findings.extend(
            LintFinding("ir-verify", function.name, problem)
            for problem in exc.problems
        )

    reachable = _reachable_blocks(function)
    for block in function.iter_blocks():
        if block.label not in reachable:
            findings.append(
                LintFinding(
                    "unreachable-block",
                    function.name,
                    f"block {block.label!r} is unreachable from entry",
                )
            )

    for point, inst in function.instructions():
        if not isinstance(inst, Guard):
            continue
        if free_vars(inst.cond):
            continue
        try:
            value = evaluate(inst.cond, {})
        except ValueError:
            findings.append(
                LintFinding(
                    "dead-guard",
                    function.name,
                    "guard condition is undef (can never be evaluated)",
                    point=str(point),
                )
            )
            continue
        if value:
            findings.append(
                LintFinding(
                    "dead-guard",
                    function.name,
                    "guard condition is constant true: the guard can never "
                    "fail and is pure overhead",
                    point=str(point),
                )
            )
        else:
            findings.append(
                LintFinding(
                    "dead-guard",
                    function.name,
                    "guard condition is constant false: the guard "
                    "deoptimizes on every execution",
                    point=str(point),
                )
            )
    return findings


def lint_version(version, *, key=None, function_name=None) -> List[LintFinding]:
    """Lint one compiled version: verifier obligations + unused keep-alives."""
    report = verify_version(version, key=key, function_name=function_name)
    name = report.function
    findings = [
        LintFinding(violation.name, name, violation.detail, point=violation.point)
        for violation in report.violations
    ]

    # K_avail registers no deopt transition claims: every plan frame
    # records the optimized-naming registers its compensation and seeds
    # read (``FramePlan.keep_alive``), and a hydrated backward mapping's
    # compensations read optimized-naming values too — anything in the
    # version's K_avail set beyond that union is pinned across the
    # optimized body (by the runtime and both backends) for no
    # transition that could miss it: wasted register pressure, and on a
    # persisted artifact a sign the payload was widened by hand.
    used: Set[str] = set()
    for plan in version.plans.values():
        used |= plan.keep_alive()
    backward = getattr(version, "backward", None)
    if backward is not None:
        for source in backward.domain():
            entry = backward[source]
            used |= set(entry.compensation.input_variables())
            used |= set(entry.compensation.keep_alive)
    unused = sorted(set(version.keep_alive) - used)
    if unused:
        findings.append(
            LintFinding(
                "unused-keep-alive",
                name,
                f"keep-alive register(s) {unused} are never read by any "
                f"compensation or parameter seed",
            )
        )
    return findings


def lint_tier_payload(
    payload: Mapping[str, object], function_name: str
) -> List[LintFinding]:
    """Lint one persisted tier payload without hydrating it.

    Works straight off the store's wire format (see
    :mod:`repro.store.codec`): decoding a full version needs the
    registered base functions, but the optimized IR, the plan points and
    the mapping entries are all checkable as data — which is exactly
    what a corrupted or hand-edited artifact corrupts.
    """
    from ...ir.parser import parse_function

    findings: List[LintFinding] = []
    try:
        optimized = parse_function(str(payload["optimized_ir"]))
    except (KeyError, ValueError) as exc:
        return [
            LintFinding(
                "payload-decode",
                function_name,
                f"cannot parse persisted optimized IR: {exc}",
            )
        ]
    findings.extend(lint_function(optimized))

    guard_points = {
        str(point)
        for point, inst in optimized.instructions()
        if isinstance(inst, Guard)
    }
    plan_points = {str(plan.get("point")) for plan in payload.get("plans", [])}
    for point in sorted(guard_points - plan_points):
        findings.append(
            LintFinding(
                "guard-coverage",
                function_name,
                "persisted guard has no deoptimization plan",
                point=point,
            )
        )
    for point in sorted(plan_points - guard_points):
        findings.append(
            LintFinding(
                "guard-coverage",
                function_name,
                "persisted plan targets a point with no guard",
                point=point,
            )
        )

    # Mapping range validity against the one function the payload does
    # carry: forward entries land *in* the optimized body, backward
    # entries leave *from* it.  (The base-side points need the
    # registered base function and are checked by the full verifier.)
    sizes = {
        block.label: len(block.instructions)
        for block in optimized.iter_blocks()
    }

    def point_ok(text: str) -> bool:
        block, sep, index = text.rpartition(":")
        if not sep or not index.isdigit():
            return False
        return block in sizes and int(index) <= sizes[block]

    def entries(field: str):
        mapping = payload.get(field, {}) or {}
        return mapping.get("entries", [])

    for source, target, _comp in entries("forward"):
        if not point_ok(str(target)):
            findings.append(
                LintFinding(
                    "mapping-range",
                    function_name,
                    f"persisted forward entry {source} -> {target} targets "
                    f"no program point of the optimized body",
                    point=str(source),
                )
            )
    for source, _target, _comp in entries("backward"):
        if not point_ok(str(source)):
            findings.append(
                LintFinding(
                    "mapping-range",
                    function_name,
                    f"persisted backward entry leaves from {source}, not a "
                    f"program point of the optimized body",
                    point=str(source),
                )
            )
    return findings
