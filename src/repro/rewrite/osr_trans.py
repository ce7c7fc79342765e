"""``OSR_trans(p, T)`` of Section 4.2: apply rules, then Algorithm 1.

Applies LVE rewrite rules to a formal program and builds forward and
backward OSR mappings with the identity program-point mapping
(Theorem 4.6).  The IR-level counterpart, which derives the point
correspondence from recorded primitive actions instead, is
:class:`repro.core.osr_trans.OSRTransDriver`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..core.mapping import OSRMapping
from ..core.reconstruct import CannotReconstruct, ReconstructionMode, build_compensation
from ..formal.program import FormalProgram
from ..formal.views import FormalView
from .engine import TransformationResult, apply_rules
from .rule import RewriteRule

__all__ = ["FormalOSRTransResult", "osr_trans_formal"]


@dataclass
class FormalOSRTransResult:
    """Output of ``OSR_trans``: the transformed program plus both mappings."""

    original: FormalProgram
    transformed: FormalProgram
    forward: OSRMapping
    backward: OSRMapping
    transformation: TransformationResult


def osr_trans_formal(
    program: FormalProgram,
    rules: Sequence[RewriteRule],
    *,
    mode: ReconstructionMode = ReconstructionMode.LIVE,
) -> FormalOSRTransResult:
    """``OSR_trans(p, T) → (p', M_pp', M_p'p)`` for in-place LVE rules.

    The program-point mapping between ``p`` and ``p' = ⌈T⌉(p)`` is the
    identity (the rules replace instructions in place), so the mapping is
    built by invoking Algorithm 1 at every point; points where
    reconstruction fails are simply left out of the (partial) mapping.
    """
    transformation = apply_rules(program, rules)
    transformed = transformation.transformed

    source_view = FormalView(program)
    target_view = FormalView(transformed)

    forward = OSRMapping(source_view, target_view, name="forward")
    backward = OSRMapping(target_view, source_view, name="backward")

    for point in program.points():
        if point == 1:
            # Point 1 is the `in` boundary: execution has not started yet,
            # so it is not a meaningful OSR location (and its semantics
            # checks every declared input, including dead ones).
            continue
        try:
            code = build_compensation(source_view, point, target_view, point, mode=mode)
            forward.add(point, point, code)
        except CannotReconstruct:
            pass
        try:
            code = build_compensation(target_view, point, source_view, point, mode=mode)
            backward.add(point, point, code)
        except CannotReconstruct:
            pass

    return FormalOSRTransResult(program, transformed, forward, backward, transformation)
