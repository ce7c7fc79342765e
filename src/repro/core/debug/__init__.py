"""Optimized-code debugging support (Section 7).

Loaded only by :mod:`repro.harness`, the tests and the examples; the
``DebugInfo`` metadata it reads is written by the frontend and lives in
:mod:`repro.ir.debuginfo`.
"""

from .endangered import BreakpointReport, EndangeredAnalysis, analyze_function
from .recovery import RecoveryReport, measure_recoverability

__all__ = [
    "BreakpointReport",
    "EndangeredAnalysis",
    "analyze_function",
    "RecoveryReport",
    "measure_recoverability",
]
