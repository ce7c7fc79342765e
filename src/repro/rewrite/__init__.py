"""Rewrite rules with CTL side conditions, the transformation engine and ``OSR_trans``."""

from .rule import RewriteRule, RuleApplication
from .rules import (
    FIGURE5_RULES,
    CodeHoisting,
    ConstantPropagation,
    DeadCodeElimination,
)
from .engine import TransformationResult, apply_rule, apply_rules
from .osr_trans import FormalOSRTransResult, osr_trans_formal

__all__ = [
    "RewriteRule",
    "RuleApplication",
    "ConstantPropagation",
    "DeadCodeElimination",
    "CodeHoisting",
    "FIGURE5_RULES",
    "TransformationResult",
    "apply_rule",
    "apply_rules",
    "FormalOSRTransResult",
    "osr_trans_formal",
]
