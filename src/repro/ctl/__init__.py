"""CTL formulas, model checking and the Figure 3 predicates."""

from .formula import (
    AU,
    AX,
    And,
    Atom,
    BackAU,
    BackAX,
    BackEU,
    BackEX,
    EU,
    EX,
    FALSE,
    FalseFormula,
    Formula,
    Implies,
    Not,
    Or,
    TRUE,
    TrueFormula,
)
from .checker import (
    FormalProgramGraph,
    ModelChecker,
)
from .predicates import (
    formal_defines,
    formal_lives,
    formal_point_is,
    formal_stmt,
    formal_trans,
    formal_uses,
)

__all__ = [
    "Formula", "Atom", "TrueFormula", "FalseFormula", "TRUE", "FALSE",
    "Not", "And", "Or", "Implies",
    "AX", "EX", "AU", "EU", "BackAX", "BackEX", "BackAU", "BackEU",
    "FormalProgramGraph", "ModelChecker",
    "formal_defines", "formal_uses", "formal_stmt", "formal_point_is",
    "formal_trans", "formal_lives",
]
