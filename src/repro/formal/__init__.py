"""The paper's formal framework (Sections 2–4) on the minimal language.

This package contains the linear-program language of Figure 1, its
big-step semantics (Figure 2), traces, the liveness / reaching-definition
analyses used by the formal development, program composition
(Definition 3.3) and the executable form of Theorem 3.2.

The rewrite rules of Figure 5 and ``OSR_trans`` live in
:mod:`repro.rewrite`.  Algorithm 1 and the OSR mappings live in
:mod:`repro.core` and are written against ``ProgramView``;
:class:`FormalView` is this language's view, and the empirical
bisimulation / mapping-soundness checks over it are in
:mod:`repro.formal.bisimulation`.  This package imports ``core``; nothing
an engine loads imports this package.
"""

from .program import (
    FAbort,
    FAssign,
    FCondGoto,
    FGoto,
    FIn,
    FOut,
    FSkip,
    FormalInstruction,
    FormalProgram,
    parse_formal_program,
)
from .semantics import (
    FormalAbort,
    FormalState,
    UndefinedSemantics,
    run_formal,
    semantically_equivalent_on,
    step,
    trace_formal,
)
from .analysis import (
    formal_live_variables,
    formal_reaching_definitions,
    formal_unique_reaching_definition,
)
from .compose import ComposeError, check_live_store_replacement, compose
from .views import FormalView
from .bisimulation import (
    check_live_variable_bisimulation,
    check_mapping_soundness,
    random_stores,
)
from .generator import random_formal_program

__all__ = [
    "FormalProgram",
    "FormalInstruction",
    "FAssign",
    "FGoto",
    "FCondGoto",
    "FSkip",
    "FAbort",
    "FIn",
    "FOut",
    "parse_formal_program",
    "run_formal",
    "trace_formal",
    "step",
    "FormalState",
    "FormalAbort",
    "UndefinedSemantics",
    "semantically_equivalent_on",
    "formal_live_variables",
    "formal_reaching_definitions",
    "formal_unique_reaching_definition",
    "compose",
    "ComposeError",
    "check_live_store_replacement",
    "FormalView",
    "check_live_variable_bisimulation",
    "check_mapping_soundness",
    "random_stores",
    "random_formal_program",
]
