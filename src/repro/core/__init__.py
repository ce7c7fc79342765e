"""The OSR framework: the paper's primary contribution, at the IR level.

* OSR mappings with compensation code (Definition 3.1) and their
  composition (Theorem 3.4) — :mod:`~repro.core.mapping`;
* Algorithm 1 (``reconstruct``) with the ``live`` and ``avail`` strategies
  — :mod:`~repro.core.reconstruct`, written against the
  :class:`~repro.core.views.ProgramView` queries;
* the ``OSR_trans`` driver for IR functions — :mod:`~repro.core.osr_trans`;
* primitive-action tracking and cross-version correspondence
  — :mod:`~repro.core.codemapper`;
* multi-frame deoptimization plans — :mod:`~repro.core.frames`;
* OSRKit-style continuation functions and transition execution
  — :mod:`~repro.core.osrkit`.

Dependency direction: ``core`` imports :mod:`repro.ir`,
:mod:`repro.analysis` and :mod:`repro.passes` and nothing of the
paper's formal development; :mod:`repro.formal`, :mod:`repro.ctl` and
:mod:`repro.rewrite` import ``core`` (``FormalView`` implements
``ProgramView``, ``osr_trans_formal`` calls Algorithm 1), never the
reverse.  Two submodules are not loaded by this package because no
engine needs them: the executable transition checks of
:mod:`repro.core.bisimulation` (tests and tables) and the Section 7
debugging analyses of :mod:`repro.core.debug` (:mod:`repro.harness`).
Every name re-exported here is defined under ``core/``.
"""

from .compensation import CompensationCode
from .views import FunctionView, ProgramView
from .reconstruct import (
    CannotReconstruct,
    OSRPointClass,
    ReconstructionMode,
    build_compensation,
    classify_point,
    reconstruct_variable,
)
from .mapping import OSRMapping, OSRMappingEntry
from .codemapper import (
    ActionKind,
    CodeMapper,
    InlinedFrame,
    NullCodeMapper,
    PrimitiveAction,
    clone_for_optimization,
)
from .frames import (
    DeoptPlan,
    FramePlan,
    FrameState,
    RenamedView,
    build_deopt_plans,
)
from .osr_trans import OSRTransDriver, PointReport, VersionPair
from .osrkit import (
    ContinuationInfo,
    make_continuation,
    perform_osr,
    split_block,
)

__all__ = [
    "CompensationCode",
    "ProgramView", "FunctionView",
    "ReconstructionMode", "CannotReconstruct", "OSRPointClass",
    "build_compensation", "classify_point", "reconstruct_variable",
    "OSRMapping", "OSRMappingEntry",
    "ActionKind", "PrimitiveAction", "CodeMapper", "NullCodeMapper",
    "InlinedFrame", "clone_for_optimization",
    "DeoptPlan", "FramePlan", "FrameState", "RenamedView", "build_deopt_plans",
    "OSRTransDriver", "VersionPair", "PointReport",
    "split_block", "make_continuation", "ContinuationInfo", "perform_osr",
]
