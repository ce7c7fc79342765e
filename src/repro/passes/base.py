"""Pass infrastructure: the base class and the pass manager.

Passes mutate a :class:`~repro.ir.function.Function` in place, and only
through a CodeMapper (Section 5.1): each primitive action is one mapper
call that performs the edit and records it, so the record the paper's
edited LLVM passes keep by hand is complete by construction.  A pass
returns ``True`` when it changed the function; the manager reports that
per pass.

Passes read SSA IR only.  The check runs once per editing session: a
standalone :meth:`Pass.run` or a whole :meth:`PassManager.run` raises
:class:`~repro.ir.verify.NotSSAError` on IR in which a register has two
definitions, and the passes themselves do not check again.

Each pass also exposes rough self-description metadata (``loc`` — the
size of its implementation — and ``tracked_action_kinds``), which the
Table 1 harness reports as the analogue of the paper's "edits performed to
original LLVM passes".
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from ..core.codemapper import NullCodeMapper
from ..ir.function import Function

__all__ = ["Pass", "PassManager", "PipelineResult"]


class Pass:
    """Base class for OSR-aware optimization passes."""

    #: Short name used in pipelines, tables and logs (e.g. "CSE").
    name: str = "pass"
    #: Which primitive actions this pass can emit (Table 1's last row).
    tracked_action_kinds: Tuple[str, ...] = ()

    def run(self, function: Function, mapper: Optional[NullCodeMapper] = None) -> bool:
        """Transform ``function`` in place; return True when anything changed.

        The edits go through ``mapper`` (a :class:`CodeMapper` records
        them); without one, through a fresh :class:`NullCodeMapper`.
        """
        mapper = mapper if mapper is not None else NullCodeMapper()
        with mapper.editing(function):
            return self.transform(function, mapper)

    def transform(self, function: Function, mapper: NullCodeMapper) -> bool:
        """The pass proper: edit ``function`` through ``mapper``."""
        raise NotImplementedError

    @classmethod
    def implementation_loc(cls) -> int:
        """Number of source lines of this pass's implementation module."""
        module = inspect.getmodule(cls)
        try:
            source = inspect.getsource(module) if module else inspect.getsource(cls)
        except OSError:  # pragma: no cover - source unavailable
            return 0
        return len(source.splitlines())

    def __repr__(self) -> str:
        return f"<Pass {self.name}>"


@dataclass
class PipelineResult:
    """Summary of one pass-manager run."""

    function: Function
    changed: bool
    per_pass_changed: Dict[str, bool] = field(default_factory=dict)


class PassManager:
    """Runs a sequence of passes once, in order."""

    def __init__(self, passes: Sequence[Pass]) -> None:
        self.passes = list(passes)

    def run(self, function: Function, mapper: Optional[NullCodeMapper] = None) -> PipelineResult:
        mapper = mapper if mapper is not None else NullCodeMapper()
        per_pass: Dict[str, bool] = {p.name: False for p in self.passes}
        # One editing session for the whole pipeline: the passes share
        # the mapper's use index, which is dropped when the last one ends.
        with mapper.editing(function):
            for pass_ in self.passes:
                changed = pass_.run(function, mapper)
                per_pass[pass_.name] = per_pass[pass_.name] or changed
        return PipelineResult(function, any(per_pass.values()), per_pass)

    def __repr__(self) -> str:
        return f"<PassManager [{', '.join(p.name for p in self.passes)}]>"
