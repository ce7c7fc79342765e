"""Pass infrastructure: the base class and the pass manager.

Passes mutate a :class:`~repro.ir.function.Function` in place and report
every IR manipulation to a CodeMapper (Section 5.1), exactly as the
paper's edited LLVM passes do.  A pass returns ``True`` when it changed
the function; the manager reports that per pass.

Each pass also exposes rough self-description metadata (``loc`` — the
size of its implementation — and ``tracked_action_kinds``), which the
Table 1 harness reports as the analogue of the paper's "edits performed to
original LLVM passes".
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple, Union

from ..core.codemapper import CodeMapper, NullCodeMapper
from ..ir.function import Function

__all__ = ["Pass", "PassManager", "PipelineResult"]

MapperLike = Union[CodeMapper, NullCodeMapper]


class Pass:
    """Base class for OSR-aware optimization passes."""

    #: Short name used in pipelines, tables and logs (e.g. "CSE").
    name: str = "pass"
    #: Which primitive actions this pass can emit (Table 1's last row).
    tracked_action_kinds: Tuple[str, ...] = ()

    def run(self, function: Function, mapper: Optional[MapperLike] = None) -> bool:
        """Transform ``function`` in place; return True when anything changed."""
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

    def run(self, function: Function, mapper: Optional[MapperLike] = None) -> PipelineResult:
        mapper = mapper if mapper is not None else NullCodeMapper()
        per_pass: Dict[str, bool] = {p.name: False for p in self.passes}
        for pass_ in self.passes:
            changed = pass_.run(function, mapper)
            per_pass[pass_.name] = per_pass[pass_.name] or changed
        return PipelineResult(function, any(per_pass.values()), per_pass)

    def __repr__(self) -> str:
        return f"<PassManager [{', '.join(p.name for p in self.passes)}]>"
