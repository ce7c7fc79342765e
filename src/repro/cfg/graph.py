"""Control-flow graph view over an IR function.

The :class:`ControlFlowGraph` is a lightweight, *recomputed-on-demand*
view: passes mutate the underlying :class:`~repro.ir.function.Function`
and construct a fresh CFG when they need up-to-date structure.  Besides
block-level edges it also exposes the *point graph* — the graph whose
nodes are individual program points — which is what the CTL model checker
and the paper's per-point OSR feasibility analysis operate on.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, List, Set, Tuple

from ..ir.function import Function, ProgramPoint
from ..ir.instructions import Terminator

__all__ = ["ControlFlowGraph", "reachable_blocks", "postorder", "reverse_postorder"]


class ControlFlowGraph:
    """Block-level and point-level control-flow structure of a function."""

    def __init__(self, function: Function) -> None:
        self.function = function
        self.successors: Dict[str, Tuple[str, ...]] = {}
        self.predecessors: Dict[str, List[str]] = {}
        self._build()

    def _build(self) -> None:
        labels = self.function.block_labels()
        self.predecessors = {label: [] for label in labels}
        for block in self.function.iter_blocks():
            succs = tuple(s for s in block.successors() if s in self.function.blocks)
            self.successors[block.label] = succs
            for succ in succs:
                self.predecessors[succ].append(block.label)

    # ------------------------------------------------------------------ #
    # Block-level queries.
    # ------------------------------------------------------------------ #
    @property
    def entry(self) -> str:
        return self.function.entry_label

    def succs(self, label: str) -> Tuple[str, ...]:
        return self.successors.get(label, ())

    def preds(self, label: str) -> List[str]:
        return self.predecessors.get(label, [])

    def blocks(self) -> List[str]:
        return self.function.block_labels()

    def edges(self) -> Iterator[Tuple[str, str]]:
        for label, succs in self.successors.items():
            for succ in succs:
                yield label, succ

    def exit_blocks(self) -> List[str]:
        """Blocks with no successors (return / abort blocks)."""
        return [label for label in self.blocks() if not self.succs(label)]

    # ------------------------------------------------------------------ #
    # Point-level queries (the granularity of OSR feasibility).
    # ------------------------------------------------------------------ #
    def point_successors(self, point: ProgramPoint) -> List[ProgramPoint]:
        """Program points that may execute immediately after ``point``."""
        block = self.function.blocks[point.block]
        inst = block.instructions[point.index]
        if isinstance(inst, Terminator):
            return [ProgramPoint(succ, 0) for succ in self.succs(point.block)]
        return [ProgramPoint(point.block, point.index + 1)]

    # ------------------------------------------------------------------ #
    # Traversals.
    # ------------------------------------------------------------------ #
    def reachable(self) -> Set[str]:
        return reachable_blocks(self)

    def __repr__(self) -> str:
        return (
            f"<ControlFlowGraph @{self.function.name}: "
            f"{len(self.blocks())} blocks, {sum(1 for _ in self.edges())} edges>"
        )


def reachable_blocks(cfg: ControlFlowGraph) -> Set[str]:
    """Labels of blocks reachable from the entry."""
    seen: Set[str] = set()
    worklist = deque([cfg.entry])
    while worklist:
        label = worklist.popleft()
        if label in seen:
            continue
        seen.add(label)
        worklist.extend(cfg.succs(label))
    return seen


def postorder(cfg: ControlFlowGraph) -> List[str]:
    """Blocks in DFS postorder starting from the entry (reachable only)."""
    visited: Set[str] = set()
    order: List[str] = []

    # Iterative DFS to avoid recursion limits on long chains of blocks.
    stack: List[Tuple[str, Iterator[str]]] = [(cfg.entry, iter(cfg.succs(cfg.entry)))]
    visited.add(cfg.entry)
    while stack:
        label, children = stack[-1]
        advanced = False
        for child in children:
            if child not in visited:
                visited.add(child)
                stack.append((child, iter(cfg.succs(child))))
                advanced = True
                break
        if not advanced:
            order.append(label)
            stack.pop()
    return order


def reverse_postorder(cfg: ControlFlowGraph) -> List[str]:
    """Blocks in reverse postorder — the canonical forward-dataflow order."""
    return list(reversed(postorder(cfg)))
