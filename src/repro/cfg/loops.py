"""Natural-loop discovery and loop-nest information.

LICM, loop canonicalization and the LCSSA pass all need to know which
blocks form a loop, which block is the header, where the back edges come
from and which blocks are exits.  Loops are discovered from back edges
(edges whose target dominates their source), and bodies are collected by
the classic backwards walk from the latch.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .dominance import DominatorTree
from .graph import ControlFlowGraph

__all__ = ["NaturalLoop", "LoopNest", "find_loops"]


@dataclass
class NaturalLoop:
    """A single natural loop.

    Attributes
    ----------
    header:
        The loop header (the target of every back edge of this loop).
    body:
        All blocks in the loop, including the header.
    latches:
        Sources of back edges into the header.
    preheader:
        The unique out-of-loop predecessor of the header, when one exists
        (loop canonicalization creates one when it does not).
    """

    header: str
    body: Set[str] = field(default_factory=set)
    latches: Set[str] = field(default_factory=set)
    preheader: Optional[str] = None
    parent: Optional["NaturalLoop"] = None

    def exit_edges(self, cfg: ControlFlowGraph) -> List[Tuple[str, str]]:
        """Edges leaving the loop, as ``(inside_block, outside_block)`` pairs."""
        edges = []
        for label in sorted(self.body):
            for succ in cfg.succs(label):
                if succ not in self.body:
                    edges.append((label, succ))
        return edges

    def exit_blocks(self, cfg: ControlFlowGraph) -> List[str]:
        """Blocks outside the loop that are targets of exit edges."""
        return sorted({dst for _, dst in self.exit_edges(cfg)})

    def depth(self) -> int:
        """Nesting depth: 1 for a top-level loop, 2 for a loop inside it, ..."""
        depth = 1
        parent = self.parent
        while parent is not None:
            depth += 1
            parent = parent.parent
        return depth

    def __repr__(self) -> str:
        return (
            f"<NaturalLoop header={self.header} blocks={len(self.body)} "
            f"latches={sorted(self.latches)}>"
        )


class LoopNest:
    """All natural loops of a function, with nesting relationships."""

    def __init__(self, loops: List[NaturalLoop]) -> None:
        self.loops = loops
        self._by_header: Dict[str, NaturalLoop] = {loop.header: loop for loop in loops}

    def loop_with_header(self, header: str) -> Optional[NaturalLoop]:
        return self._by_header.get(header)

    def __iter__(self):
        return iter(self.loops)

    def __len__(self) -> int:
        return len(self.loops)

    def __repr__(self) -> str:
        return f"<LoopNest with {len(self.loops)} loops>"


def find_loops(cfg: ControlFlowGraph, domtree: Optional[DominatorTree] = None) -> LoopNest:
    """Discover all natural loops in ``cfg``.

    Back edges whose target is the same header are merged into a single
    loop, as is conventional.  Nesting (``parent`` pointers) is derived
    from body containment.
    """
    domtree = domtree or DominatorTree(cfg)

    # Collect back edges grouped by header.
    back_edges: Dict[str, Set[str]] = {}
    for src, dst in cfg.edges():
        if domtree.is_reachable(src) and domtree.dominates(dst, src):
            back_edges.setdefault(dst, set()).add(src)

    loops: List[NaturalLoop] = []
    for header, latches in sorted(back_edges.items()):
        body: Set[str] = {header}
        worklist = deque(latches)
        while worklist:
            label = worklist.popleft()
            if label in body:
                continue
            body.add(label)
            for pred in cfg.preds(label):
                if domtree.is_reachable(pred):
                    worklist.append(pred)
        loop = NaturalLoop(header=header, body=body, latches=set(latches))
        # A preheader is the unique predecessor of the header from outside
        # the loop that has the header as its only successor.
        outside_preds = [p for p in cfg.preds(header) if p not in body]
        if len(outside_preds) == 1 and cfg.succs(outside_preds[0]) == (header,):
            loop.preheader = outside_preds[0]
        loops.append(loop)

    # Establish nesting: the parent of a loop is the smallest strictly
    # larger loop containing its header.
    for loop in loops:
        candidates = [
            other
            for other in loops
            if other is not loop
            and loop.header in other.body
            and loop.body < other.body
        ]
        if candidates:
            loop.parent = min(candidates, key=lambda lp: len(lp.body))

    return LoopNest(loops)
