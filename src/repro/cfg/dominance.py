"""Dominator tree and dominance frontiers.

Implements the Cooper–Harvey–Kennedy iterative dominator algorithm, which
is simple, fast enough for our function sizes and easy to audit.  The
dominator tree drives SSA construction (phi placement via dominance
frontiers), the SSA verifier, LICM's safety checks and the unique-reaching
-definition queries used by ``reconstruct``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from .graph import ControlFlowGraph, reverse_postorder

__all__ = ["DominatorTree", "dominance_frontiers"]


class DominatorTree:
    """Immediate dominators, dominance queries and tree traversal."""

    def __init__(self, cfg: ControlFlowGraph) -> None:
        self.cfg = cfg
        self.entry = cfg.entry
        #: Maps each reachable block to its immediate dominator; the entry
        #: maps to itself.
        self.idom: Dict[str, str] = {}
        #: Children in the dominator tree.
        self.children: Dict[str, List[str]] = {}
        #: Depth of each block in the dominator tree (entry = 0); used for
        #: fast dominance queries.
        self.depth: Dict[str, int] = {}
        self._compute()

    # ------------------------------------------------------------------ #
    # Construction.
    # ------------------------------------------------------------------ #
    def _compute(self) -> None:
        order = reverse_postorder(self.cfg)
        index = {label: i for i, label in enumerate(order)}
        reachable = set(order)

        idom: Dict[str, Optional[str]] = {label: None for label in order}
        idom[self.entry] = self.entry

        def intersect(a: str, b: str) -> str:
            while a != b:
                while index[a] > index[b]:
                    a = idom[a]  # type: ignore[assignment]
                while index[b] > index[a]:
                    b = idom[b]  # type: ignore[assignment]
            return a

        changed = True
        while changed:
            changed = False
            for label in order:
                if label == self.entry:
                    continue
                preds = [p for p in self.cfg.preds(label) if p in reachable]
                processed = [p for p in preds if idom[p] is not None]
                if not processed:
                    continue
                new_idom = processed[0]
                for pred in processed[1:]:
                    new_idom = intersect(new_idom, pred)
                if idom[label] != new_idom:
                    idom[label] = new_idom
                    changed = True

        self.idom = {label: dom for label, dom in idom.items() if dom is not None}
        self.children = {label: [] for label in self.idom}
        for label, dom in self.idom.items():
            if label != self.entry:
                self.children[dom].append(label)
        for kids in self.children.values():
            kids.sort()

        self.depth = {self.entry: 0}
        stack = [self.entry]
        while stack:
            node = stack.pop()
            for child in self.children.get(node, []):
                self.depth[child] = self.depth[node] + 1
                stack.append(child)

    # ------------------------------------------------------------------ #
    # Queries.
    # ------------------------------------------------------------------ #
    def is_reachable(self, label: str) -> bool:
        return label in self.idom

    def immediate_dominator(self, label: str) -> Optional[str]:
        """The immediate dominator, or ``None`` for the entry / unreachable blocks."""
        if label == self.entry or label not in self.idom:
            return None
        return self.idom[label]

    def dominates(self, a: str, b: str) -> bool:
        """True iff block ``a`` dominates block ``b`` (reflexively)."""
        if a not in self.idom or b not in self.idom:
            return False
        while self.depth.get(b, 0) > self.depth.get(a, 0):
            b = self.idom[b]
        return a == b

    def strictly_dominates(self, a: str, b: str) -> bool:
        return a != b and self.dominates(a, b)

    def __repr__(self) -> str:
        return f"<DominatorTree over {len(self.idom)} blocks (entry {self.entry})>"


def dominance_frontiers(domtree: DominatorTree) -> Dict[str, Set[str]]:
    """Compute the dominance frontier of every reachable block.

    Uses the standard Cytron et al. formulation over immediate dominators:
    for every join block (≥2 predecessors), walk up from each predecessor
    to the block's immediate dominator, adding the join block to the
    frontier of every node passed.
    """
    cfg = domtree.cfg
    frontiers: Dict[str, Set[str]] = {label: set() for label in domtree.idom}
    for label in domtree.idom:
        preds = [p for p in cfg.preds(label) if domtree.is_reachable(p)]
        if len(preds) < 2:
            continue
        idom = domtree.immediate_dominator(label)
        for pred in preds:
            runner = pred
            while runner != idom and runner is not None:
                frontiers[runner].add(label)
                runner = domtree.immediate_dominator(runner)
                if runner is None:
                    break
    return frontiers
