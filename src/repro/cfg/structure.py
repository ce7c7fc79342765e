"""CFG structuring analysis for structured-control-flow code emission.

The closure compiler's emitter (:mod:`repro.vm.closure_compile`)
reconstructs idiomatic nested ``while``/``if`` Python from the block graph
— the loop-reconstruction-and-extraction technique of Mosaner et al.
(arXiv 1909.08815).  This module provides the *analysis* side of that
reconstruction:

* :func:`is_reducible` — the classic reducibility test: a CFG is
  reducible iff deleting every back edge (an edge whose target dominates
  its source) leaves an acyclic graph.  Only reducible CFGs have a
  structured form; MiniC and the pass pipeline produce nothing else.

* :class:`PostDominators` — immediate postdominators over the reverse
  CFG (with a virtual exit joining every ``ret``/``abort`` block).  The
  immediate postdominator of a branch block is the *join* where its arms
  reconverge — exactly where the emitter closes an ``if``/``else``
  region and lowers the join block's phis to edge moves.

* :class:`StructureInfo` — everything the emitter consumes: the CFG,
  dominator tree, loop nest, postdominators, and each loop's *follow*
  (the block its ``break`` lands on, picked among the blocks its exit
  edges lead to; every other exit is emitted inline at its edge, so a
  loop may exit to any number of blocks).  Raises
  :class:`UnstructurableCFG` for an irreducible function.

* :func:`invariant_guard_plan` — per-loop unswitching plans: guards in a
  loop body whose condition is reconstructible from registers defined
  outside the loop.  The emitter duplicates such loops behind a single
  pre-check (classic guard unswitching): the fast copy drops the guards,
  the slow copy keeps every guard at its exact program point, so
  deoptimization state is bit-identical to the interpreter's whenever a
  guard actually fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..ir.expr import Expr, free_vars, substitute
from ..ir.function import Function, ProgramPoint
from ..ir.instructions import Assign, Guard
from .dominance import DominatorTree
from .graph import ControlFlowGraph, reachable_blocks, reverse_postorder
from .loops import LoopNest, NaturalLoop, find_loops

__all__ = [
    "VIRTUAL_EXIT",
    "UnstructurableCFG",
    "PostDominators",
    "is_reducible",
    "StructureInfo",
    "HoistableGuard",
    "invariant_guard_plan",
]

#: Virtual node joining every exit block in the reverse CFG.  A branch
#: whose arms never reconverge (one arm returns, the other continues)
#: has this as its immediate postdominator.
VIRTUAL_EXIT = "<exit>"


class UnstructurableCFG(Exception):
    """The function cannot be emitted as structured control flow.

    Raised by :class:`StructureInfo` for an irreducible CFG (reachable
    only from hand-written IR) and by the emitter for nesting deeper
    than Python compiles.  The compiled backend runs such a function on
    the reference interpreter.
    """


def is_reducible(cfg: ControlFlowGraph, domtree: DominatorTree) -> bool:
    """True iff every cycle of ``cfg`` is a natural loop.

    Standard test: classify an edge as a *back edge* when its target
    dominates its source; the CFG is reducible iff the graph minus its
    back edges is acyclic (every retreating edge is a back edge).
    """
    reachable = reachable_blocks(cfg)
    forward: Dict[str, List[str]] = {label: [] for label in reachable}
    indegree: Dict[str, int] = {label: 0 for label in reachable}
    for src, dst in cfg.edges():
        if src not in reachable or dst not in reachable:
            continue
        if domtree.dominates(dst, src):
            continue  # back edge: drop it
        forward[src].append(dst)
        indegree[dst] += 1
    # Kahn's algorithm: the remaining graph must topologically sort.
    ready = [label for label, count in indegree.items() if count == 0]
    seen = 0
    while ready:
        label = ready.pop()
        seen += 1
        for succ in forward[label]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    return seen == len(reachable)


class PostDominators:
    """Immediate postdominators of every block that can reach an exit.

    Computed with the Cooper–Harvey–Kennedy iteration over the reverse
    CFG, rooted at :data:`VIRTUAL_EXIT`.  Blocks that cannot reach any
    exit (bodies of infinite loops) have no postdominator and answer
    ``None``/``False``.
    """

    def __init__(self, cfg: ControlFlowGraph) -> None:
        reachable = reachable_blocks(cfg)
        exits = [label for label in sorted(reachable) if not cfg.succs(label)]
        # Reverse graph: successors of a node are its CFG predecessors;
        # the virtual exit's successors are the exit blocks.
        rsuccs: Dict[str, List[str]] = {VIRTUAL_EXIT: exits}
        rpreds: Dict[str, List[str]] = {VIRTUAL_EXIT: []}
        for label in reachable:
            rsuccs[label] = [p for p in cfg.preds(label) if p in reachable]
            rpreds[label] = [s for s in cfg.succs(label) if s in reachable]
        for label in exits:
            rpreds[label].append(VIRTUAL_EXIT)

        order = self._postorder(VIRTUAL_EXIT, rsuccs)  # of the reverse graph
        rpo = list(reversed(order))
        index = {label: i for i, label in enumerate(rpo)}

        ipdom: Dict[str, Optional[str]] = {label: None for label in rpo}
        ipdom[VIRTUAL_EXIT] = VIRTUAL_EXIT

        def intersect(a: str, b: str) -> str:
            while a != b:
                while index[a] > index[b]:
                    a = ipdom[a]  # type: ignore[assignment]
                while index[b] > index[a]:
                    b = ipdom[b]  # type: ignore[assignment]
            return a

        changed = True
        while changed:
            changed = False
            for label in rpo:
                if label == VIRTUAL_EXIT:
                    continue
                preds = [
                    p for p in rpreds[label] if p in index and ipdom.get(p) is not None
                ]
                if not preds:
                    continue
                new = preds[0]
                for pred in preds[1:]:
                    new = intersect(new, pred)
                if ipdom[label] != new:
                    ipdom[label] = new
                    changed = True

        #: Immediate postdominator of each block that reaches an exit;
        #: exit blocks map to :data:`VIRTUAL_EXIT`.
        self.ipdom: Dict[str, str] = {
            label: dom
            for label, dom in ipdom.items()
            if dom is not None and label != VIRTUAL_EXIT
        }

    @staticmethod
    def _postorder(root: str, succs: Dict[str, List[str]]) -> List[str]:
        visited = {root}
        order: List[str] = []
        stack: List[Tuple[str, List[str]]] = [(root, list(succs.get(root, ())))]
        while stack:
            label, children = stack[-1]
            advanced = False
            while children:
                child = children.pop(0)
                if child not in visited:
                    visited.add(child)
                    stack.append((child, list(succs.get(child, ()))))
                    advanced = True
                    break
            if not advanced:
                order.append(label)
                stack.pop()
        return order

    def immediate(self, label: str) -> Optional[str]:
        """The immediate postdominator, or ``None`` when no exit is reachable."""
        return self.ipdom.get(label)


class StructureInfo:
    """Everything the structured emitter needs to know about a function.

    Construction raises :class:`UnstructurableCFG` for an irreducible
    CFG: only natural loops have a ``while`` to open.
    """

    def __init__(self, function: Function) -> None:
        self.function = function
        self.cfg = ControlFlowGraph(function)
        self.domtree = DominatorTree(self.cfg)
        self.reachable = reachable_blocks(self.cfg)
        if not is_reducible(self.cfg, self.domtree):
            raise UnstructurableCFG(f"@{function.name}: irreducible control flow")
        self.postdoms = PostDominators(self.cfg)
        self.loops: LoopNest = find_loops(self.cfg, self.domtree)
        self._order: Optional[Dict[str, int]] = None
        #: The *follow* of each natural loop, keyed by header label: the
        #: block the emitted ``break`` lands on, emitted right after the
        #: ``while``.  ``None`` when no exit edge stays in the enclosing
        #: loop (every exit returns, or there is none).
        self.follows: Dict[str, Optional[str]] = {
            loop.header: self._follow(loop) for loop in self.loops
        }

    def _follow(self, loop: NaturalLoop) -> Optional[str]:
        """Pick the loop's follow among the blocks its exits lead to.

        Any choice is *correct* — the emitter spells an exit edge to
        some other block inline at the edge — so this picks for shape:
        the block the most exit tails run into (``break`` with a
        statement before it, several ``break`` s), then the longest
        tail (an early ``return`` stays a short inline tail, the rest of
        the function follows the loop unnested), then the earliest such
        block.  Only blocks of the enclosing loop's body qualify: an
        exit that leaves the enclosing loop too is not where *this*
        loop's ``break`` may land.
        """
        targets = sorted(
            {dst for _, dst in loop.exit_edges(self.cfg) if dst in self.reachable}
        )
        if len(targets) <= 1:
            return targets[0] if targets else None
        tails = [self._tail(target, loop) for target in targets]
        if self._order is None:
            order = reverse_postorder(self.cfg)
            self._order = {label: i for i, label in enumerate(order)}

        def rank(label: str) -> Tuple[int, int, int]:
            reaching = [tail for tail in tails if label in tail]
            return len(reaching), sum(map(len, reaching)), -self._order[label]

        return max(set().union(*tails), key=rank, default=None)

    def _tail(self, start: str, loop: NaturalLoop) -> Set[str]:
        """Blocks an exit of ``loop`` to ``start`` can run into before it
        re-enters the loop or leaves (or re-iterates) the enclosing one."""
        parent = loop.parent
        seen: Set[str] = set()
        stack = [start]
        while stack:
            label = stack.pop()
            if label in seen or label in loop.body or label not in self.reachable:
                continue
            if parent is not None and (
                label not in parent.body or label == parent.header
            ):
                continue
            seen.add(label)
            stack.extend(self.cfg.succs(label))
        return seen


# ---------------------------------------------------------------------- #
# Loop-invariant guard analysis (feeds guard unswitching).
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class HoistableGuard:
    """One guard whose condition is loop-invariant.

    ``precheck`` is the guard condition with every in-loop definition
    recursively substituted away, so it reads only registers defined
    outside the loop; ``undef_checks`` are the registers the emitted
    pre-check must test for definedness first (their defining block does
    not dominate the loop header, so they may still be unbound when the
    loop is entered — the pre-check then conservatively picks the slow
    copy instead of observing an unbound register).
    """

    point: ProgramPoint
    precheck: Expr
    undef_checks: Tuple[str, ...]


#: Bound on recursive substitution when reconstructing an invariant
#: condition from in-loop definitions (keeps pre-check expressions small).
_MAX_SUBST_DEPTH = 8


def invariant_guard_plan(
    function: Function, info: StructureInfo
) -> Dict[str, List[HoistableGuard]]:
    """Unswitching plan: hoistable guards per loop-header label.

    A guard is attributed to the *outermost* loop it is invariant with
    respect to, so nested unswitching never duplicates the same guard
    twice.
    """
    defs: Dict[str, List[Tuple[str, int, object]]] = {}
    for block in function.iter_blocks():
        for index, inst in enumerate(block.instructions):
            for name in inst.defs():
                defs.setdefault(name, []).append((block.label, index, inst))

    params = set(function.params)
    plan: Dict[str, List[HoistableGuard]] = {}

    for block in function.iter_blocks():
        if block.label not in info.reachable:
            continue
        loops_in = [
            loop for loop in info.loops if block.label in loop.body
        ]
        if not loops_in:
            continue
        # Outermost first (largest body).
        loops_in.sort(key=lambda loop: -len(loop.body))
        for index, inst in enumerate(block.instructions):
            if not isinstance(inst, Guard):
                continue
            for loop in loops_in:
                rebuilt = _rebuild_invariant(
                    inst.cond, loop, defs, params, info.domtree,
                    (block.label, index),
                )
                if rebuilt is None:
                    continue
                precheck, checks = rebuilt
                plan.setdefault(loop.header, []).append(
                    HoistableGuard(
                        ProgramPoint(block.label, index),
                        precheck,
                        tuple(sorted(checks)),
                    )
                )
                break  # attributed to the outermost eligible loop
    return plan


def _rebuild_invariant(
    cond: Expr,
    loop: NaturalLoop,
    defs: Dict[str, List[Tuple[str, int, object]]],
    params: Set[str],
    domtree: DominatorTree,
    guard_site: Tuple[str, int],
    depth: int = 0,
) -> Optional[Tuple[Expr, Set[str]]]:
    """Rewrite ``cond`` to read only registers defined outside ``loop``.

    Returns ``(expression, registers needing a definedness pre-test)``,
    or ``None`` when the condition depends on a phi, load, call or
    alloca inside the loop (not reconstructible invariantly).
    """
    if depth > _MAX_SUBST_DEPTH:
        return None
    mapping: Dict[str, Expr] = {}
    checks: Set[str] = set()
    guard_block, guard_index = guard_site
    for name in sorted(free_vars(cond)):
        if name in params:
            continue  # always bound on entry, nothing to substitute
        sites = defs.get(name, [])
        if len(sites) != 1:
            return None  # non-SSA or undefined: bail out
        def_block, def_index, def_inst = sites[0]
        if def_block not in loop.body:
            # Defined outside the loop; test definedness unless the
            # defining block is guaranteed to have run first.
            if not domtree.strictly_dominates(def_block, loop.header):
                checks.add(name)
            continue
        if not isinstance(def_inst, Assign):
            return None  # phi/load/call inside the loop: variant
        # The substituted definition must always have executed by the
        # time the guard runs (else the guard would observe an unbound
        # register and the interpreter would raise, which a hoisted
        # pre-check that *computes* the value could never replicate).
        if def_block == guard_block:
            if def_index >= guard_index:
                return None
        elif not domtree.dominates(def_block, guard_block):
            return None
        inner = _rebuild_invariant(
            def_inst.expr, loop, defs, params, domtree, guard_site, depth + 1
        )
        if inner is None:
            return None
        mapping[name] = inner[0]
        checks |= inner[1]
    if not mapping:
        return cond, checks
    return substitute(cond, mapping), checks
