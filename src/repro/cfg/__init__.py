"""Control-flow graph utilities: CFG view, dominance, natural loops."""

from .graph import ControlFlowGraph, postorder, reachable_blocks, reverse_postorder
from .dominance import DominatorTree, dominance_frontiers
from .loops import LoopNest, NaturalLoop, find_loops
from .structure import (
    VIRTUAL_EXIT,
    HoistableGuard,
    PostDominators,
    StructureInfo,
    UnstructurableCFG,
    invariant_guard_plan,
    is_reducible,
)

__all__ = [
    "ControlFlowGraph",
    "postorder",
    "reverse_postorder",
    "reachable_blocks",
    "DominatorTree",
    "dominance_frontiers",
    "NaturalLoop",
    "LoopNest",
    "find_loops",
    "VIRTUAL_EXIT",
    "UnstructurableCFG",
    "PostDominators",
    "StructureInfo",
    "HoistableGuard",
    "invariant_guard_plan",
    "is_reducible",
]
