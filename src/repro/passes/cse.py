"""Common subexpression elimination (early-CSE style).

Walks the dominator tree with a scoped value-numbering table:

* pure assignments whose canonicalized right-hand side was already
  computed by a dominating instruction are deleted, and their register is
  replaced everywhere by the earlier one (a ``replace`` + ``delete`` pair
  of primitive actions — compare the paper's Figure 6 excerpt; the
  mapper's use index rewrites just the users, so later instructions are
  already canonical when the walk reaches them);
* copies (``x = y``) are forwarded the same way;
* loads are value-numbered by address within a *memory generation*; any
  store or call starts a new generation, which conservatively kills all
  remembered loads (the "available load from right generation" check in
  Figure 6).

The pass requires SSA form (it relies on "the earlier definition dominates
every use of the later one").
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..cfg.dominance import DominatorTree
from ..cfg.graph import ControlFlowGraph
from ..core.codemapper import ActionKind, NullCodeMapper
from ..ir.expr import Const, Var, canonical_expr, free_vars
from ..ir.function import Function
from ..ir.instructions import Assign, Call, Load, Store
from .base import Pass

__all__ = ["CommonSubexpressionElimination"]


class _ScopedTable:
    """A stack of dictionaries following the dominator-tree recursion."""

    def __init__(self) -> None:
        self._scopes: List[Dict[object, object]] = [{}]

    def push(self) -> None:
        self._scopes.append({})

    def pop(self) -> None:
        self._scopes.pop()

    def lookup(self, key: object) -> Optional[object]:
        for scope in reversed(self._scopes):
            if key in scope:
                return scope[key]
        return None

    def insert(self, key: object, value: object) -> None:
        self._scopes[-1][key] = value


class CommonSubexpressionElimination(Pass):
    """Dominator-scoped value numbering for pure expressions and loads."""

    name = "CSE"
    tracked_action_kinds = (ActionKind.REPLACE, ActionKind.DELETE)

    def transform(self, function: Function, mapper: NullCodeMapper) -> bool:
        cfg = ControlFlowGraph(function)
        domtree = DominatorTree(cfg)

        expr_table = _ScopedTable()   # canonical Expr -> register name
        load_table = _ScopedTable()   # (canonical addr Expr, generation) -> register
        changed = False
        generation = [0]

        def process_block(label: str) -> None:
            """Process one dominator-tree node (pushes one scope)."""
            nonlocal changed
            expr_table.push()
            load_table.push()
            block = function.blocks[label]
            for inst in list(block.instructions):
                replacement = None
                if isinstance(inst, Assign):
                    expr = inst.expr
                    if isinstance(expr, Var):
                        replacement = expr  # copy propagation: x = y
                    elif not free_vars(expr) and not isinstance(expr, Const):
                        continue  # fully constant non-literal expressions are left to CP
                    else:
                        key = canonical_expr(expr)
                        if isinstance(key, (Const, Var)):
                            continue
                        replacement = _lookup_or_insert(expr_table, key, inst.dest)
                elif isinstance(inst, Load):
                    key = (canonical_expr(inst.addr), generation[0])
                    replacement = _lookup_or_insert(load_table, key, inst.dest)
                elif isinstance(inst, Call) and not inst.has_side_effects():
                    # A known-pure intrinsic call is an expression: two
                    # calls with the same canonicalized arguments compute
                    # the same value, and purity means no load is
                    # invalidated.  A pure-but-heap-reading callee is
                    # additionally keyed by the memory generation so it
                    # never dedupes across an intervening store.
                    if inst.dest is None:
                        continue
                    key = (
                        "pure-call",
                        inst.callee,
                        tuple(canonical_expr(arg) for arg in inst.args),
                        generation[0] if inst.accesses_memory() else None,
                    )
                    replacement = _lookup_or_insert(expr_table, key, inst.dest)
                elif isinstance(inst, Store) or (
                    isinstance(inst, Call) and inst.accesses_memory()
                ):
                    # Conservatively invalidate remembered loads.
                    generation[0] += 1
                if replacement is not None:
                    mapper.replace_all_uses(inst.dest, replacement, inst)
                    mapper.delete(block, inst)
                    changed = True

        # Dominator-tree DFS with explicit scope management.
        def dfs(label: str) -> None:
            process_block(label)
            for child in domtree.children.get(label, []):
                dfs(child)
            expr_table.pop()
            load_table.pop()

        dfs(function.entry_label)
        return changed


def _lookup_or_insert(table: _ScopedTable, key: object, dest: str) -> Optional[Var]:
    """The register already holding ``key``'s value, or None after recording ``dest``."""
    existing = table.lookup(key)
    if existing is None:
        table.insert(key, dest)
        return None
    return Var(str(existing))
