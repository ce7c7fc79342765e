"""Promotion of stack slots to SSA registers (the ``mem2reg`` pass).

The frontend places every source variable in a single-cell ``alloca`` and
accesses it through loads and stores, exactly like clang at ``-O0``.  This
pass promotes those slots to SSA registers using the classic Cytron et al.
algorithm: phi nodes are placed at the iterated dominance frontier of the
blocks that store to a slot, and a dominator-tree walk renames loads and
stores to direct register references.

Promotion requirements for a slot:

* the ``alloca`` has size 1;
* its address is used *only* as the direct address operand of loads and
  stores (never stored itself, never part of address arithmetic).

The pass keeps the mapping ``promoted slot → SSA names`` in the function's
debug metadata when present, so the Section 7 machinery can associate
source variables with the registers that now carry their values.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..cfg.dominance import DominatorTree, dominance_frontiers
from ..cfg.graph import ControlFlowGraph
from ..ir.expr import Const, Expr, Undef, Var, free_vars, substitute
from ..ir.function import Function
from ..ir.instructions import Alloca, Instruction, Load, Phi, Store

__all__ = ["promote_memory_to_registers", "promotable_allocas"]


def promotable_allocas(function: Function) -> List[Alloca]:
    """The allocas that can safely be promoted to SSA registers.

    One walk checks every instruction's uses against all candidate slots
    at once: a load or store may name a slot only as its bare address,
    and a store may not write a slot's own address.
    """
    allocas: List[Alloca] = []
    escaped: Set[str] = set()
    for _, inst in function.instructions():
        if isinstance(inst, Alloca):
            if inst.size == 1:
                allocas.append(inst)
        elif isinstance(inst, Load) and isinstance(inst.addr, Var):
            continue  # a bare address: the one use promotion allows
        elif isinstance(inst, Store) and isinstance(inst.addr, Var):
            escaped.update(free_vars(inst.value))
        else:
            escaped.update(inst.uses())
    return [alloca for alloca in allocas if alloca.dest not in escaped]


def promote_memory_to_registers(function: Function) -> int:
    """Promote every promotable alloca; returns the number of slots promoted."""
    slots = promotable_allocas(function)
    if not slots:
        return 0
    slot_names = {slot.dest for slot in slots}

    cfg = ControlFlowGraph(function)
    domtree = DominatorTree(cfg)
    frontiers = dominance_frontiers(domtree)

    # ------------------------------------------------------------------ #
    # 1. Phi placement at iterated dominance frontiers of store blocks.
    # ------------------------------------------------------------------ #
    store_blocks: Dict[str, Set[str]] = {name: set() for name in slot_names}
    for point, inst in function.instructions():
        if isinstance(inst, Store) and isinstance(inst.addr, Var) and inst.addr.name in slot_names:
            store_blocks[inst.addr.name].add(point.block)

    #: (slot, block) → phi instruction inserted there.
    placed_phis: Dict[Tuple[str, str], Phi] = {}
    counters: Dict[str, int] = {name: 0 for name in slot_names}

    def fresh_name(slot: str) -> str:
        counters[slot] += 1
        base = slot.lstrip("%").replace(".addr", "")
        return f"%{base}.{counters[slot]}"

    # Deterministic worklist and frontier order: phi placement assigns the
    # fresh ``%name.N`` versions, and the artifact store keys warm starts
    # by a hash of the printed IR — set-order iteration here would make
    # that hash vary with the interpreter's hash seed across processes.
    for slot in sorted(slot_names):
        worklist = sorted(store_blocks[slot])
        has_phi: Set[str] = set()
        while worklist:
            block = worklist.pop()
            for frontier_block in sorted(frontiers.get(block, ())):
                if frontier_block in has_phi or not domtree.is_reachable(frontier_block):
                    continue
                has_phi.add(frontier_block)
                phi = Phi(fresh_name(slot), {})
                function.blocks[frontier_block].insert(0, phi)
                placed_phis[(slot, frontier_block)] = phi
                if frontier_block not in store_blocks[slot]:
                    worklist.append(frontier_block)

    # ------------------------------------------------------------------ #
    # 2. Renaming walk over the dominator tree.
    # ------------------------------------------------------------------ #
    #: load destination register → the value expression that replaces it.
    load_replacements: Dict[str, Expr] = {}
    current_value: Dict[str, List[Expr]] = {name: [Undef()] for name in slot_names}

    phi_slot: Dict[int, str] = {}
    phis_by_block: Dict[str, List[Tuple[str, Phi]]] = {}
    for (slot, block), phi in placed_phis.items():
        phi_slot[phi.uid] = slot
        phis_by_block.setdefault(block, []).append((slot, phi))

    debug = function.metadata.get("debug")

    def record_debug_bindings(inst: Instruction) -> None:
        """Record which value carries each promoted variable before ``inst``.

        This is the ``llvm.dbg.value`` analogue: the Section 7 analysis
        reads these bindings to know which register a debugger would have
        to display for each source variable at a breakpoint.
        """
        if debug is None or not hasattr(debug, "record_binding"):
            return
        for slot in slot_names:
            value = current_value[slot][-1]
            if not isinstance(value, Undef):
                debug.record_binding(inst.uid, slot, value)

    def rename_block(label: str) -> None:
        pushes: List[str] = []
        block = function.blocks[label]
        survivors: List[Instruction] = []
        for inst in block.instructions:
            if isinstance(inst, Phi) and inst.uid in phi_slot:
                slot = phi_slot[inst.uid]
                current_value[slot].append(Var(inst.dest))
                pushes.append(slot)
                survivors.append(inst)
                continue
            if isinstance(inst, Alloca) and inst.dest in slot_names:
                continue  # drop the slot allocation
            if isinstance(inst, Load) and isinstance(inst.addr, Var) and inst.addr.name in slot_names:
                load_replacements[inst.dest] = current_value[inst.addr.name][-1]
                continue  # drop the load
            if isinstance(inst, Store) and isinstance(inst.addr, Var) and inst.addr.name in slot_names:
                current_value[inst.addr.name].append(inst.value)
                pushes.append(inst.addr.name)
                continue  # drop the store
            record_debug_bindings(inst)
            survivors.append(inst)
        block.instructions = survivors

        # Fill phi operands of successors along the edge from this block.
        # A slot that was never stored on this path is uninitialized; such
        # reads are undefined behaviour at the source level, so any value
        # will do — we use 0, matching the zero-filled memory model.
        for succ in cfg.succs(label):
            for slot, phi in phis_by_block.get(succ, ()):
                value = current_value[slot][-1]
                phi.incoming[label] = Const(0) if isinstance(value, Undef) else value

        for child in domtree.children.get(label, []):
            rename_block(child)

        for slot in pushes:
            current_value[slot].pop()

    rename_block(function.entry_label)

    # ------------------------------------------------------------------ #
    # 3. Rewrite uses of the deleted loads to the values they would read.
    # ------------------------------------------------------------------ #
    resolved = _resolve(load_replacements)
    if resolved:
        for _, inst in function.instructions():
            inst.replace_uses(resolved)
        # Debug bindings recorded during renaming may mention deleted load
        # destinations; rewrite them the same way.
        if debug is not None and hasattr(debug, "bindings_by_uid"):
            for bindings in debug.bindings_by_uid.values():
                for name in list(bindings):
                    bindings[name] = substitute(bindings[name], resolved)

    # Record the promotion in debug metadata if the frontend attached any.
    if debug is not None and hasattr(debug, "record_promotion"):
        ssa_names: Dict[str, List[str]] = {slot: [] for slot in slot_names}
        for (slot, _), phi in placed_phis.items():
            ssa_names[slot].append(phi.dest)
        for slot in sorted(slot_names):
            debug.record_promotion(slot, ssa_names[slot])

    return len(slots)


def _resolve(replacements: Dict[str, Expr]) -> Dict[str, Expr]:
    """Iteratively substitute replacement expressions into each other.

    A load's replacement value can mention the destination of another
    deleted load; repeated substitution resolves such chains.  The slot
    values themselves are acyclic (each substitution strictly removes one
    deleted-load name), so a bounded number of rounds suffices.
    """
    resolved = dict(replacements)
    for _ in range(len(replacements) + 1):
        changed = False
        for name, expr in list(resolved.items()):
            new_expr = substitute(expr, resolved)
            if new_expr != expr:
                resolved[name] = new_expr
                changed = True
        if not changed:
            break
    return resolved
