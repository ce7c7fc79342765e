"""Structural and SSA well-formedness checks for IR functions.

``verify_function`` checks invariants every pass must preserve:

* every block ends in exactly one terminator, and terminators appear only
  at block ends;
* every branch target names an existing block;
* phi instructions appear only at block heads, have exactly one
  incoming value per CFG predecessor, never sit in a block with no
  predecessors at all (there is no edge to select a value from), and
  never read a phi of their own block along an edge that block does
  not dominate (phis are one parallel assignment on the edge; only the
  previous trip's value is readable);
* every guard condition references only registers the function defines
  somewhere (parameters included) — an unknown register would otherwise
  surface as a codegen ``NameError``/interpreter ``KeyError`` in the
  middle of a deoptimization;
* (in SSA mode) every register has a single definition, and every use is
  dominated by its definition.

Violations raise :class:`VerificationError` listing all problems found, so
a failing pass test shows the whole picture at once.
"""

from __future__ import annotations

from typing import Dict, List, Set

from .expr import free_vars
from .function import Function, ProgramPoint
from .instructions import Guard, Phi, Terminator

__all__ = ["VerificationError", "verify_function", "is_ssa"]


class VerificationError(ValueError):
    """Raised when an IR function violates structural invariants."""

    def __init__(self, function_name: str, problems: List[str]) -> None:
        self.problems = problems
        message = f"function @{function_name} failed verification:\n" + "\n".join(
            f"  - {p}" for p in problems
        )
        super().__init__(message)


def _predecessor_map(function: Function) -> Dict[str, Set[str]]:
    preds: Dict[str, Set[str]] = {label: set() for label in function.block_labels()}
    for block in function.iter_blocks():
        for succ in block.successors():
            if succ in preds:
                preds[succ].add(block.label)
    return preds


def is_ssa(function: Function) -> bool:
    """True when every register (including parameters) has at most one definition."""
    seen: Set[str] = set(function.params)
    for _, inst in function.instructions():
        for name in inst.defs():
            if name in seen:
                return False
            seen.add(name)
    return True


def verify_function(
    function: Function,
    *,
    require_ssa: bool = False,
    check_dominance: bool = True,
) -> None:
    """Check structural invariants; raise :class:`VerificationError` on failure."""
    problems: List[str] = []

    labels = set(function.block_labels())
    if not labels:
        raise VerificationError(function.name, ["function has no blocks"])

    preds = _predecessor_map(function)
    #: (block, phi, pred): the phi reads a phi of its own block on that edge.
    sibling_reads: List[tuple] = []

    for block in function.iter_blocks():
        if not block.instructions:
            problems.append(f"block {block.label} is empty")
            continue
        terminator = block.instructions[-1]
        if not isinstance(terminator, Terminator):
            problems.append(f"block {block.label} does not end in a terminator")
        for index, inst in enumerate(block.instructions[:-1]):
            if isinstance(inst, Terminator):
                problems.append(
                    f"terminator {inst} in the middle of block {block.label} "
                    f"(index {index})"
                )
        for succ in block.successors():
            if succ not in labels:
                problems.append(
                    f"block {block.label} branches to unknown block {succ!r}"
                )
        # Phi placement and incoming-edge coverage.
        seen_non_phi = False
        phi_dests = {phi.dest for phi in block.phis()}
        for index, inst in enumerate(block.instructions):
            if isinstance(inst, Phi):
                if seen_non_phi:
                    problems.append(
                        f"phi {inst} at {block.label}:{index} appears after a "
                        "non-phi instruction"
                    )
                incoming_labels = set(inst.incoming)
                block_preds = preds[block.label]
                if not block_preds:
                    problems.append(
                        f"phi {inst} in {block.label} sits in a block with no "
                        "CFG predecessors (no edge selects an incoming value)"
                    )
                missing = block_preds - incoming_labels
                extra = incoming_labels - block_preds
                if missing:
                    problems.append(
                        f"phi {inst} in {block.label} lacks incoming values for "
                        f"predecessors {sorted(missing)}"
                    )
                if extra:
                    problems.append(
                        f"phi {inst} in {block.label} names non-predecessor blocks "
                        f"{sorted(extra)}"
                    )
                for pred, value in inst.incoming.items():
                    if pred != block.label and free_vars(value) & phi_dests:
                        sibling_reads.append((block.label, inst, pred))
            else:
                seen_non_phi = True

    # Phis are one parallel assignment on the edge: a phi of the same
    # block is readable only as the previous trip's value, i.e. along an
    # edge the block dominates.  (Rare enough to build dominators lazily.)
    if sibling_reads:
        from ..cfg.dominance import DominatorTree
        from ..cfg.graph import ControlFlowGraph

        domtree = DominatorTree(ControlFlowGraph(function))
        for label, phi, pred in sibling_reads:
            if domtree.is_reachable(pred) and not domtree.dominates(label, pred):
                problems.append(
                    f"phi {phi} in {label} reads a phi of the same block "
                    f"along the edge from {pred}, which {label} does not dominate"
                )

    # Guard register definedness (independent of SSA mode: non-SSA
    # functions get full use-before-def checking only under require_ssa,
    # but a guard naming a register with *no definition anywhere* is
    # malformed in any mode — it would fail exactly when the guard fires).
    instructions = list(function.instructions())
    defined_somewhere: Set[str] = set(function.params)
    for _, inst in instructions:
        defined_somewhere.update(inst.defs())
    for point, inst in instructions:
        if isinstance(inst, Guard):
            unknown = sorted(free_vars(inst.cond) - defined_somewhere)
            if unknown:
                problems.append(
                    f"{point}: guard condition references undefined "
                    f"register(s) {unknown}"
                )

    # Single-assignment check.
    if require_ssa:
        defined: Dict[str, ProgramPoint] = {}
        for point, inst in instructions:
            for name in inst.defs():
                if name in function.params:
                    problems.append(
                        f"{point}: redefinition of parameter {name!r} violates SSA"
                    )
                elif name in defined:
                    problems.append(
                        f"{point}: second definition of {name!r} "
                        f"(first at {defined[name]}) violates SSA"
                    )
                else:
                    defined[name] = point

        if check_dominance and not problems:
            _check_ssa_dominance(function, problems, instructions)

    if problems:
        raise VerificationError(function.name, problems)


def _check_ssa_dominance(function: Function, problems: List[str], instructions=None) -> None:
    """Check that each SSA use is dominated by its definition.

    Imported lazily to avoid a circular import at module load time
    (``repro.cfg`` imports the IR package).
    """
    from ..cfg.dominance import DominatorTree
    from ..cfg.graph import ControlFlowGraph

    cfg = ControlFlowGraph(function)
    domtree = DominatorTree(cfg)

    if instructions is None:
        instructions = list(function.instructions())
    def_block: Dict[str, str] = {name: function.entry_label for name in function.params}
    def_index: Dict[str, int] = {name: -1 for name in function.params}
    for point, inst in instructions:
        for name in inst.defs():
            def_block[name] = point.block
            def_index[name] = point.index

    for point, inst in instructions:
        if isinstance(inst, Phi):
            # Phi uses are checked against the corresponding predecessor edge.
            for pred, value in inst.incoming.items():
                for name in free_vars(value):
                    if name not in def_block:
                        problems.append(
                            f"{point}: phi uses undefined register {name!r}"
                        )
                        continue
                    if not domtree.dominates(def_block[name], pred):
                        problems.append(
                            f"{point}: phi incoming {name!r} from {pred} is not "
                            f"dominated by its definition in {def_block[name]}"
                        )
            continue
        for name in inst.uses():
            if name not in def_block:
                problems.append(f"{point}: use of undefined register {name!r}")
                continue
            dblock, dindex = def_block[name], def_index[name]
            if dblock == point.block:
                if dindex >= point.index:
                    problems.append(
                        f"{point}: use of {name!r} precedes its definition at "
                        f"{dblock}:{dindex}"
                    )
            elif not domtree.dominates(dblock, point.block):
                problems.append(
                    f"{point}: use of {name!r} is not dominated by its definition "
                    f"in block {dblock}"
                )
