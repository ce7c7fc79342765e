"""OSRKit-style transition machinery for IR functions (Section 5.4).

The paper builds on OSRKit [13]: an OSR transition from ``f`` at point
``l`` to a variant ``f'`` is modelled as a call to a *continuation
function* ``f'_to`` that (1) receives the live state of ``f`` at ``l``,
(2) runs the compensation code in its entry block and (3) jumps to the
landing point ``l'`` inside a copy of ``f'``.  Because ``f'_to`` has a
single entry at ``l'``, unreachable blocks can be pruned, often making it
smaller than ``f'`` itself.

This module provides:

* :func:`split_block` — split a basic block at a program point so the
  landing point becomes a block head;
* :func:`make_continuation` — build ``f'_to`` from a variant, a landing
  point and a compensation code;
* :func:`perform_osr` — a one-call helper that runs a function up to a
  point, fires the transition and finishes in the other version, which is
  how tests and examples validate end-to-end transitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..cfg.graph import ControlFlowGraph, reachable_blocks
from ..ir.function import Function, ProgramPoint
from ..ir.instructions import Jump
from ..ir.interp import ExecutionResult, Interpreter, Memory
from .compensation import CompensationCode
from .mapping import OSRMapping

__all__ = [
    "split_block",
    "make_continuation",
    "perform_osr",
    "ContinuationInfo",
]


def split_block(function: Function, point: ProgramPoint) -> Tuple[str, str]:
    """Split ``point.block`` so that ``point`` becomes the head of a new block.

    Returns ``(top_label, bottom_label)``.  The top block keeps the
    instructions before ``point`` and ends with a jump to the bottom
    block; the bottom block receives the remaining instructions (including
    the original terminator).  Phi nodes in *successor* blocks that named
    the original block as a predecessor are re-keyed to the bottom label,
    because that is where the branch to them now lives.
    """
    block = function.blocks[point.block]
    if point.index == 0:
        return point.block, point.block  # already a block head
    bottom_label = function.fresh_label(f"{point.block}.split")
    bottom = function.add_block(bottom_label, after=point.block)
    bottom.instructions = block.instructions[point.index:]
    block.instructions = block.instructions[: point.index]
    block.append(Jump(bottom_label))

    # Successor phis must now name the bottom block as their predecessor.
    for succ_label in bottom.successors():
        succ = function.blocks.get(succ_label)
        if succ is None:
            continue
        for phi in succ.phis():
            phi.rename_predecessor(point.block, bottom_label)
    return point.block, bottom_label


@dataclass
class ContinuationInfo:
    """The generated continuation function plus bookkeeping about it."""

    function: Function
    entry_params: List[str]
    landing_block: str
    pruned_blocks: int


def make_continuation(
    variant: Function,
    landing_point: ProgramPoint,
    compensation: CompensationCode,
    live_at_source: Sequence[str],
    *,
    name: Optional[str] = None,
) -> ContinuationInfo:
    """Build the continuation function ``f'_to``.

    ``live_at_source`` lists the registers the caller will pass (the live
    state at the OSR origin, plus any ``keep_alive`` values); they become
    the parameters of the continuation.  The entry block evaluates the
    compensation code and jumps to the landing point, which is first made
    a block head by splitting.  Blocks that become unreachable from the
    new entry are pruned.
    """
    clone, _ = variant.clone(name or f"{variant.name}.to")
    _, landing_label = split_block(clone, landing_point)

    params = list(dict.fromkeys(list(live_at_source) + sorted(compensation.keep_alive)))
    entry_label = clone.fresh_label("osr.entry")
    entry = clone.add_block(entry_label)
    for inst in compensation.to_ir_instructions():
        entry.append(inst)
    entry.append(Jump(landing_label))

    # Make the OSR entry the function entry: re-order so it comes first.
    clone._block_order.remove(entry_label)
    clone._block_order.insert(0, entry_label)
    continuation = clone
    continuation.params = params

    # Prune blocks unreachable from the new entry (the compaction the
    # paper notes can improve code quality of f'_to).
    cfg = ControlFlowGraph(continuation)
    reachable = reachable_blocks(cfg)
    pruned = 0
    for label in list(continuation.block_labels()):
        if label not in reachable:
            continuation.remove_block(label)
            pruned += 1
    # Drop phi inputs from pruned predecessors.
    cfg = ControlFlowGraph(continuation)
    for block in continuation.iter_blocks():
        preds = set(cfg.preds(block.label))
        for phi in block.phis():
            for pred in list(phi.incoming):
                if pred not in preds:
                    del phi.incoming[pred]

    return ContinuationInfo(continuation, params, landing_label, pruned)


def perform_osr(
    source: Function,
    target: Function,
    mapping: OSRMapping,
    source_point: ProgramPoint,
    args: Sequence[int],
    *,
    module=None,
    memory: Optional[Memory] = None,
    step_limit: int = 1_000_000,
    use_continuation: bool = True,
) -> ExecutionResult:
    """Run ``source`` until ``source_point``, fire the OSR, finish in ``target``.

    When the point is never reached, the source simply runs to completion
    and its result is returned.  With ``use_continuation=True`` the
    transition goes through a freshly generated continuation function
    (exercising :func:`make_continuation`); otherwise the interpreter
    resumes ``target`` directly at the landing point.
    """
    entry = mapping.lookup(source_point)
    if entry is None:
        raise KeyError(f"OSR mapping does not cover {source_point}")

    paused = Interpreter(module, step_limit=step_limit).run(
        source, args, memory=memory, break_at=source_point
    )
    if paused.stopped_at is None:
        return paused  # never reached the OSR point; completed normally

    landing_env = mapping.transfer(source_point, paused.env)

    if not use_continuation:
        return Interpreter(module, step_limit=step_limit).resume(
            target,
            entry.target,
            landing_env,
            memory=paused.memory,
            previous_block=paused.previous_block,
        )

    live_at_source = sorted(mapping.source_view.live_in(source_point))
    continuation = make_continuation(
        target, entry.target, entry.compensation, live_at_source
    )
    call_args = [paused.env.get(name, 0) for name in continuation.entry_params]
    return Interpreter(module, step_limit=step_limit).run(
        continuation.function, call_args, memory=paused.memory
    )
