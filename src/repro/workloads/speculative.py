"""Workloads that exercise the speculative tier.

Each kernel has a *warm* input regime, in which the profile-guided
speculation of :class:`~repro.passes.speculate.SpeculativeGuards` holds,
and a *violating* regime that breaks exactly one speculated assumption —
forcing a guard failure, a deoptimizing OSR and (on repetition) a
dispatched OSR into f_base's compiled code:

* ``dispatch`` — an interpreter-style loop dispatching on a ``kind``
  parameter.  Monomorphic warmup calls make ``kind`` an assume-constant
  candidate, which prunes the other dispatch arms from the optimized
  code; a call with a different ``kind`` violates it (a polymorphic
  call-site phase change).

* ``clamp_sum`` — a saturating accumulator whose clamp branch almost
  never fires during warmup (assume-branch-direction); an input with an
  outlier value takes the pruned cold path.

* ``phase_field`` — a mode flag *loaded from memory* each call, constant
  during warmup (assume-constant on a load result); flipping the cell in
  a later phase fails the guard on the next call.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..frontend import compile_function
from ..ir.function import Function
from ..ir.interp import Memory

__all__ = [
    "SPECULATIVE_NAMES",
    "SPECULATIVE_SOURCES",
    "speculative_source",
    "speculative_function",
    "speculative_arguments",
]

SPECULATIVE_NAMES: Tuple[str, ...] = ("dispatch", "clamp_sum", "phase_field")

SPECULATIVE_SOURCES: Dict[str, str] = {
    # Polymorphic dispatch loop; `kind` is monomorphic while warm.
    "dispatch": """
func dispatch(kind, vals, n) {
  var acc = 0;
  var i = 0;
  while (i < n) {
    var v = vals[i];
    if (kind == 0) {
      acc = acc + v;
    } else { if (kind == 1) {
      acc = acc + v * 3 - i;
    } else {
      acc = acc ^ (v + i);
    } }
    i = i + 1;
  }
  return acc;
}
""",
    # Saturating sum; the clamp branch is cold while warm.
    "clamp_sum": """
func clamp_sum(xs, n, limit) {
  var acc = 0;
  var i = 0;
  while (i < n) {
    var v = xs[i];
    if (v > limit) {
      v = limit;
    }
    acc = acc + v;
    i = i + 1;
  }
  return acc;
}
""",
    # A mode flag read from memory each call; constant while warm.
    "phase_field": """
func phase_field(cfg, xs, n) {
  var mode = cfg[0];
  var acc = 0;
  var i = 0;
  while (i < n) {
    var v = xs[i];
    if (mode == 1) {
      acc = acc + v * 2;
    } else {
      acc = acc - v;
    }
    i = i + 1;
  }
  return acc;
}
""",
}


def speculative_source(name: str) -> str:
    """MiniC source of one speculative kernel."""
    try:
        return SPECULATIVE_SOURCES[name]
    except KeyError:
        raise KeyError(
            f"unknown speculative workload {name!r}; choose from {SPECULATIVE_NAMES}"
        ) from None


def speculative_function(name: str) -> Function:
    """The f_base (SSA + debug info) form of one speculative kernel."""
    return compile_function(speculative_source(name), name)


def speculative_arguments(
    name: str,
    *,
    size: int = 24,
    seed: int = 11,
    violate: bool = False,
) -> Tuple[List[int], Memory]:
    """Executable arguments and memory for one speculative kernel.

    ``violate=False`` produces the warm regime (every speculated fact
    holds); ``violate=True`` breaks the kernel's speculated assumption.
    """
    import random

    rng = random.Random(seed + len(name))
    memory = Memory()

    def array(values: List[int]) -> int:
        base = memory.allocate(len(values))
        memory.write_array(base, values)
        return base

    if name == "dispatch":
        vals = [rng.randint(-40, 40) for _ in range(size)]
        kind = 2 if violate else 0
        return [kind, array(vals), size], memory
    if name == "clamp_sum":
        limit = 100
        xs = [rng.randint(0, limit - 1) for _ in range(size)]
        if violate:
            xs[size // 2] = limit + 37  # one outlier takes the cold path
        return [array(xs), size, limit], memory
    if name == "phase_field":
        xs = [rng.randint(-30, 30) for _ in range(size)]
        cfg = array([2 if violate else 1])
        return [cfg, array(xs), size], memory
    raise KeyError(f"unknown speculative workload {name!r}")
