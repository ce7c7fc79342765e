"""Empirical live-variable bisimulation and OSR-mapping soundness checks.

The formal layers of the paper's correctness story, each with an
executable counterpart:

* **LVB (Definitions 4.1–4.4)** — two program versions are live-variable
  bisimilar when, run in lockstep from the same store, they agree at every
  step on the variables live in both.  For the in-place rewrite rules of
  Figure 5 the traces stay aligned point-for-point, so the check is a
  direct lockstep comparison (:func:`check_live_variable_bisimulation`).

* **Mapping soundness (Definition 3.1)** — firing an OSR at any realizable
  state and continuing in the other version must produce the same final
  output the other version would have produced on its own
  (:func:`check_mapping_soundness`).

The IR-level transition checks are in :mod:`repro.core.bisimulation`.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Mapping, Sequence

from ..core.mapping import OSRMapping
from .analysis import formal_live_variables
from .program import FormalProgram
from .semantics import FormalAbort, UndefinedSemantics, run_formal, trace_formal

__all__ = [
    "check_live_variable_bisimulation",
    "check_mapping_soundness",
    "random_stores",
]


def random_stores(
    variables: Sequence[str],
    *,
    count: int = 10,
    seed: int = 0,
    low: int = -20,
    high: int = 20,
) -> List[Dict[str, int]]:
    """Deterministic pseudo-random input stores for empirical checks."""
    rng = random.Random(seed)
    return [
        {name: rng.randint(low, high) for name in variables} for _ in range(count)
    ]


def check_live_variable_bisimulation(
    p: FormalProgram,
    p_prime: FormalProgram,
    stores: Iterable[Mapping[str, int]],
    *,
    max_steps: int = 100_000,
) -> bool:
    """Empirical LVB check for same-length (in-place transformed) programs.

    Runs both programs from each store and compares, state by state, the
    variables live in *both* versions at the current point (the relation
    ``R_A`` of Definition 4.3).  Returns False on the first disagreement,
    including differing trace lengths or differing termination behaviour.
    """
    live_p = formal_live_variables(p)
    live_q = formal_live_variables(p_prime)
    for store in stores:
        try:
            trace_a = trace_formal(p, store, max_steps=max_steps)
        except (FormalAbort, UndefinedSemantics):
            trace_a = None
        try:
            trace_b = trace_formal(p_prime, store, max_steps=max_steps)
        except (FormalAbort, UndefinedSemantics):
            trace_b = None
        if (trace_a is None) != (trace_b is None):
            return False
        if trace_a is None or trace_b is None:
            continue
        if len(trace_a) != len(trace_b):
            return False
        for state_a, state_b in zip(trace_a, trace_b):
            if state_a.point != state_b.point:
                return False
            if state_a.point > len(p):
                continue
            common = live_p[state_a.point] & live_q[state_b.point]
            store_a = state_a.store_dict()
            store_b = state_b.store_dict()
            for name in common:
                if store_a.get(name) != store_b.get(name):
                    return False
    return True


def check_mapping_soundness(
    p: FormalProgram,
    p_prime: FormalProgram,
    mapping: OSRMapping,
    stores: Iterable[Mapping[str, int]],
    *,
    max_steps: int = 100_000,
) -> bool:
    """Empirical soundness of an OSR mapping from ``p`` to ``p_prime``.

    For every input store and every state (σ, l) in p's trace with l in
    the mapping's domain: transfer the state through the mapping and run
    ``p_prime`` from the landing point; the output must equal what
    ``p_prime`` computes on the original input store (which, for the
    semantics-preserving rules exercised in tests, also equals p's own
    output).
    """
    for store in stores:
        try:
            expected = run_formal(p_prime, store, max_steps=max_steps)
            states = trace_formal(p, store, max_steps=max_steps)
        except (FormalAbort, UndefinedSemantics):
            continue
        for state in states:
            if state.point > len(p):
                continue
            entry = mapping.lookup(state.point)
            if entry is None:
                continue
            landing_env = mapping.transfer(state.point, state.store_dict())
            try:
                actual = run_formal(
                    p_prime,
                    landing_env,
                    max_steps=max_steps,
                    start_point=entry.target,
                )
            except (FormalAbort, UndefinedSemantics):
                return False
            if actual != expected:
                return False
    return True
