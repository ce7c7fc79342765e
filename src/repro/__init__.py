"""repro — a reproduction of "On-Stack Replacement, Distilled" (PLDI 2018).

The package is organized the way the paper is, in two layers cut at the
paper's §4/§5 line.  Imports point downwards in each list and from the
second list to the first, never back.

What an engine loads (Sections 5–7 and the runtime around them):

* :mod:`repro.ir`, :mod:`repro.cfg`, :mod:`repro.analysis`,
  :mod:`repro.ssa`, :mod:`repro.frontend` — the compiler substrate
  standing in for LLVM (Section 5); none of them imports ``core``;
* :mod:`repro.passes`, :mod:`repro.core` — the OSR-aware passes and the
  OSR framework itself: CodeMapper, OSR mappings, ``reconstruct``
  (Algorithm 1), deoptimization plans, OSRKit-style transitions;
* :mod:`repro.vm`, :mod:`repro.engine`, :mod:`repro.store`,
  :mod:`repro.ops` — the adaptive runtime, its facade, the artifact
  store and the operator tooling;
* :mod:`repro.workloads` — the kernels and generators of the evaluation.

What only tests, tables and examples load (no module above imports it):

* :mod:`repro.formal`, :mod:`repro.ctl`, :mod:`repro.rewrite` — the
  abstract framework of Sections 2–4 (minimal language, CTL predicates,
  LVE rewrite rules, ``OSR_trans``); they import ``core`` for
  ``ProgramView``, the mappings and Algorithm 1;
* :mod:`repro.harness` — Tables 1–5 and Figures 7–9;
* :mod:`repro.core.debug`, :mod:`repro.core.bisimulation` — the
  optimized-code debugging analyses of Section 7 and the executable
  transition checks (neither is imported by ``repro.core`` itself).

Quickstart::

    from repro.frontend import compile_function
    from repro.core import OSRTransDriver
    from repro.passes import standard_pipeline

    f = compile_function("func f(n) { var s = 0; var i = 0; "
                         "while (i < n) { s = s + i * 2; i = i + 1; } return s; }")
    pair = OSRTransDriver(standard_pipeline()).run(f)
    mapping = pair.forward_mapping()      # f_base → f_opt, with compensation code
"""

__version__ = "1.0.0"

__all__ = [
    "ir",
    "cfg",
    "analysis",
    "formal",
    "ctl",
    "rewrite",
    "ssa",
    "passes",
    "frontend",
    "core",
    "vm",
    "engine",
    "workloads",
    "harness",
]
