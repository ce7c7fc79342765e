"""Experiment drivers: one function per table/figure of the paper.

Every driver returns a list of row dictionaries plus (via
:func:`render_rows`) a printable table, so the same code serves the
pytest-benchmark harness in ``benchmarks/``, the examples and
EXPERIMENTS.md.  Absolute numbers differ from the paper (the workloads are
synthetic stand-ins — see DESIGN.md), but each driver's docstring states
the qualitative shape the paper reports, and the benchmark suite asserts
those shapes.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

from ..core import OSRTransDriver, ReconstructionMode
from ..core.codemapper import ActionKind
from ..core.debug import measure_recoverability
from ..core.reconstruct import OSRPointClass
from ..ir.printer import format_table
from ..passes import ALL_PASSES, standard_pipeline
from ..workloads import (
    BENCHMARK_NAMES,
    benchmark_function,
    spec_corpus,
)

__all__ = [
    "render_rows",
    "build_version_pairs",
    "table1_pass_instrumentation",
    "table2_ir_features",
    "figure7_optimizing_osr",
    "figure8_deoptimizing_osr",
    "table3_compensation_size",
    "table4_endangered_functions",
    "figure9_recoverability",
    "table5_keep_sets",
]


def render_rows(rows: Sequence[Dict[str, object]], title: str = "") -> str:
    """Render experiment rows as an ASCII table."""
    if not rows:
        return title
    headers = list(rows[0].keys())
    body = [[row.get(h, "") for h in headers] for row in rows]
    return format_table(headers, body, title=title)


def _fmt(value: float, digits: int = 2) -> float:
    return round(value, digits)


# ---------------------------------------------------------------------- #
# Shared preparation.
# ---------------------------------------------------------------------- #

_PAIR_CACHE: Dict[str, object] = {}


def build_version_pairs(names: Sequence[str] = BENCHMARK_NAMES):
    """Optimize every named kernel once and cache the version pairs."""
    pairs = {}
    for name in names:
        cached = _PAIR_CACHE.get(name)
        if cached is None:
            function = benchmark_function(name)
            cached = OSRTransDriver(standard_pipeline()).run(function)
            _PAIR_CACHE[name] = cached
        pairs[name] = cached
    return pairs


# ---------------------------------------------------------------------- #
# Table 1 — edits performed to the optimization passes.
# ---------------------------------------------------------------------- #


def table1_pass_instrumentation() -> List[Dict[str, object]]:
    """Table 1: how much instrumentation each OSR-aware pass needs.

    The paper reports, for each edited LLVM pass, its size, the number of
    changed lines and the number of primitive-action tracking points.  Our
    passes are re-implementations that edit the IR only through the
    CodeMapper, so the analogous measurements are the pass implementation
    size, the number of recording CodeMapper call sites in its source (the
    edits an implementor routes through the mapper) and the action kinds
    it can emit.  Expected shape: instrumentation is small relative to
    pass size (a handful of call sites per pass).
    """
    import inspect
    import re

    rows: List[Dict[str, object]] = []
    for name, pass_cls in ALL_PASSES.items():
        source = inspect.getsource(inspect.getmodule(pass_cls))
        call_sites = len(
            re.findall(
                r"mapper\.(insert|delete|delete_where|hoist|sink|replace_all_uses|"
                r"replace_uses_in|replace_terminator|remove_unreachable_blocks)\(",
                source,
            )
        )
        rows.append(
            {
                "pass": name,
                "loc": pass_cls.implementation_loc(),
                "instrumentation_sites": call_sites,
                "action_kinds": len(pass_cls.tracked_action_kinds),
            }
        )
    return rows


# ---------------------------------------------------------------------- #
# Table 2 — IR features of the analyzed code.
# ---------------------------------------------------------------------- #


def table2_ir_features(names: Sequence[str] = BENCHMARK_NAMES) -> List[Dict[str, object]]:
    """Table 2: |f_base|, |φ_base|, |f_opt|, |φ_opt| and primitive actions.

    Expected shape: f_opt is somewhat smaller than f_base but may contain
    *more* phi nodes (LCSSA insertions); delete and replace dominate the
    action counts.
    """
    rows: List[Dict[str, object]] = []
    for name, pair in build_version_pairs(names).items():
        counts = pair.mapper.action_counts()
        rows.append(
            {
                "benchmark": name,
                "f_base": pair.base.num_instructions(),
                "phi_base": pair.base.num_phis(),
                "f_opt": pair.optimized.num_instructions(),
                "phi_opt": pair.optimized.num_phis(),
                "add": counts[ActionKind.ADD],
                "delete": counts[ActionKind.DELETE],
                "hoist": counts[ActionKind.HOIST],
                "sink": counts[ActionKind.SINK],
                "replace": counts[ActionKind.REPLACE],
            }
        )
    return rows


# ---------------------------------------------------------------------- #
# Figures 7 and 8 — feasible OSR points.
# ---------------------------------------------------------------------- #


def _osr_breakdown(names: Sequence[str], *, deopt: bool) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for name, pair in build_version_pairs(names).items():
        reports = pair.report(deopt=deopt)
        total = len(reports) or 1
        counts = {cls: 0 for cls in OSRPointClass}
        for report in reports:
            counts[report.point_class] += 1
        empty = counts[OSRPointClass.EMPTY] / total
        live = counts[OSRPointClass.LIVE] / total
        avail = counts[OSRPointClass.AVAIL] / total
        rows.append(
            {
                "benchmark": name,
                "points": total,
                "empty_pct": _fmt(100 * empty, 1),
                "live_pct": _fmt(100 * (empty + live), 1),
                "avail_pct": _fmt(100 * (empty + live + avail), 1),
                "unsupported_pct": _fmt(
                    100 * counts[OSRPointClass.UNSUPPORTED] / total, 1
                ),
            }
        )
    return rows


def figure7_optimizing_osr(names: Sequence[str] = BENCHMARK_NAMES) -> List[Dict[str, object]]:
    """Figure 7: breakdown of feasible f_base → f_opt OSR points.

    ``live_pct``/``avail_pct`` are cumulative (as in the paper's stacked
    bars).  Expected shape: empty-compensation points are a small
    fraction; ``live`` covers the majority of points for most benchmarks;
    ``avail`` pushes coverage close to the maximum achievable.
    """
    return _osr_breakdown(names, deopt=False)


def figure8_deoptimizing_osr(names: Sequence[str] = BENCHMARK_NAMES) -> List[Dict[str, object]]:
    """Figure 8: breakdown of feasible f_opt → f_base OSR points.

    Expected shape: the empty fraction varies widely per benchmark, and
    ``avail`` coverage is at least as high as in the optimizing direction.
    """
    return _osr_breakdown(names, deopt=True)


# ---------------------------------------------------------------------- #
# Table 3 — compensation-code size.
# ---------------------------------------------------------------------- #


def table3_compensation_size(names: Sequence[str] = BENCHMARK_NAMES) -> List[Dict[str, object]]:
    """Table 3: average and peak |c|, and |K_avail|, in both directions.

    Expected shape: compensation code for deoptimizing OSR is markedly
    smaller on average than for optimizing OSR, and the keep sets are
    small (a handful of values).
    """
    rows: List[Dict[str, object]] = []
    for name, pair in build_version_pairs(names).items():
        row: Dict[str, object] = {"benchmark": name}
        for direction, deopt in (("fwd", False), ("bwd", True)):
            live_sizes: List[int] = []
            avail_sizes: List[int] = []
            keep_sizes: List[int] = []
            reports = pair.report(deopt=deopt)
            for report in reports:
                if report.compensation is None:
                    continue
                if report.point_class in (OSRPointClass.EMPTY, OSRPointClass.LIVE):
                    live_sizes.append(report.compensation.size)
                    avail_sizes.append(report.compensation.size)
                elif report.point_class is OSRPointClass.AVAIL:
                    avail_sizes.append(report.compensation.size)
                    keep_sizes.append(len(report.compensation.keep_alive))
            row[f"{direction}_live_avg"] = _fmt(statistics.mean(live_sizes)) if live_sizes else 0
            row[f"{direction}_live_max"] = max(live_sizes, default=0)
            row[f"{direction}_avail_avg"] = _fmt(statistics.mean(avail_sizes)) if avail_sizes else 0
            row[f"{direction}_avail_max"] = max(avail_sizes, default=0)
            row[f"{direction}_keep_avg"] = _fmt(statistics.mean(keep_sizes)) if keep_sizes else 0
            row[f"{direction}_keep_max"] = max(keep_sizes, default=0)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------- #
# Section 7: Tables 4, 5 and Figure 9 over the SPEC-like corpus.
# ---------------------------------------------------------------------- #

_CORPUS_CACHE: Dict[float, List] = {}


def _corpus_analyses(scale: float = 1.0):
    """Optimize and analyse the synthetic SPEC corpus (cached per scale)."""
    cached = _CORPUS_CACHE.get(scale)
    if cached is not None:
        return cached
    driver = OSRTransDriver(standard_pipeline())
    results = []
    for entry in spec_corpus(scale=scale):
        pair = driver.run(entry.function)
        debug = entry.debug
        recovery = measure_recoverability(pair, debug)
        results.append((entry, pair, recovery))
    _CORPUS_CACHE[scale] = results
    return results


def table4_endangered_functions(scale: float = 1.0) -> List[Dict[str, object]]:
    """Table 4: endangered functions and endangered user variables.

    Expected shape: a minority (but a sizeable one) of optimized functions
    contain endangered user variables; at affected source locations there
    are on average ~1–2 endangered variables, with occasional higher
    peaks.
    """
    per_benchmark: Dict[str, Dict[str, object]] = {}
    for entry, pair, recovery in _corpus_analyses(scale):
        analysis = recovery.endangered_analysis
        stats = per_benchmark.setdefault(
            entry.benchmark,
            {
                "total": 0,
                "optimized": 0,
                "endangered": 0,
                "weighted_fraction_num": 0.0,
                "weighted_fraction_den": 0.0,
                "unweighted_fractions": [],
                "per_point_counts": [],
            },
        )
        stats["total"] += 1
        if analysis.optimized:
            stats["optimized"] += 1
        if analysis.is_endangered:
            stats["endangered"] += 1
            fraction = analysis.fraction_affected()
            weight = analysis.base_size
            stats["weighted_fraction_num"] += fraction * weight
            stats["weighted_fraction_den"] += weight
            stats["unweighted_fractions"].append(fraction)
            stats["per_point_counts"].extend(analysis.endangered_counts())

    rows: List[Dict[str, object]] = []
    for benchmark in sorted(per_benchmark):
        stats = per_benchmark[benchmark]
        counts = stats["per_point_counts"]
        rows.append(
            {
                "benchmark": benchmark,
                "F_tot": stats["total"],
                "F_opt": stats["optimized"],
                "F_end": stats["endangered"],
                "avg_w": _fmt(
                    stats["weighted_fraction_num"] / stats["weighted_fraction_den"]
                )
                if stats["weighted_fraction_den"]
                else 0.0,
                "avg_u": _fmt(statistics.mean(stats["unweighted_fractions"]))
                if stats["unweighted_fractions"]
                else 0.0,
                "vars_avg": _fmt(statistics.mean(counts)) if counts else 0.0,
                "vars_std": _fmt(statistics.pstdev(counts)) if len(counts) > 1 else 0.0,
                "vars_max": max(counts, default=0),
            }
        )
    return rows


def figure9_recoverability(scale: float = 1.0) -> List[Dict[str, object]]:
    """Figure 9: global average recoverability ratio for live and avail.

    The global ratio is the |f_base|-weighted average, over endangered
    functions, of each function's average recoverability.  Expected shape:
    ``avail`` recovers the large majority of endangered variables and is
    never worse than ``live``.
    """
    per_benchmark: Dict[str, Dict[str, float]] = {}
    for entry, pair, recovery in _corpus_analyses(scale):
        if not recovery.endangered_analysis.is_endangered:
            continue
        stats = per_benchmark.setdefault(
            entry.benchmark, {"live": 0.0, "avail": 0.0, "weight": 0.0}
        )
        weight = recovery.base_size
        stats["live"] += recovery.average_ratio(ReconstructionMode.LIVE) * weight
        stats["avail"] += recovery.average_ratio(ReconstructionMode.AVAIL) * weight
        stats["weight"] += weight

    rows: List[Dict[str, object]] = []
    for benchmark in sorted(per_benchmark):
        stats = per_benchmark[benchmark]
        weight = stats["weight"] or 1.0
        rows.append(
            {
                "benchmark": benchmark,
                "live_ratio": _fmt(stats["live"] / weight, 3),
                "avail_ratio": _fmt(stats["avail"] / weight, 3),
            }
        )
    return rows


def table5_keep_sets(scale: float = 1.0) -> List[Dict[str, object]]:
    """Table 5: values that must be preserved for the avail strategy.

    Expected shape: a substantial fraction of endangered functions need at
    least one preserved value, but the average keep-set size stays small
    (a few values).
    """
    per_benchmark: Dict[str, Dict[str, object]] = {}
    for entry, pair, recovery in _corpus_analyses(scale):
        if not recovery.endangered_analysis.is_endangered:
            continue
        stats = per_benchmark.setdefault(
            entry.benchmark, {"endangered": 0, "needing": 0, "sizes": []}
        )
        stats["endangered"] += 1
        if recovery.needs_keep_values:
            stats["needing"] += 1
            stats["sizes"].append(len(recovery.keep_set))

    rows: List[Dict[str, object]] = []
    for benchmark in sorted(per_benchmark):
        stats = per_benchmark[benchmark]
        sizes = stats["sizes"]
        rows.append(
            {
                "benchmark": benchmark,
                "F_end": stats["endangered"],
                "frac_needing_keep": _fmt(stats["needing"] / stats["endangered"], 2)
                if stats["endangered"]
                else 0.0,
                "keep_avg": _fmt(statistics.mean(sizes)) if sizes else 0.0,
                "keep_std": _fmt(statistics.pstdev(sizes)) if len(sizes) > 1 else 0.0,
            }
        )
    return rows
