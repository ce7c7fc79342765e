"""Workloads: named benchmark kernels, random generators, SPEC-like corpus."""

from .programs import (
    BENCHMARK_NAMES,
    BENCHMARK_SOURCES,
    CALL_KERNEL_ENTRIES,
    CALL_KERNEL_NAMES,
    CALL_KERNEL_SOURCES,
    LOOP_KERNEL_NAMES,
    STRAIGHT_LINE_NAMES,
    STRAIGHT_LINE_SOURCES,
    benchmark_arguments,
    benchmark_function,
    benchmark_source,
    call_kernel_arguments,
    call_kernel_module,
    straightline_arguments,
    straightline_function,
)
from .generator import random_minic_function
from .polymorphic import (
    POLYMORPHIC_NAMES,
    POLYMORPHIC_SOURCES,
    polymorphic_arguments,
    polymorphic_function,
    polymorphic_phases,
    polymorphic_source,
)
from .spec_corpus import SPEC_BENCHMARKS, CorpusFunction, spec_corpus
from .speculative import (
    SPECULATIVE_NAMES,
    SPECULATIVE_SOURCES,
    speculative_arguments,
    speculative_function,
    speculative_source,
)

__all__ = [
    "SPECULATIVE_NAMES",
    "SPECULATIVE_SOURCES",
    "speculative_source",
    "speculative_function",
    "speculative_arguments",
    "POLYMORPHIC_NAMES",
    "POLYMORPHIC_SOURCES",
    "polymorphic_source",
    "polymorphic_function",
    "polymorphic_phases",
    "polymorphic_arguments",
    "BENCHMARK_NAMES",
    "BENCHMARK_SOURCES",
    "CALL_KERNEL_NAMES",
    "CALL_KERNEL_SOURCES",
    "CALL_KERNEL_ENTRIES",
    "call_kernel_module",
    "call_kernel_arguments",
    "LOOP_KERNEL_NAMES",
    "STRAIGHT_LINE_NAMES",
    "STRAIGHT_LINE_SOURCES",
    "benchmark_source",
    "benchmark_function",
    "benchmark_arguments",
    "straightline_function",
    "straightline_arguments",
    "random_minic_function",
    "SPEC_BENCHMARKS",
    "CorpusFunction",
    "spec_corpus",
]
