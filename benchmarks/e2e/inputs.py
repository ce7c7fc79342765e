"""Seeded program populations, their inputs and their expected values.

The *set* of programs of each workload is fixed (it is part of the
workload's definition, so a percentile over programs means the same
thing on every run); ``seed`` drives everything the program receives —
array contents, scalar arguments — and, in the workloads, the order of
ops and the ``phase_shift`` schedule.

Expected values never come from the compiler under test: a kernel with
a hand-written twin (:mod:`native`) is checked against the twin, every
other program against ``repro.ir.Interpreter`` running the *unpromoted,
unoptimized* lowering of its source (``compile_program(src,
promote=False)`` — before mem2reg, before any pass, no codegen).
"""

from __future__ import annotations

import _bootstrap  # noqa: F401  (must precede the repro imports)

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.frontend import compile_program
from repro.ir import Interpreter, Memory
from repro.workloads import (
    BENCHMARK_SOURCES,
    CALL_KERNEL_SOURCES,
    LOOP_KERNEL_NAMES,
    POLYMORPHIC_NAMES,
    POLYMORPHIC_SOURCES,
    SPECULATIVE_NAMES,
    SPECULATIVE_SOURCES,
    STRAIGHT_LINE_SOURCES,
    benchmark_arguments,
    call_kernel_arguments,
    polymorphic_arguments,
    polymorphic_phases,
    random_minic_function,
    speculative_arguments,
    straightline_arguments,
)

import native

__all__ = [
    "Input",
    "Program",
    "reference_value",
    "loop_programs",
    "call_programs",
    "short_programs",
    "polymorphic_programs",
    "speculative_programs",
    "random_programs",
    "POLYMORPHIC_MODES",
]

ADD_SOURCE = "func add(a, b) { return a + b; }\n"

#: Arms of each polymorphic kernel's ``mode`` chain (hot ones come from
#: ``polymorphic_phases``; the rest are the cold tail of ``phase_shift``).
POLYMORPHIC_MODES = {"modal_sum": 8, "shape_walk": 7, "op_mix": 6}

#: Generator seeds and sizes of the 18 random programs: ``statements``
#: sweeps 12…40 (the program-size dimension).  Fixed, so the population
#: — and every percentile over it — is the same on every run.
RANDOM_PROGRAM_COUNT = 18
RANDOM_GENERATOR_SEED = 1000


@dataclass
class Input:
    """One call's arguments, pristine memory and independently known result."""

    args: List[int]
    memory: Memory
    expected: int
    #: Arguments for the hand-written twin (arrays as lists); ``None``
    #: when the program has no twin.
    native_args: Optional[List[object]] = None
    #: Free-form tag (``"mode=3"``, ``"warm"``, ``"violate"``).
    tag: str = ""


@dataclass
class Program:
    """One benchmark program: MiniC source, entry function and inputs."""

    name: str
    source: str
    entry: str
    group: str
    inputs: List[Input] = field(default_factory=list)

    @property
    def twin(self) -> Optional[Callable[..., int]]:
        return native.TWINS.get(self.name)


def reference_value(source: str, entry: str, args: Sequence[int], memory: Memory) -> int:
    """``entry(args)`` by the reference interpreter on the unpromoted lowering."""
    module = compile_program(source, promote=False)
    result = Interpreter(module).run(module.get(entry), list(args), memory=memory.copy())
    return result.value


def _input(
    program: Program, args: List[int], memory: Memory, length: int, tag: str = ""
) -> Input:
    twin = program.twin
    if twin is not None:
        native_args = native.native_arguments(program.name, args, memory, length)
        # The twin may write its list arguments (blend8); give the
        # expected-value call its own copy.
        fresh = [list(a) if isinstance(a, list) else a for a in native_args]
        expected = twin(*fresh)
    else:
        native_args = None
        expected = reference_value(program.source, program.entry, args, memory)
    return Input(list(args), memory, expected, native_args, tag)


def loop_programs(seed: int, *, size: int) -> List[Program]:
    """The twelve paper kernels, one seeded input each."""
    out = []
    for name in LOOP_KERNEL_NAMES:
        program = Program(name, BENCHMARK_SOURCES[name], name, "loop")
        args, memory = benchmark_arguments(name, size=size, seed=seed)
        program.inputs.append(_input(program, args, memory, size))
        out.append(program)
    return out


def _call_input(program: Program, seed: int, size: int, fib_n: int) -> Input:
    args, memory = call_kernel_arguments(program.name, size=size, seed=seed)
    if program.name == "fib":
        args = [fib_n]
    return _input(program, args, memory, size)


def call_programs(seed: int, *, size: int, fib_n: int = 10) -> List[Program]:
    """The four call-kernel modules (entry + callees: the inliner pipeline)."""
    out = []
    for name, source in CALL_KERNEL_SOURCES.items():
        program = Program(name, source, name, "call")
        program.inputs.append(_call_input(program, seed, size, fib_n))
        out.append(program)
    return out


def short_programs(seed: int) -> List[Program]:
    """The seven short-bodied kernels of ``steady_calls``."""
    rng = random.Random(seed)
    add = Program("add", ADD_SOURCE, "add", "inline")
    add.inputs.append(
        _input(add, [rng.randint(-999, 999), rng.randint(-999, 999)], Memory(), 0)
    )
    out = [add]
    for name in ("poly8", "blend8"):
        program = Program(name, STRAIGHT_LINE_SOURCES[name], name, "straight")
        args, memory = straightline_arguments(name, seed=seed)
        program.inputs.append(_input(program, args, memory, 9))
        out.append(program)
    for name in ("helper_loop", "chain", "clamp_call", "fib"):
        program = Program(name, CALL_KERNEL_SOURCES[name], name, "call")
        program.inputs.append(_call_input(program, seed, 8, 8))
        out.append(program)
    return out


def polymorphic_programs(seed: int, *, size: int = 16) -> List[Program]:
    """The three ``mode``-dispatch kernels, one input per arm (hot arms first)."""
    out = []
    for name in POLYMORPHIC_NAMES:
        program = Program(name, POLYMORPHIC_SOURCES[name], name, "poly")
        hot = list(polymorphic_phases(name))
        cold = [m for m in range(POLYMORPHIC_MODES[name]) if m not in hot]
        for mode in hot + cold:
            args, memory = polymorphic_arguments(name, mode, size=size, seed=seed)
            program.inputs.append(_input(program, args, memory, size, f"mode={mode}"))
        out.append(program)
    return out


def speculative_programs(seed: int, *, size: int = 24) -> List[Program]:
    """The three speculative kernels plus ``clamp_call``: ``[warm, violating]`` inputs."""
    out = []
    for name in SPECULATIVE_NAMES:
        program = Program(name, SPECULATIVE_SOURCES[name], name, "spec")
        for violate in (False, True):
            args, memory = speculative_arguments(name, size=size, seed=seed, violate=violate)
            program.inputs.append(
                _input(program, args, memory, size, "violate" if violate else "warm")
            )
        out.append(program)
    program = Program("clamp_call", CALL_KERNEL_SOURCES["clamp_call"], "clamp_call", "call")
    for violate in (False, True):
        args, memory = call_kernel_arguments("clamp_call", size=size, seed=seed, violate=violate)
        program.inputs.append(
            _input(program, args, memory, size, "violate" if violate else "warm")
        )
    out.append(program)
    return out


def random_programs(seed: int) -> List[Program]:
    """Eighteen generated functions, ``statements`` 12…40; seeded array contents."""
    rng = random.Random(seed)
    out = []
    for index in range(RANDOM_PROGRAM_COUNT):
        name = f"rnd{index:02d}"
        statements = 12 + (index * 28) // (RANDOM_PROGRAM_COUNT - 1)
        source = random_minic_function(
            name, RANDOM_GENERATOR_SEED + index, statements=statements
        )
        program = Program(name, source, name, "random")
        memory = Memory()
        base = memory.allocate(16)
        memory.write_array(base, [rng.randint(0, 9) for _ in range(16)])
        program.inputs.append(_input(program, [base, 8], memory, 16))
        out.append(program)
    return out
