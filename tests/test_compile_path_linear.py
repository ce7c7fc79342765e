"""The compile path walks a function a constant number of times.

LCSSA, ``mem2reg`` and CodeMapper correspondence used to re-walk the
whole function once per loop-defined register, once per stack slot and
once per correspondence query; CP, SCCP and CSE used to offer every
replacement to every instruction.  These tests count the walks, and the
``replace_uses`` calls that change nothing, with a monkeypatch on
synthetic functions with 8 and 64 loop-carried variables: the counts
must not grow with the variable count.  Nothing is timed.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core import OSRTransDriver
from repro.core.codemapper import ActionKind, CodeMapper, clone_for_optimization
from repro.frontend import compile_function
from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.passes import standard_pipeline
from repro.passes.constprop import ConstantPropagationPass
from repro.passes.cse import CommonSubexpressionElimination
from repro.passes.lcssa import LoopClosedSSA
from repro.passes.sccp import SparseConditionalConstantPropagation
from repro.ssa.mem2reg import promotable_allocas, promote_memory_to_registers

SIZES = (8, 64)


def _source(variables: int) -> str:
    """``variables`` accumulators updated in one loop and summed after it."""
    decls = " ".join(f"var a{j} = {j};" for j in range(variables))
    updates = " ".join(f"a{j} = a{j} + i * {j + 1};" for j in range(variables))
    total = " + ".join(f"a{j}" for j in range(variables))
    return (
        f"func f(n) {{ var i = 0; {decls} "
        f"while (i < n) {{ {updates} i = i + 1; }} return {total}; }}"
    )


def _folding_source(variables: int) -> str:
    """Like :func:`_source`, plus a constant per accumulator whose product is computed twice."""
    decls = " ".join(f"var a{j} = 0; var c{j} = {j} + 1;" for j in range(variables))
    updates = " ".join(f"a{j} = a{j} + c{j} * i + c{j} * i;" for j in range(variables))
    total = " + ".join(f"a{j}" for j in range(variables))
    return (
        f"func f(n) {{ var i = 0; {decls} "
        f"while (i < n) {{ {updates} i = i + 1; }} return {total}; }}"
    )


@pytest.fixture
def walks(monkeypatch):
    """Count calls of ``Function.instructions`` (one call is one walk)."""
    counter = Counter()
    original = Function.instructions

    def counting(self):
        counter["walks"] += 1
        return original(self)

    monkeypatch.setattr(Function, "instructions", counting)
    return counter


@pytest.fixture
def idle_rewrites(monkeypatch, walks):
    """Also count ``replace_uses`` calls that leave their instruction unchanged."""

    def patch(cls):
        original = cls.__dict__.get("replace_uses")
        if original is not None:

            def counting(self, mapping, original=original):
                before = str(self)
                result = original(self, mapping)
                walks["idle_rewrites"] += str(self) == before
                return result

            monkeypatch.setattr(cls, "replace_uses", counting)
        for subclass in cls.__subclasses__():
            patch(subclass)

    patch(Instruction)
    return walks


def _walks_per_size(walks, run):
    counts = []
    for size in SIZES:
        walks.clear()
        run(size)
        counts.append(walks["walks"])
    return counts


def test_lcssa_walks_do_not_grow_with_loop_registers(walks):
    added = {}

    def run(size):
        clone, mapper = clone_for_optimization(compile_function(_source(size)))
        LoopClosedSSA().run(clone, mapper)
        added[size] = mapper.action_counts()[ActionKind.ADD]

    small, large = _walks_per_size(walks, run)
    assert added[64] > added[8] >= 8  # every accumulator was closed
    assert small == large


def test_promotable_allocas_walks_do_not_grow_with_slots(walks):
    found = {}

    def run(size):
        found[size] = len(promotable_allocas(compile_function(_source(size), promote=False)))

    small, large = _walks_per_size(walks, run)
    assert found[64] > found[8] >= 8
    assert small == large


def test_mem2reg_walks_do_not_grow_with_slots(walks):
    def run(size):
        assert promote_memory_to_registers(compile_function(_source(size), promote=False))

    small, large = _walks_per_size(walks, run)
    assert small == large


@pytest.mark.parametrize(
    "pass_class",
    [ConstantPropagationPass, SparseConditionalConstantPropagation, CommonSubexpressionElimination],
)
def test_rewrites_touch_only_users(idle_rewrites, pass_class):
    replaced = {}
    idle = []

    def run(size):
        clone, mapper = clone_for_optimization(compile_function(_folding_source(size)))
        idle_rewrites.clear()
        assert pass_class().run(clone, mapper)
        replaced[size] = mapper.action_counts()[ActionKind.REPLACE]
        idle.append(idle_rewrites["idle_rewrites"])

    small, large = _walks_per_size(idle_rewrites, run)
    assert replaced[64] > replaced[8] >= 8  # every accumulator's constant or product
    assert small == large
    assert idle == [0, 0]


@pytest.mark.parametrize("size", SIZES)
def test_mappings_index_each_function_once(monkeypatch, size):
    pair = OSRTransDriver(standard_pipeline()).run(compile_function(_source(size)))
    built = Counter()
    build = CodeMapper._build_uid_index

    def counting(function):
        built[function.name] += 1
        return build(function)

    monkeypatch.setattr(CodeMapper, "_build_uid_index", staticmethod(counting))
    assert len(pair.forward_mapping()) > 0
    assert max(built.values()) == 1
    pair.backward_mapping()
    pair.deopt_plans()
    assert set(built) == {pair.base.name, pair.optimized.name}
    assert max(built.values()) == 1
