"""Golden-file tests for the closure compiler's emitter.

The emitter's whole value proposition is the *shape* of the code it
generates — real ``while`` loops, nested ``if``/``else``, phis lowered
to parallel moves on edges — and shape is exactly what the behavioural
suites cannot see: a regression that quietly degrades a reconstructed
loop passes every differential test while silently giving back the
speedup.  These tests pin the emitted source for representative kernels
against checked-in golden files:

* ``loop_sum`` — a counted loop whose body branches (phis at the header
  and at an interior join, a fused compare+branch guarding the back
  edge);
* ``nested_if`` — nested branch regions closing at their immediate
  postdominator joins, no loop;
* an OSR entry stub into ``loop_sum`` mid-iteration — the remainder of
  the interrupted iteration peeled straight-line, then the loop
  re-entered as a freshly reconstructed construct.

``irreducible`` — a two-entry cycle, which only hand-written IR can
contain — has no structured form: the compiler refuses it and the
compiled backend runs it on the interpreter.

To regenerate after an intentional emitter change::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_structured_codegen.py

then review the diff like any other code change — the goldens *are*
generated code, checked in so CI diffs them.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

import pytest

from repro.cfg import ControlFlowGraph, DominatorTree, UnstructurableCFG, is_reducible
from repro.ir import Interpreter, parse_function
from repro.ir.function import ProgramPoint
from repro.vm import CompiledBackend, closure_compile

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
UPDATE_ENV = "REPRO_UPDATE_GOLDENS"

LOOP_SUM = """
func @loop_sum(n) {
entry:
  jmp head
head:
  %i.0 = phi [entry: 0, latch: %i.1]
  %acc.0 = phi [entry: 0, latch: %acc.1]
  %t0 = (%i.0 < n)
  br %t0 ? body : exit
body:
  %t1 = (%i.0 % 2)
  %t2 = (%t1 < 1)
  br %t2 ? even : odd
even:
  %t3 = (%acc.0 + %i.0)
  jmp latch
odd:
  %t4 = (%acc.0 - 1)
  jmp latch
latch:
  %acc.1 = phi [even: %t3, odd: %t4]
  %i.1 = (%i.0 + 1)
  jmp head
exit:
  ret %acc.0
}
"""

NESTED_IF = """
func @nested_if(a, b) {
entry:
  %t0 = (a < b)
  br %t0 ? outer_then : outer_else
outer_then:
  %t1 = (a < 10)
  br %t1 ? inner_then : inner_else
inner_then:
  %x.0 = (a * 2)
  jmp inner_join
inner_else:
  %x.1 = (a + 3)
  jmp inner_join
inner_join:
  %x.2 = phi [inner_then: %x.0, inner_else: %x.1]
  jmp outer_join
outer_else:
  %y.0 = (b * 5)
  jmp outer_join
outer_join:
  %r = phi [inner_join: %x.2, outer_else: %y.0]
  ret %r
}
"""

# A cycle with two distinct entry edges (entry -> a and entry -> b):
# neither a nor b dominates the other, so the back edges are not
# retreating edges of any natural loop and the CFG is irreducible.
IRREDUCIBLE = """
func @irreducible(n) {
entry:
  %t0 = (n < 10)
  br %t0 ? a : b
a:
  %xa = phi [entry: 0, b: %xb2]
  %xa2 = (%xa + 1)
  %t1 = (%xa2 > 20)
  br %t1 ? done : b
b:
  %xb = phi [entry: n, a: %xa2]
  %xb2 = (%xb + 2)
  %t2 = (%xb2 > 20)
  br %t2 ? done : a
done:
  %r = phi [a: %xa2, b: %xb2]
  ret %r
}
"""


def assert_matches_golden(name: str, source: str) -> None:
    """Diff ``source`` against ``tests/golden/<name>``; regen on demand."""
    path = GOLDEN_DIR / name
    if os.environ.get(UPDATE_ENV):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(source)
        return
    assert path.exists(), (
        f"missing golden file {path}; run with {UPDATE_ENV}=1 to create it"
    )
    expected = path.read_text()
    assert source == expected, (
        f"generated code for {name} diverged from the golden file; if the "
        f"change is intentional, regenerate with {UPDATE_ENV}=1 and review "
        f"the diff"
    )


class TestStructuredGoldens:
    def test_loop_kernel_structured(self):
        function = parse_function(LOOP_SUM)
        compiled = CompiledBackend().compiled_artifact(function)
        assert_matches_golden("loop_sum_structured.py.txt", compiled.source)
        # Shape assertions on top of the byte-for-byte diff: the loop is
        # a real `while` and the guarding compare+branch was fused.
        assert "while True:" in compiled.source
        assert "if r__pi_d0 < r_n:" in compiled.source
        result = compiled([9], None)
        assert result.value == Interpreter().run(function, [9]).value

    def test_loop_kernel_reads_like_its_native_twin(self):
        source = CompiledBackend().compiled_artifact(parse_function(LOOP_SUM)).source
        # Memory is the Memory's own dict, not its methods.
        assert "_memory.load" not in source and "_memory.store" not in source
        assert "_cells = _memory.cells; _mload = _cells.get" in source
        # `% 2` is Python's behind a sign test; the helper is left only
        # for a negative dividend.
        assert "(r__pi_d0 % 2 if r__pi_d0 >= 0 else _irem(r__pi_d0, 2))" in source
        assert not re.search(r"(?<!else )_irem\(\w+, [1-9][0-9]*\)", source)
        # No comparison is read for its truth through an int coercion.
        assert "(+(" not in source

    def test_prev_is_written_only_where_a_guard_reads_it(self, guarded_loop):
        source = CompiledBackend().compiled_artifact(guarded_loop).source
        # `head` has two predecessors: its guard reads `_prev`, which the
        # edge from `entry` and the slow copy's back edge write.  The fast
        # copy unswitched that guard out, so its back edge writes nothing.
        assert source.count("_prev = 'entry'") == 1
        assert source.count("_prev = 'body'") == 1
        assert "_prev = 'head'" not in source
        # `body` has one: its guard names it.
        assert "if r_k == 3:" in source
        assert "_memory, 'head', reason=" in source

    def test_nested_if_structured(self):
        function = parse_function(NESTED_IF)
        compiled = CompiledBackend().compiled_artifact(function)
        assert_matches_golden("nested_if_structured.py.txt", compiled.source)
        assert "while True:" not in compiled.source  # no loop, no loop code
        for args in ([3, 7], [15, 20], [9, 2]):
            result = compiled(list(args), None)
            assert result.value == Interpreter().run(function, args).value

    def test_irreducible_runs_on_the_interpreter(self):
        function = parse_function(IRREDUCIBLE)
        cfg = ControlFlowGraph(function)
        assert not is_reducible(cfg, DominatorTree(cfg))
        with pytest.raises(UnstructurableCFG):
            CompiledBackend().compiled_artifact(function)
        backend = CompiledBackend()
        for n in (0, 15):  # both sides of `n < 10`: both entries of the cycle
            reference = Interpreter().run(function, [n])
            assert backend.run(function, [n]).value == reference.value
            assert backend.prepare(function)([n]).value == reference.value
            # Land inside the cycle, on the entered side.
            point = ProgramPoint("a" if n < 10 else "b", 1)
            paused = Interpreter().run(function, [n], break_at=point)
            resumed = backend.run_from(function, point, paused.env)
            assert resumed.value == reference.value

    def test_an_unstructurable_refusal_is_remembered(self, monkeypatch):
        built = []

        class CountingEmitter(closure_compile._StructuredEmitter):
            def __init__(self, function, entry):
                built.append(entry)
                super().__init__(function, entry)

        monkeypatch.setattr(closure_compile, "_StructuredEmitter", CountingEmitter)
        function = parse_function(IRREDUCIBLE)
        backend = CompiledBackend()
        point = ProgramPoint("a", 1)
        paused = Interpreter().run(function, [0], break_at=point)
        for _ in range(5):
            backend.run(function, [0])
            backend.run_from(function, point, paused.env)
        assert built == [None, point]  # one refusal per entry, each cached
        with pytest.raises(UnstructurableCFG):
            backend.compiled_artifact(function)
        backend.discard(function)  # drops refusals as it drops artifacts
        backend.run(function, [0])
        assert built == [None, point, None]

    def test_osr_entry_stub_structured(self):
        function = parse_function(LOOP_SUM)
        # Land mid-iteration, after `%t1 = (%i.0 % 2)` — the stub must
        # peel the rest of the interrupted iteration straight-line and
        # then re-enter the loop as a freshly reconstructed construct.
        point = ProgramPoint("body", 1)
        compiled = CompiledBackend().compiled_artifact(function, point)
        assert_matches_golden("loop_sum_osr_structured.py.txt", compiled.source)
        # Resume at i=4 (%t1 = 4 % 2 = 0 already computed); register keys
        # keep their IR spelling, params are bare names.
        env = {"%i.0": 4, "%acc.0": 4, "%t1": 0, "n": 9}
        result = compiled(dict(env), None, None)
        reference = Interpreter().resume(function, point, dict(env))
        assert result.value == reference.value


class TestGoldenHygiene:
    def test_goldens_exist_and_are_nonempty(self):
        names = [
            "loop_sum_structured.py.txt",
            "nested_if_structured.py.txt",
            "loop_sum_osr_structured.py.txt",
        ]
        for name in names:
            path = GOLDEN_DIR / name
            assert path.exists(), f"golden file {name} is missing"
            assert path.read_text().strip(), f"golden file {name} is empty"

    def test_update_mode_is_off_in_ci(self):
        # A CI job running with the regen switch set would vacuously pass
        # every diff; make that misconfiguration loud.
        if os.environ.get("CI"):
            assert not os.environ.get(UPDATE_ENV), (
                f"{UPDATE_ENV} must not be set in CI"
            )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
