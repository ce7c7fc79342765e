"""Tests for mem2reg, the OSR-aware passes, CodeMapper and IR-level OSR."""

import pytest

from repro.cfg import ControlFlowGraph, find_loops
from repro.core import (
    ActionKind,
    CompensationCode,
    OSRPointClass,
    OSRTransDriver,
    ReconstructionMode,
    clone_for_optimization,
    make_continuation,
    perform_osr,
    split_block,
)
from repro.core.bisimulation import check_ir_osr_transition
from repro.ir import (
    Assign,
    Const,
    Interpreter,
    Memory,
    ProgramPoint,
    Var,
    parse_function,
    run_function,
    verify_function,
)
from repro.passes import (
    AggressiveDCE,
    CommonSubexpressionElimination,
    ConstantPropagationPass,
    LoopCanonicalization,
    LoopClosedSSA,
    LoopInvariantCodeMotion,
    CodeSinking,
    PassManager,
    SparseConditionalConstantPropagation,
    standard_pipeline,
)
from repro.ssa import promotable_allocas, promote_memory_to_registers


ALLOCA_SRC = """
func @count(n) {
entry:
  i.addr = alloca 1
  s.addr = alloca 1
  store i.addr, 0
  store s.addr, 0
  jmp cond
cond:
  i0 = load i.addr
  c = (i0 < n)
  br c ? body : done
body:
  s0 = load s.addr
  i1 = load i.addr
  store s.addr, (s0 + i1)
  store i.addr, (i1 + 1)
  jmp cond
done:
  s1 = load s.addr
  ret s1
}
"""


class TestMem2Reg:
    def test_promotes_all_scalar_slots(self):
        f = parse_function(ALLOCA_SRC)
        assert len(promotable_allocas(f)) == 2
        promoted = promote_memory_to_registers(f)
        assert promoted == 2
        verify_function(f, require_ssa=True)
        assert not any(i.accesses_memory() for _, i in f.instructions())

    def test_promotion_preserves_semantics(self):
        original = parse_function(ALLOCA_SRC)
        promoted = parse_function(ALLOCA_SRC)
        promote_memory_to_registers(promoted)
        for n in (0, 1, 7, 20):
            assert run_function(original, [n]).value == run_function(promoted, [n]).value

    def test_escaping_alloca_is_not_promoted(self):
        src = """
        func @escape(n) {
        entry:
          p = alloca 1
          store p, n
          r = call @use(p)
          ret r
        }
        """
        f = parse_function(src)
        assert promotable_allocas(f) == []
        assert promote_memory_to_registers(f) == 0


def _check_pass_preserves_semantics(pass_obj, function, inputs, memory_factory=None):
    clone, mapper = clone_for_optimization(function)
    pass_obj.run(clone, mapper)
    verify_function(clone, require_ssa=True)
    for args in inputs:
        mem_a = memory_factory() if memory_factory else None
        mem_b = memory_factory() if memory_factory else None
        expected = run_function(function, args, memory=mem_a).value
        actual = run_function(clone, args, memory=mem_b).value
        assert actual == expected, f"{pass_obj.name} changed semantics on {args}"
    return clone, mapper


class TestIndividualPasses:
    def test_adce_removes_dead_code(self):
        src = "func @f(a) {\nentry:\n  dead = (a * 99)\n  live = (a + 1)\n  ret live\n}"
        f = parse_function(src)
        clone, mapper = _check_pass_preserves_semantics(AggressiveDCE(), f, [[3], [0]])
        assert clone.num_instructions() == f.num_instructions() - 1
        assert mapper.action_counts()[ActionKind.DELETE] == 1

    def test_constant_propagation_folds_and_deletes(self):
        src = "func @f(a) {\nentry:\n  c = 10\n  d = (c * 2)\n  r = (a + d)\n  ret r\n}"
        f = parse_function(src)
        clone, mapper = _check_pass_preserves_semantics(ConstantPropagationPass(), f, [[5]])
        assert mapper.action_counts()[ActionKind.REPLACE] >= 1
        assert clone.num_instructions() < f.num_instructions()

    def test_cse_removes_redundant_expression(self, redundant_loop):
        mem = Memory()
        base = mem.allocate(16)
        mem.write_array(base, list(range(16)))
        clone, mapper = _check_pass_preserves_semantics(
            CommonSubexpressionElimination(),
            redundant_loop,
            [[8, base]],
            memory_factory=lambda: mem.copy(),
        )
        assert mapper.action_counts()[ActionKind.DELETE] >= 1
        texts = [str(i) for _, i in clone.instructions()]
        assert sum("(n * 4)" in t for t in texts) <= 1

    def test_loop_canonicalization_creates_one_preheader(self):
        """A header with two outside predecessors gets one preheader (with
        forwarding phis); MiniC never produces this shape, hand-written IR does."""
        src = """
        func @f(a, n) {
        entry:
          zero = 0
          c = (a < 0)
          br c ? neg : pos
        neg:
          s0 = (0 - a)
          jmp loop
        pos:
          s1 = (a * 2)
          jmp loop
        loop:
          i = phi [neg: zero, pos: zero, body: i2]
          s = phi [neg: s0, pos: s1, body: s2]
          more = (i < n)
          br more ? body : exit
        body:
          s2 = (s + i)
          i2 = (i + 1)
          jmp loop
        exit:
          ret s
        }
        """
        f = parse_function(src)
        clone, mapper = _check_pass_preserves_semantics(
            LoopCanonicalization(), f, [[-3, 4], [5, 4], [7, 0]]
        )
        cfg = ControlFlowGraph(clone)
        (loop,) = find_loops(cfg)
        assert loop.preheader is not None
        assert [p for p in cfg.preds("loop") if p not in loop.body] == [loop.preheader]
        assert set(cfg.preds(loop.preheader)) == {"neg", "pos"}
        # The preheader's jump, plus one forwarding phi per header phi.
        assert mapper.action_counts()[ActionKind.ADD] == 3
        assert not LoopCanonicalization().run(clone)  # already canonical

    def test_licm_hoists_invariant_computation(self, redundant_loop):
        pipeline = PassManager([LoopCanonicalization(), LoopInvariantCodeMotion()])
        clone, mapper = clone_for_optimization(redundant_loop)
        pipeline.run(clone, mapper)
        verify_function(clone, require_ssa=True)
        assert mapper.action_counts()[ActionKind.HOIST] >= 1
        body_texts = [str(i) for i in clone.blocks["body"].instructions]
        assert not any("(n * 4)" in t for t in body_texts)

    def test_sccp_removes_unreachable_branch(self):
        src = """
        func @f(n) {
        entry:
          flag = 0
          br flag ? dead : live
        dead:
          x = 111
          jmp join
        live:
          x2 = (n + 5)
          jmp join
        join:
          r = phi [dead: x, live: x2]
          ret r
        }
        """
        f = parse_function(src)
        clone, mapper = _check_pass_preserves_semantics(
            SparseConditionalConstantPropagation(), f, [[1], [10]]
        )
        assert "dead" not in clone.block_labels()
        assert mapper.action_counts()[ActionKind.DELETE] >= 2

    def test_sinking_moves_value_towards_use(self):
        src = """
        func @f(a, b) {
        entry:
          expensive = (a * a)
          c = (b > 0)
          br c ? use : skip
        use:
          r = (expensive + 1)
          ret r
        skip:
          ret b
        }
        """
        f = parse_function(src)
        clone, mapper = _check_pass_preserves_semantics(CodeSinking(), f, [[3, 1], [3, -1]])
        assert mapper.action_counts()[ActionKind.SINK] == 1
        assert not any(
            "(a * a)" in str(i) for i in clone.blocks["entry"].instructions
        )

    def test_lcssa_inserts_single_value_phi(self, sum_loop):
        clone, mapper = clone_for_optimization(sum_loop)
        LoopClosedSSA().run(clone, mapper)
        verify_function(clone, require_ssa=True)
        assert mapper.action_counts()[ActionKind.ADD] >= 1
        exit_phis = clone.blocks["exit"].phis()
        assert exit_phis and len(exit_phis[0].incoming) == 1
        assert run_function(clone, [9]).value == run_function(sum_loop, [9]).value

    def test_full_pipeline_on_every_fixture(self, sum_loop, diamond, redundant_loop):
        mem = Memory()
        base = mem.allocate(16)
        mem.write_array(base, [i * 2 for i in range(16)])
        cases = [
            (sum_loop, [[12]], None),
            (diamond, [[2, 9], [9, 2]], None),
            (redundant_loop, [[10, base]], lambda: mem.copy()),
        ]
        for function, inputs, factory in cases:
            _check_pass_preserves_semantics(
                PassManager(standard_pipeline()), function, inputs, factory
            )


class TestCodeMapper:
    def test_action_counts_and_aliases(self, redundant_loop):
        pair = OSRTransDriver(standard_pipeline()).run(redundant_loop)
        counts = pair.mapper.action_counts()
        assert counts[ActionKind.DELETE] >= 1
        assert counts[ActionKind.REPLACE] >= 1
        assert "k2" in pair.mapper.aliases  # CSE replaced k2 by k

    def test_point_correspondence_forward_and_backward(self, redundant_loop):
        pair = OSRTransDriver(standard_pipeline()).run(redundant_loop)
        # The load survives optimization: its point maps in both directions.
        load_point = ProgramPoint("body", 1)
        forward = pair.mapper.corresponding_optimized_point(load_point)
        assert forward is not None
        back = pair.mapper.corresponding_original_point(forward)
        assert back is not None and back.block == "body"

    def test_correspondence_skips_phi_runs(self, sum_loop):
        pair = OSRTransDriver(standard_pipeline()).run(sum_loop)
        target = pair.mapper.corresponding_optimized_point(ProgramPoint("loop", 0))
        assert target is not None
        inst = pair.optimized.instruction_at(target)
        from repro.ir import Phi

        assert not isinstance(inst, Phi)

    def test_deleting_added_instruction_cancels_out(self, sum_loop):
        clone, mapper = clone_for_optimization(sum_loop)
        inst = Assign(clone.fresh_temp(), Const(1))
        clone.blocks["entry"].insert(0, inst)
        mapper.add_instruction(inst)
        mapper.delete_instruction(inst)
        assert inst.uid not in mapper.added
        assert inst.uid not in mapper.deleted


class TestReconstructAndMappings:
    def test_compensation_rebuilds_deleted_computation(self, redundant_loop):
        pair = OSRTransDriver(standard_pipeline()).run(redundant_loop)
        mapping = pair.forward_mapping(ReconstructionMode.LIVE)
        # Some point must need a non-empty compensation (e.g. rebuilding k).
        assert any(entry.compensation.size > 0 for _, entry in mapping.entries())

    def test_live_mode_never_uses_keep_alive(self, redundant_loop):
        pair = OSRTransDriver(standard_pipeline()).run(redundant_loop)
        mapping = pair.forward_mapping(ReconstructionMode.LIVE)
        assert all(not entry.compensation.keep_alive for _, entry in mapping.entries())

    def test_avail_mode_covers_at_least_live_mode(self, redundant_loop):
        pair = OSRTransDriver(standard_pipeline()).run(redundant_loop)
        live_mapping = pair.forward_mapping(ReconstructionMode.LIVE)
        avail_mapping = pair.forward_mapping(ReconstructionMode.AVAIL)
        assert len(avail_mapping) >= len(live_mapping)

    def test_classify_point_classes(self, redundant_loop):
        pair = OSRTransDriver(standard_pipeline()).run(redundant_loop)
        classes = {r.point_class for r in pair.report()}
        assert OSRPointClass.EMPTY in classes or OSRPointClass.LIVE in classes

    def test_compensation_code_object(self):
        code = CompensationCode.of([("x", Const(2)), ("y", Var("x"))], keep_alive=["k"])
        assert code.size == 2
        assert code.defined_variables() == ["x", "y"]
        assert code.input_variables() == frozenset()
        env = code.apply_to({"k": 9})
        assert env["y"] == 2
        composed = code.then(CompensationCode.of([("z", Var("y"))]))
        assert composed.size == 3

    def test_transfer_restricts_to_destination_live_set(self, redundant_loop):
        pair = OSRTransDriver(standard_pipeline()).run(redundant_loop)
        mapping = pair.forward_mapping(ReconstructionMode.AVAIL)
        point = next(iter(mapping.domain()))
        paused = Interpreter().run(redundant_loop, [4, 1], break_at=point)
        if paused.stopped_at is not None:
            landing = mapping.transfer(point, paused.env)
            live = pair.opt_view.live_in(mapping[point].target)
            assert set(landing) <= set(live)


class TestOSRTransitions:
    def _memory(self):
        mem = Memory()
        base = mem.allocate(16)
        mem.write_array(base, [3 * i for i in range(16)])
        return mem, base

    def test_end_to_end_transitions_at_every_mapped_point(self, redundant_loop):
        pair = OSRTransDriver(standard_pipeline()).run(redundant_loop)
        mem, base = self._memory()
        mapping = pair.forward_mapping(ReconstructionMode.AVAIL)
        assert len(mapping) > 0
        for point in mapping.domain():
            assert check_ir_osr_transition(
                redundant_loop,
                pair.optimized,
                mapping,
                point,
                [10, base],
                memory=mem,
            ), f"forward OSR at {point} diverged"

    def test_deoptimizing_transitions(self, redundant_loop):
        pair = OSRTransDriver(standard_pipeline()).run(redundant_loop)
        mem, base = self._memory()
        mapping = pair.backward_mapping(ReconstructionMode.AVAIL)
        assert len(mapping) > 0
        for point in mapping.domain():
            assert check_ir_osr_transition(
                pair.optimized,
                redundant_loop,
                mapping,
                point,
                [10, base],
                memory=mem,
            ), f"deoptimizing OSR at {point} diverged"

    def test_split_block_preserves_execution(self, sum_loop):
        point = ProgramPoint("body", 1)
        expected = run_function(sum_loop, [9]).value
        split_block(sum_loop, point)
        verify_function(sum_loop)
        assert run_function(sum_loop, [9]).value == expected

    def test_continuation_function_runs_compensation(self, redundant_loop):
        pair = OSRTransDriver(standard_pipeline()).run(redundant_loop)
        mem, base = self._memory()
        mapping = pair.forward_mapping(ReconstructionMode.AVAIL)
        point = ProgramPoint("body", 1)
        if point not in mapping:
            pytest.skip("body:1 not mapped under this pipeline")
        expected = run_function(redundant_loop, [10, base], memory=mem.copy()).value
        result = perform_osr(
            redundant_loop,
            pair.optimized,
            mapping,
            point,
            [10, base],
            memory=mem.copy(),
            use_continuation=True,
        )
        assert result.value == expected

    def test_continuation_prunes_unreachable_blocks(self, redundant_loop):
        pair = OSRTransDriver(standard_pipeline()).run(redundant_loop)
        mapping = pair.forward_mapping(ReconstructionMode.AVAIL)
        point = next(iter(mapping.domain()))
        entry = mapping[point]
        live = sorted(mapping.source_view.live_in(point))
        info = make_continuation(pair.optimized, entry.target, entry.compensation, live)
        verify_function(info.function)
        assert info.pruned_blocks >= 0
        assert info.function.entry_label.startswith("osr.entry")
