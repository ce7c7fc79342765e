"""Tests for CFG utilities (dominance, loops) and the dataflow analyses."""


from repro.analysis import (
    available_expressions,
    available_values,
    live_variables,
    reaching_definitions,
    sccp_analysis,
)
from repro.analysis.reaching import PARAM_POINT
from repro.cfg import (
    ControlFlowGraph,
    DominatorTree,
    dominance_frontiers,
    find_loops,
    postorder,
    reverse_postorder,
)
from repro.ir import ProgramPoint, parse_function


class TestCFG:
    def test_successors_and_predecessors(self, sum_loop):
        cfg = ControlFlowGraph(sum_loop)
        assert set(cfg.succs("loop")) == {"body", "exit"}
        assert set(cfg.preds("loop")) == {"entry", "body"}
        assert cfg.exit_blocks() == ["exit"]

    def test_point_successors_within_and_across_blocks(self, sum_loop):
        cfg = ControlFlowGraph(sum_loop)
        assert cfg.point_successors(ProgramPoint("entry", 0)) == [ProgramPoint("entry", 1)]
        terminator = ProgramPoint("loop", 3)
        succs = set(cfg.point_successors(terminator))
        assert succs == {ProgramPoint("body", 0), ProgramPoint("exit", 0)}

    def test_postorder_and_reverse_postorder(self, diamond):
        cfg = ControlFlowGraph(diamond)
        po = postorder(cfg)
        rpo = reverse_postorder(cfg)
        assert rpo[0] == "entry"
        assert po[-1] == "entry"
        assert set(po) == set(diamond.block_labels())


class TestDominance:
    def test_immediate_dominators(self, diamond):
        domtree = DominatorTree(ControlFlowGraph(diamond))
        assert domtree.immediate_dominator("then") == "entry"
        assert domtree.immediate_dominator("else") == "entry"
        assert domtree.immediate_dominator("merge") == "entry"
        assert domtree.immediate_dominator("entry") is None

    def test_dominates_is_reflexive_and_transitive(self, sum_loop):
        domtree = DominatorTree(ControlFlowGraph(sum_loop))
        assert domtree.dominates("entry", "entry")
        assert domtree.dominates("entry", "exit")
        assert domtree.dominates("loop", "body")
        assert not domtree.dominates("body", "exit")

    def test_dominance_frontiers_of_diamond(self, diamond):
        domtree = DominatorTree(ControlFlowGraph(diamond))
        frontiers = dominance_frontiers(domtree)
        assert frontiers["then"] == {"merge"}
        assert frontiers["else"] == {"merge"}
        assert frontiers["entry"] == set()

    def test_loop_header_in_own_frontier(self, sum_loop):
        domtree = DominatorTree(ControlFlowGraph(sum_loop))
        frontiers = dominance_frontiers(domtree)
        assert "loop" in frontiers["body"]
        assert "loop" in frontiers["loop"]


class TestLoops:
    def test_single_loop_discovery(self, sum_loop):
        cfg = ControlFlowGraph(sum_loop)
        loops = find_loops(cfg)
        assert len(loops) == 1
        loop = loops.loops[0]
        assert loop.header == "loop"
        assert loop.body == {"loop", "body"}
        assert loop.latches == {"body"}
        assert loop.preheader == "entry"
        assert loop.exit_blocks(cfg) == ["exit"]

    def test_no_loops_in_diamond(self, diamond):
        assert len(find_loops(ControlFlowGraph(diamond))) == 0

    def test_nested_loops(self):
        src = """
        func @nested(n) {
        entry:
          jmp outer
        outer:
          i = phi [entry: 0, outer.latch: i2]
          c = (i < n)
          br c ? inner : exit
        inner:
          j = phi [outer: 0, inner: j2]
          j2 = (j + 1)
          d = (j2 < n)
          br d ? inner : outer.latch
        outer.latch:
          i2 = (i + 1)
          jmp outer
        exit:
          ret i
        }
        """
        f = parse_function(src)
        loops = find_loops(ControlFlowGraph(f))
        assert len(loops) == 2
        inner = loops.loop_with_header("inner")
        outer = loops.loop_with_header("outer")
        assert inner is not None and outer is not None
        assert inner.parent is outer
        assert inner.depth() == 2 and outer.depth() == 1


class TestLiveness:
    def test_loop_carried_values_live_at_header(self, sum_loop):
        liveness = live_variables(sum_loop)
        live = liveness.live_in(ProgramPoint("loop", 2))
        assert {"i2", "acc2", "n"} <= set(live)
        assert "i3" not in live

    def test_dead_after_last_use(self, diamond):
        liveness = live_variables(diamond)
        # After the phi, x and x2 are dead; x3 is live.
        live = liveness.live_in(ProgramPoint("merge", 1))
        assert "x3" in live and "x" not in live and "x2" not in live

    def test_phi_operand_live_out_of_predecessor_only(self, diamond):
        liveness = live_variables(diamond)
        assert "x" in liveness.block_live_out("then")
        assert "x" not in liveness.block_live_out("else")

    def test_nothing_live_after_return_uses(self, sum_loop):
        liveness = live_variables(sum_loop)
        assert liveness.live_out(ProgramPoint("exit", 0)) == frozenset()


class TestReachingDefinitions:
    def test_unique_definition_in_ssa(self, sum_loop):
        reaching = reaching_definitions(sum_loop)
        assert reaching.unique_reaching_definition(
            "acc3", ProgramPoint("exit", 0)
        ) == ProgramPoint("body", 0)

    def test_parameter_definitions(self, sum_loop):
        reaching = reaching_definitions(sum_loop)
        assert reaching.unique_reaching_definition("n", ProgramPoint("exit", 0)) == PARAM_POINT

    def test_multiple_definitions_yield_none(self):
        src = "func @f(a) {\nentry:\n  x = 1\n  x = 2\n  ret x\n}"
        f = parse_function(src)
        reaching = reaching_definitions(f)
        # At the ret, only the second definition reaches: unique.
        assert reaching.unique_reaching_definition("x", ProgramPoint("entry", 2)) == ProgramPoint("entry", 1)

    def test_branch_merges_definitions(self):
        src = """
        func @f(c) {
        entry:
          br c ? a : b
        a:
          x = 1
          jmp join
        b:
          x = 2
          jmp join
        join:
          ret x
        }
        """
        f = parse_function(src)
        reaching = reaching_definitions(f)
        assert reaching.unique_reaching_definition("x", ProgramPoint("join", 0)) is None
        assert len(reaching.definitions_of("x", ProgramPoint("join", 0))) == 2


class TestAvailabilityAndDefUse:
    def test_available_values_require_all_paths(self, diamond):
        availability = available_values(diamond)
        at_merge = availability.available_at(ProgramPoint("merge", 0))
        assert "c" in at_merge and "a" in at_merge
        assert "x" not in at_merge and "x2" not in at_merge

    def test_loop_body_defs_not_available_at_exit(self, sum_loop):
        availability = available_values(sum_loop)
        at_exit = availability.available_at(ProgramPoint("exit", 0))
        assert "acc3" not in at_exit
        assert "c" in at_exit

    def test_available_expressions(self, redundant_loop):
        table = available_expressions(redundant_loop)
        from repro.ir import parse_expr
        from repro.ir.expr import canonical_expr

        key = canonical_expr(parse_expr("n * 4"))
        assert key in table[ProgramPoint("body", 0)]


class TestSCCPAnalysis:
    def test_constant_folding_through_branches(self):
        src = """
        func @f(n) {
        entry:
          flag = 0
          br flag ? dead : live
        dead:
          x = 111
          jmp join
        live:
          x2 = 5
          jmp join
        join:
          r = phi [dead: x, live: x2]
          ret (r + 1)
        }
        """
        f = parse_function(src)
        analysis = sccp_analysis(f)
        assert not analysis.is_block_executable("dead")
        assert analysis.constant_registers().get("r") == 5

    def test_parameters_are_overdefined(self, sum_loop):
        analysis = sccp_analysis(sum_loop)
        assert analysis.value_of("n").is_bottom()
        assert analysis.value_of("i").is_const()
