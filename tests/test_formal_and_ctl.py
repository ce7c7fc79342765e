"""Tests for the formal language (Section 2), CTL checking and Figure 5 rules."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ctl import (
    AU,
    EU,
    EX,
    AX,
    BackAU,
    BackAX,
    BackEU,
    BackEX,
    FALSE,
    FormalProgramGraph,
    Implies,
    ModelChecker,
    Or,
    TRUE,
    formal_defines,
    formal_lives,
    formal_uses,
)
from repro.formal import (
    FAssign,
    FSkip,
    FormalAbort,
    FormalProgram,
    UndefinedSemantics,
    check_live_store_replacement,
    check_live_variable_bisimulation,
    check_mapping_soundness,
    compose,
    formal_live_variables,
    formal_unique_reaching_definition,
    parse_formal_program,
    random_formal_program,
    random_stores,
    run_formal,
    semantically_equivalent_on,
    trace_formal,
)
from repro.core import ReconstructionMode
from repro.rewrite import (
    CodeHoisting,
    ConstantPropagation,
    DeadCodeElimination,
    apply_rule,
    osr_trans_formal,
)

SUM_PROGRAM = """
in n
i := 0
s := 0
if (i >= n) goto 8
s := s + i
i := i + 1
goto 4
out s
"""

# A program with a constant definition, a dead assignment and a hoistable
# computation — one application site for each Figure 5 rule.
FIG5_PROGRAM = """
in a b
k := 10
skip
d := a * a
x := k + 1
dead := x * 99
y := d + x
out y
"""


class TestFormalSemantics:
    def test_run_sum(self):
        program = parse_formal_program(SUM_PROGRAM)
        assert run_formal(program, {"n": 5}) == {"s": 10}
        assert run_formal(program, {"n": 0}) == {"s": 0}

    def test_trace_structure(self):
        program = parse_formal_program(SUM_PROGRAM)
        trace = trace_formal(program, {"n": 2})
        assert trace[0].point == 1
        assert trace[-1].point == len(program) + 1

    def test_missing_input_is_undefined(self):
        program = parse_formal_program(SUM_PROGRAM)
        with pytest.raises(UndefinedSemantics):
            run_formal(program, {})

    def test_abort(self):
        program = parse_formal_program("in x\nabort\nout x")
        with pytest.raises(FormalAbort):
            run_formal(program, {"x": 1})

    def test_program_validation(self):
        with pytest.raises(ValueError):
            FormalProgram([FAssign("x", None)])  # no in/out

    def test_successors_of_conditional(self):
        program = parse_formal_program(SUM_PROGRAM)
        assert set(program.successors(4)) == {5, 8}

    def test_composition_semantics(self):
        first = parse_formal_program("in a\nx := a + 1\nout x")
        second = parse_formal_program("in x\ny := x * 2\nout y")
        composed = compose(first, second)
        assert run_formal(composed, {"a": 3}) == {"y": 8}

    def test_composition_relocates_goto_targets(self):
        """Definition 3.3 shifts the second program's jump targets by |p| - 2."""
        first = parse_formal_program("in a\nskip\nn := a + 1\nout n")
        composed = compose(first, parse_formal_program(SUM_PROGRAM))
        assert run_formal(composed, {"a": 4}) == {"s": 10}
        assert run_formal(composed, {"a": -1}) == {"s": 0}

    def test_text_round_trip(self):
        program = parse_formal_program(
            "in x\nif (x > 0) goto 4\nabort\ny := x * 2\ngoto 6\nout y"
        )
        assert parse_formal_program(str(program)) == program
        assert parse_formal_program(SUM_PROGRAM) != program

    def test_composition_requires_matching_interface(self):
        first = parse_formal_program("in a\nx := a + 1\nout x")
        wrong = parse_formal_program("in z\ny := z\nout y")
        with pytest.raises(ValueError):
            compose(first, wrong)


class TestTheorem32:
    """Theorem 3.2: restricting the store to live variables preserves the output."""

    def test_on_sum_program(self):
        program = parse_formal_program(SUM_PROGRAM)
        assert check_live_store_replacement(program, {"n": 6})

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(-8, 8), st.integers(-8, 8))
    def test_on_random_programs(self, seed, x, y):
        program = random_formal_program(seed, length=9)
        store = {"x": x, "y": y}
        try:
            run_formal(program, store)
        except (FormalAbort, UndefinedSemantics, ZeroDivisionError):
            return  # only meaningful for well-defined runs
        try:
            assert check_live_store_replacement(program, store)
        except ZeroDivisionError:
            return


class TestFormalAnalyses:
    def test_live_variables_of_sum(self):
        program = parse_formal_program(SUM_PROGRAM)
        live = formal_live_variables(program)
        assert live[4] == {"i", "s", "n"}
        assert live[8] == {"s"}

    def test_unique_reaching_definition(self):
        program = parse_formal_program(SUM_PROGRAM)
        assert formal_unique_reaching_definition(program, "n", 4) == 1
        # i has two reaching definitions at the loop test (init + increment).
        assert formal_unique_reaching_definition(program, "i", 4) is None


class TestCTLChecker:
    def test_lives_formula_matches_dataflow_on_loop_free_code(self):
        """On acyclic code the Figure 3 formula coincides with dataflow liveness."""
        program = parse_formal_program(FIG5_PROGRAM)
        checker = ModelChecker(FormalProgramGraph(program))
        live = formal_live_variables(program)
        for var in ("a", "b", "x", "d", "y"):
            sat = checker.sat(formal_lives(program, var))
            for point in program.points():
                if point == 1:
                    # At the `in` boundary the CTL formula counts the input
                    # declaration as a definition while the dataflow
                    # analysis does not kill there; skip the boundary.
                    continue
                assert (point in sat) == (var in live[point]), (var, point)

    def test_lives_formula_is_sound_with_loops(self):
        """With cycles the strong-until reading is conservative: every point the
        CTL formula accepts is genuinely live (but not necessarily vice versa)."""
        program = parse_formal_program(SUM_PROGRAM)
        checker = ModelChecker(FormalProgramGraph(program))
        live = formal_live_variables(program)
        for var in ("i", "s", "n"):
            sat = checker.sat(formal_lives(program, var))
            for point in sat:
                assert var in live[point], (var, point)

    def test_ex_and_ax(self):
        program = parse_formal_program(SUM_PROGRAM)
        checker = ModelChecker(FormalProgramGraph(program))
        defines_s = formal_defines(program, "s")
        # Point 2 (i := 0) has successor 3 (s := 0), which defines s.
        assert checker.holds_at(2, EX(defines_s))
        assert checker.holds_at(2, AX(defines_s))

    def test_backward_operators(self):
        program = parse_formal_program(SUM_PROGRAM)
        checker = ModelChecker(FormalProgramGraph(program))
        defined_before = BackAX(BackAU(TRUE, formal_defines(program, "s")))
        assert checker.holds_at(5, defined_before)
        assert not checker.holds_at(2, defined_before)

    def test_formulas_render_in_the_papers_notation(self):
        program = parse_formal_program(SUM_PROGRAM)
        d, u = formal_defines(program, "s"), formal_uses(program, "s")
        assert str(formal_lives(program, "s")) == (
            "(←AX(←A(true U def(s))) ∧ E(¬(def(s)) U use(s)))"
        )
        assert str(Implies(d, Or(u, FALSE))) == "(def(s) ⇒ (use(s) ∨ false))"
        assert str(AX(EX(AU(TRUE, d)))) == "AX(EX(A(true U def(s))))"
        assert str(BackEX(BackEU(d, u))) == "←EX(←E(def(s) U use(s)))"

    def test_strong_until_requires_goal(self):
        program = parse_formal_program("in x\nskip\nskip\nout x")
        checker = ModelChecker(FormalProgramGraph(program))
        never = formal_defines(program, "zzz")
        assert checker.sat(AU(TRUE, never)) == frozenset()
        assert checker.sat(EU(TRUE, never)) == frozenset()


class TestFigure5Rules:
    def test_constant_propagation_fires(self):
        program = parse_formal_program(FIG5_PROGRAM)
        result = apply_rule(program, ConstantPropagation())
        assert result.applications
        transformed = result.transformed
        assert "k + 1" not in str(transformed)
        assert semantically_equivalent_on(
            program, transformed, random_stores(["a", "b"], count=8)
        )

    def test_dead_code_elimination_fires(self):
        program = parse_formal_program(FIG5_PROGRAM)
        result = apply_rule(program, DeadCodeElimination())
        assert any(isinstance(result.transformed[p], FSkip) for p in result.changed_points())
        assert semantically_equivalent_on(
            program, result.transformed, random_stores(["a", "b"], count=8)
        )

    def test_hoisting_fires_and_preserves_semantics(self):
        program = parse_formal_program(FIG5_PROGRAM)
        result = apply_rule(program, CodeHoisting(), exhaustive=False)
        assert result.applications, "hoisting should find the skip slot"
        assert semantically_equivalent_on(
            program, result.transformed, random_stores(["a", "b"], count=8)
        )

    def test_rules_are_live_variable_equivalent(self):
        """Theorem 4.5, checked empirically: CP, DCE and Hoist yield LVB programs."""
        program = parse_formal_program(FIG5_PROGRAM)
        stores = random_stores(["a", "b"], count=6)
        for rule in (ConstantPropagation(), DeadCodeElimination(), CodeHoisting()):
            result = apply_rule(program, rule)
            assert check_live_variable_bisimulation(
                program, result.transformed, stores
            ), rule.name

    def test_dce_does_not_remove_live_assignments(self):
        program = parse_formal_program("in a\nx := a + 1\ny := x * 2\nout y")
        result = apply_rule(program, DeadCodeElimination())
        assert result.applications == []


class TestFormalOSRTrans:
    def test_mappings_are_sound_for_the_full_rule_set(self):
        program = parse_formal_program(FIG5_PROGRAM)
        rules = [ConstantPropagation(), DeadCodeElimination(), CodeHoisting()]
        result = osr_trans_formal(program, rules, mode=ReconstructionMode.LIVE)
        stores = random_stores(["a", "b"], count=6)
        assert len(result.forward) > 0
        assert len(result.backward) > 0
        assert check_mapping_soundness(
            result.original, result.transformed, result.forward, stores
        )
        assert check_mapping_soundness(
            result.transformed, result.original, result.backward, stores
        )

    def test_avail_mode_covers_at_least_as_many_points(self):
        program = parse_formal_program(FIG5_PROGRAM)
        rules = [ConstantPropagation(), DeadCodeElimination(), CodeHoisting()]
        live_result = osr_trans_formal(program, rules, mode=ReconstructionMode.LIVE)
        avail_result = osr_trans_formal(program, rules, mode=ReconstructionMode.AVAIL)
        assert len(avail_result.forward) >= len(live_result.forward)
        assert len(avail_result.backward) >= len(live_result.backward)

    def test_mapping_composition_theorem(self):
        """Theorem 3.4: composing mappings yields a sound mapping p → p''."""
        program = parse_formal_program(FIG5_PROGRAM)
        step1 = osr_trans_formal(program, [ConstantPropagation()])
        step2 = osr_trans_formal(step1.transformed, [DeadCodeElimination()])
        composed = step1.forward.compose(step2.forward)
        stores = random_stores(["a", "b"], count=6)
        assert len(composed) > 0
        assert check_mapping_soundness(
            program, step2.transformed, composed, stores
        )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 5_000))
    def test_osr_trans_sound_on_random_programs(self, seed):
        program = random_formal_program(seed, length=8)
        rules = [ConstantPropagation(), DeadCodeElimination()]
        result = osr_trans_formal(program, rules)
        stores = random_stores(list(program.input_variables), count=4, seed=seed)
        try:
            assert check_mapping_soundness(
                result.original, result.transformed, result.forward, stores
            )
            assert check_mapping_soundness(
                result.transformed, result.original, result.backward, stores
            )
        except ZeroDivisionError:
            pass
