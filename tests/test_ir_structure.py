"""Tests for instructions, blocks, functions, parser/printer and the verifier."""

import pytest

from repro.ir import (
    Assign,
    Branch,
    Call,
    Const,
    Jump,
    Load,
    Nop,
    ParseError,
    Phi,
    ProgramPoint,
    Store,
    VerificationError,
    Var,
    is_ssa,
    parse_expr,
    parse_function,
    parse_module,
    print_function,
    verify_function,
)


class TestInstructions:
    def test_assign_defs_uses(self):
        inst = Assign("x", parse_expr("a + b"))
        assert inst.defs() == ("x",)
        assert set(inst.uses()) == {"a", "b"}

    def test_store_has_side_effects_and_no_defs(self):
        inst = Store("p", "v")
        assert inst.defs() == ()
        assert inst.has_side_effects()
        assert inst.accesses_memory()

    def test_phi_defs_and_uses(self):
        phi = Phi("x", {"a": Var("u"), "b": 3})
        assert phi.defs() == ("x",)
        assert set(phi.uses()) == {"u"}

    def test_phi_rename_predecessor(self):
        phi = Phi("x", {"a": Var("u")})
        phi.rename_predecessor("a", "a.split")
        assert "a.split" in phi.incoming and "a" not in phi.incoming

    def test_branch_successors_deduplicated(self):
        assert Branch("c", "t", "t").successors() == ("t",)
        assert Branch("c", "t", "e").successors() == ("t", "e")

    def test_terminator_retarget(self):
        j = Jump("old")
        j.retarget({"old": "new"})
        assert j.target == "new"

    def test_replace_uses_on_call(self):
        call = Call("r", "callee", [Var("a"), Var("b")])
        call.replace_uses({"a": Var("z")})
        assert call.args[0] == Var("z")

    def test_copy_gets_fresh_uid_and_keeps_line(self):
        inst = Assign("x", 1)
        inst.source_line = 42
        clone = inst.copy()
        assert clone.uid != inst.uid


class TestFunctionStructure:
    def test_builder_round_trip(self, sum_loop):
        text = print_function(sum_loop)
        again = parse_function(text)
        assert print_function(again) == text

    def test_program_points_enumeration(self, diamond):
        points = diamond.program_points()
        assert ProgramPoint("entry", 0) in points
        assert len(points) == diamond.num_instructions()

    def test_instruction_at_and_point_of(self, diamond):
        point = ProgramPoint("merge", 1)
        inst = diamond.instruction_at(point)
        assert diamond.point_of(inst) == point

    def test_clone_preserves_structure_and_maps_uids(self, sum_loop):
        clone, uid_map = sum_loop.clone("sum2")
        assert clone.name == "sum2"
        assert print_function(clone).replace("sum2", "sum") == print_function(sum_loop)
        assert set(uid_map.keys()) == {i.uid for _, i in sum_loop.instructions()}
        # Mutating the clone leaves the original untouched.
        clone.blocks["body"].instructions[0] = Nop()
        assert isinstance(sum_loop.blocks["body"].instructions[0], Assign)

    def test_num_phis(self, sum_loop, diamond):
        assert sum_loop.num_phis() == 2
        assert diamond.num_phis() == 1

    def test_fresh_temp_avoids_collisions(self, sum_loop):
        name = sum_loop.fresh_temp()
        assert name not in sum_loop.defined_variables()

    def test_add_and_remove_block(self, diamond):
        label = diamond.fresh_label("extra")
        diamond.add_block(label)
        assert label in diamond.block_labels()
        diamond.remove_block(label)
        assert label not in diamond.block_labels()
        with pytest.raises(ValueError):
            diamond.remove_block(diamond.entry_label)


class TestParser:
    def test_parse_module_with_two_functions(self):
        src = """
        func @one() {
        entry:
          ret 1
        }

        func @two(a) {
        entry:
          x = (a + 1)
          ret x
        }
        """
        module = parse_module(src)
        assert len(module) == 2
        assert "one" in module and "two" in module

    def test_parse_store_load_alloca_call(self):
        src = """
        func @mem(p) {
        entry:
          q = alloca 4
          store q, 42
          v = load q
          r = call @helper(v, 1)
          ret r
        }
        """
        f = parse_function(src)
        kinds = [type(i).__name__ for _, i in f.instructions()]
        assert kinds[:4] == ["Alloca", "Store", "Load", "Call"]

    def test_parse_error_on_missing_terminator(self):
        with pytest.raises((ParseError, ValueError)):
            parse_function("func @bad() {\nentry:\n  x = 1\n}")

    def test_parse_error_on_garbage(self):
        with pytest.raises(ParseError):
            parse_function("func @bad() {\nentry:\n  ??? what\n  ret 0\n}")

    def test_expression_precedence(self):
        expr = parse_expr("a + b * c")
        assert str(expr) == "(a + (b * c))"

    def test_comments_are_ignored(self):
        f = parse_function("func @c() {\nentry:\n  ret 1 ; comment\n}")
        assert f.name == "c"


class TestVerifier:
    def test_accepts_well_formed_ssa(self, sum_loop, diamond):
        verify_function(sum_loop, require_ssa=True)
        verify_function(diamond, require_ssa=True)

    def test_detects_branch_to_unknown_block(self):
        f = parse_function("func @f() {\nentry:\n  ret 0\n}")
        f.blocks["entry"].instructions[-1] = Jump("nowhere")
        with pytest.raises(VerificationError) as excinfo:
            verify_function(f)
        assert "unknown block" in str(excinfo.value)

    def test_detects_double_definition_in_ssa_mode(self):
        src = "func @f(a) {\nentry:\n  x = 1\n  x = 2\n  ret x\n}"
        f = parse_function(src)
        with pytest.raises(VerificationError):
            verify_function(f, require_ssa=True)
        # Without SSA enforcement the function is structurally fine.
        verify_function(f, require_ssa=False)

    def test_detects_use_before_definition(self):
        src = "func @f(a) {\nentry:\n  x = (y + 1)\n  y = 2\n  ret x\n}"
        with pytest.raises(VerificationError):
            verify_function(parse_function(src), require_ssa=True)

    def test_detects_phi_missing_incoming_edge(self, diamond):
        phi = diamond.blocks["merge"].phis()[0]
        del phi.incoming["else"]
        with pytest.raises(VerificationError):
            verify_function(diamond)

    def test_detects_phi_reading_a_phi_of_its_own_block(self, diamond, sum_loop):
        # Phis are one parallel assignment: along `then`, `x4` would read
        # the `x3` of a previous visit (there is none).
        merge = diamond.blocks["merge"]
        merge.insert(1, Phi("x4", {"then": Var("x3"), "else": Const(0)}))
        with pytest.raises(VerificationError) as excinfo:
            verify_function(diamond)
        assert "reads a phi of the same block" in str(excinfo.value)
        # Around a back edge the previous trip's value is readable.
        loop = sum_loop.blocks["loop"]
        loop.insert(2, Phi("swap", {"entry": Const(0), "body": Var("i2")}))
        verify_function(sum_loop, require_ssa=True)

    def test_is_ssa_predicate(self, sum_loop):
        assert is_ssa(sum_loop)
        f = parse_function("func @f(a) {\nentry:\n  x = 1\n  x = 2\n  ret x\n}")
        assert not is_ssa(f)
