"""Division and remainder across tiers: interpreter vs generated code.

IR ``/`` and ``%`` truncate toward zero like C, and a zero divisor raises
``ZeroDivisionError``; Python's ``//`` and ``%`` floor instead.  The two
agree only when the dividend is >= 0 and the divisor > 0, so generated
code that spells either operator natively must take the shared helpers
everywhere else.  Hypothesis (derandomised) drives both signs, zero,
literal and register operands and nested operand expressions through
:class:`~repro.ir.Interpreter` and the compiled entry, which must return
the same value or both raise ``ZeroDivisionError``.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.ir import Interpreter, parse_function
from repro.vm import CompiledBackend

OPERAND = st.integers(-70, 70)

#: How each side of the operator is spelled: a register, a literal, or a
#: nested expression over the register.
DIVIDENDS = {"register": "a", "literal": "{a}", "nested": "(a + 3)"}
DIVISORS = {"register": "b", "literal": "{b}", "nested": "(b - 2)"}


def _outcome(run):
    try:
        return run().value
    except ZeroDivisionError:
        return ZeroDivisionError


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(
    op=st.sampled_from(["%", "/"]),
    dividend=st.sampled_from(sorted(DIVIDENDS)),
    divisor=st.sampled_from(sorted(DIVISORS)),
    a=OPERAND,
    b=OPERAND,
)
@example(op="%", dividend="register", divisor="literal", a=-7, b=2)
@example(op="/", dividend="register", divisor="literal", a=-7, b=2)
@example(op="%", dividend="register", divisor="register", a=7, b=-2)
@example(op="/", dividend="register", divisor="register", a=-70, b=-3)
@example(op="%", dividend="register", divisor="literal", a=5, b=0)
@example(op="/", dividend="register", divisor="register", a=0, b=0)
@example(op="%", dividend="nested", divisor="nested", a=-3, b=2)
def test_division_and_remainder_agree_across_tiers(op, dividend, divisor, a, b):
    lhs = DIVIDENDS[dividend].format(a=a)
    rhs = DIVISORS[divisor].format(b=b)
    function = parse_function(
        f"func @f(a, b) {{\nentry:\n  %r = ({lhs} {op} {rhs})\n  ret %r\n}}"
    )
    reference = _outcome(lambda: Interpreter().run(function, [a, b]))
    actual = _outcome(lambda: CompiledBackend().compiled_artifact(function).invoke([a, b]))
    assert actual == reference
