"""Seeded random MiniC generator.

:func:`random_minic_function` emits MiniC source with nested loops,
branches, redundant arithmetic and array traffic.  The Section 7 corpus
(:mod:`repro.workloads.spec_corpus`) is built from many such functions
per benchmark, standing in for the hundreds of functions of the SPEC C
programs the paper analyses.  It is deterministic in its ``seed`` so
experiments are reproducible.  (The formal-language counterpart is
:func:`repro.formal.random_formal_program`.)
"""

from __future__ import annotations

import random
from typing import List

__all__ = ["random_minic_function"]


def random_minic_function(
    name: str,
    seed: int,
    *,
    statements: int = 12,
    max_depth: int = 2,
    use_array: bool = True,
) -> str:
    """Generate the source of one random MiniC function.

    The function takes ``(data, n)`` when ``use_array`` is true (``data``
    is an array base pointer) or just ``(n)`` otherwise, declares a few
    scalars, and mixes assignments with redundant subexpressions (to give
    CSE/LICM material), ``if``/``while`` nesting and array reads.
    """
    rng = random.Random(seed)
    scalars = ["a", "b", "c", "s"]
    params = ["data", "n"] if use_array else ["n"]
    reads = list(scalars) + ["n", "i"]

    lines: List[str] = [f"func {name}({', '.join(params)}) {{"]
    for scalar in scalars:
        lines.append(f"  var {scalar} = {rng.randint(0, 9)};")
    lines.append("  var i = 0;")

    def expr(depth: int = 0) -> str:
        choice = rng.random()
        if depth >= 2 or choice < 0.35:
            if rng.random() < 0.5:
                return rng.choice(reads)
            return str(rng.randint(1, 16))
        if use_array and choice < 0.45:
            return f"data[{rng.choice(['i', 'i + 1', 'n - 1', str(rng.randint(0, 7))])}]"
        op = rng.choice(["+", "-", "*", "+", "-"])
        return f"({expr(depth + 1)} {op} {expr(depth + 1)})"

    def statement(indent: str, depth: int, budget: List[int]) -> List[str]:
        if budget[0] <= 0:
            return []
        budget[0] -= 1
        kind = rng.random()
        target = rng.choice(scalars)
        if kind < 0.45 or depth >= max_depth:
            # Occasionally emit a deliberately redundant pair of
            # computations so CSE has something to find.
            if rng.random() < 0.3:
                shared = expr(1)
                other = rng.choice([s for s in scalars if s != target])
                return [
                    f"{indent}{target} = {shared} + {rng.randint(1, 5)};",
                    f"{indent}{other} = {shared} + {rng.randint(6, 9)};",
                ]
            return [f"{indent}{target} = {expr()};"]
        if kind < 0.7:
            body = statement(indent + "  ", depth + 1, budget) or [
                f"{indent}  {target} = {target} + 1;"
            ]
            else_body = statement(indent + "  ", depth + 1, budget)
            result = [f"{indent}if ({expr(1)} > {expr(1)}) {{", *body, f"{indent}}}"]
            if else_body:
                result[-1] = f"{indent}}} else {{"
                result.extend(else_body)
                result.append(f"{indent}}}")
            return result
        # A bounded while loop over a fresh counter region.
        body = statement(indent + "  ", depth + 1, budget) or [
            f"{indent}  {target} = {target} + i;"
        ]
        return [
            f"{indent}i = 0;",
            f"{indent}while (i < n) {{",
            *body,
            f"{indent}  i = i + 1;",
            f"{indent}}}",
        ]

    budget = [statements]
    while budget[0] > 0:
        lines.extend(statement("  ", 0, budget))
    lines.append("  return s + a * 2 + b - c;")
    lines.append("}")
    return "\n".join(lines)
