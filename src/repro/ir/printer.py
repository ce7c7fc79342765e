"""Pretty-printers for the repro IR.

``print_function``/``print_module`` emit the canonical textual form that
:mod:`repro.ir.parser` accepts, so text is a faithful serialization of the
in-memory IR.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .function import Function, Module

__all__ = ["print_function", "print_module", "format_table"]


def print_function(function: Function) -> str:
    """Render ``function`` in parseable textual form."""
    lines = [f"func @{function.name}({', '.join(function.params)}) {{"]
    for block in function.iter_blocks():
        lines.append(f"{block.label}:")
        for inst in block.instructions:
            lines.append(f"  {inst}")
    lines.append("}")
    return "\n".join(lines)


def print_module(module: Module) -> str:
    """Render every function of ``module``."""
    return "\n\n".join(print_function(f) for f in module)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Format a simple ASCII table (used by the experiment harness).

    Every cell is rendered with ``str``; column widths adapt to content.
    """
    rendered_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))
    lines = []
    if title:
        lines.append(title)
    lines.append(fmt_row(list(headers)))
    lines.append("-+-".join("-" * w for w in widths))
    lines.extend(fmt_row(row) for row in rendered_rows)
    return "\n".join(lines)
