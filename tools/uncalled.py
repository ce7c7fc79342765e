"""List the functions under src/repro that no test, table or example calls.

    python tools/uncalled.py

Runs ``pytest tests benchmarks --benchmark-disable`` and every script
under ``examples/`` in this process with a ``sys.settrace`` hook that
records ``(file, firstlineno)`` on ``call`` events, then diffs that
against the function list of each file's AST.  Child processes (the
fleet worker, CLI subprocesses) are not traced.  Two kinds of function
are meant to go uncalled and are not listed: abstract stubs (a body that
only raises ``NotImplementedError``) and ``__repr__`` (read in a failure
message or a debugger).  Exits 1 when a ``GATED`` package has an uncalled
function, and 2 when pytest could not run the suite (interrupted,
internal, usage or collection error), because the list then means
nothing.  A test that fails under the hook (tracing slows the
timing-sensitive ones) is reported but does not fail the audit: a
recorded call stays a call, and the untraced suite is what gates test
results.
"""

import ast
import collections
import contextlib
import io
import runpy
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
#: The paper packages: they exist only as what tests and tables exercise.
GATED = {"formal", "ctl", "rewrite", "harness"}
called = set()


def tracer(frame, event, arg):
    called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


def meant_to_go_uncalled(node):
    body = node.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # docstring
    stub = len(body) == 1 and ast.unparse(body[0]).startswith("raise NotImplementedError")
    return stub or node.name == "__repr__"


def main():
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        status = pytest.main(
            ["-q", "-p", "no:cacheprovider", "--benchmark-disable",
             str(ROOT / "tests"), str(ROOT / "benchmarks")]
        )
        if status not in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED):
            print(f"pytest exited {int(status)} under tracing: the suite did not run, no audit")
            return 2
        for script in sorted((ROOT / "examples").glob("*.py")):
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(script), run_name="__main__")
    finally:
        sys.settrace(None)
        threading.settrace(None)

    uncalled = collections.defaultdict(list)
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if meant_to_go_uncalled(node):
                    continue
                # A decorated function's code object starts at its first decorator.
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                if (str(path), first) not in called:
                    uncalled[path.relative_to(SRC).parts[0]].append((path, node))
    for package, entries in sorted(uncalled.items()):
        lines = sum(node.end_lineno - node.lineno + 1 for _, node in entries)
        print(f"{package}: {len(entries)} uncalled functions, {lines} lines")
        for path, node in entries:
            print(f"  {path.relative_to(ROOT)}:{node.lineno} {node.name}")
    if status:
        print("note: tests failed under tracing; the list above may be too long")
    failing = sorted(GATED & set(uncalled))
    if failing:
        print("uncalled functions in gated packages:", ", ".join(failing))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
