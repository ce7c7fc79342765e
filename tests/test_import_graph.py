"""The package graph is cut at the paper's §4/§5 line.

An engine loads versions and mapping applications, nothing of the formal
development (§2–4), the evaluation harness or the §7 debugging analyses;
the compiler substrate below ``core`` does not load ``core``.  Checked in
a fresh interpreter so the suite's own imports cannot mask a regression.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

CASES = {
    "runtime": (
        "repro.engine, repro.vm, repro.store, repro.frontend, repro.workloads",
        ("repro.formal", "repro.ctl", "repro.rewrite", "repro.harness", "repro.core.debug"),
    ),
    "substrate": (
        "repro.ir, repro.cfg, repro.analysis, repro.ssa, repro.frontend",
        ("repro.core", "repro.passes", "repro.vm", "repro.engine"),
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_imports_load_nothing_above_them(case):
    modules, forbidden = CASES[case]
    script = (
        f"import sys, {modules}\n"
        f"print('\\n'.join(sorted(m for m in sys.modules if m.startswith({forbidden!r}))))"
    )
    # The child imports the same ``repro`` this process did, installed or not.
    package_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []


@pytest.mark.parametrize("module", ["ops/metrics.py", "store/fleet.py"])
def test_only_the_stats_fold_dispatches_on_event_types(module):
    """One fold: the metrics renderer and the fleet see snapshots of
    ``engine/stats.py``'s reduction, never an event class to switch on."""
    import ast

    from repro.engine.events import EVENT_TYPES

    classes = {cls.__name__ for cls in EVENT_TYPES.values()}
    classes |= {"RuntimeEvent", "ContinuationHit", "EVENT_TYPES", "events"}
    tree = ast.parse((Path(repro.__file__).parent / module).read_text())
    imported = {
        alias.name.rpartition(".")[2]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert imported & classes == set()
