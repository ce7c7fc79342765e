"""Put the checkout's ``src/`` on ``sys.path``; import this before any ``repro`` module.

The benchmark runs from a plain checkout (no installed package), so the
program under test is found relative to this file.  A directory without
``src/repro`` holds no program to measure: exit non-zero instead of
printing a result.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

if not (SRC / "repro" / "__init__.py").is_file():
    raise SystemExit(f"benchmarks/e2e: no program to benchmark ({SRC / 'repro'} is missing)")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
