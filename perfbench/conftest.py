"""Make ``perfbench`` and ``repro`` importable for the benchmark's tests
(``python3 -m pytest perfbench`` from the repository root)."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)
