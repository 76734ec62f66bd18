"""The benchmark's own tests, run from the repository root.

They wrap and restore every entry point the benchmark traces, the
``Poset.dual``/``ComplementedPoset.dual`` methods included, so they guard
those names.  They run in a subprocess because the ``conftest.py`` of
``perfbench/tests`` and that of ``tests`` share a module name, and one
collection cannot hold both.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tests_pass():
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "perfbench/tests"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-4000:]
