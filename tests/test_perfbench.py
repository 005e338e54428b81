"""The benchmark's seconds-long self-check runs against the current sources."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selfcheck():
    # a renamed traced function or a changed return value fails here, not only in the benchmark
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selfcheck.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
