"""The CI gate scripts under benchmarks/ run from a bare checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.mark.parametrize("script", [
    "check_incremental_equiv.py", "check_partition_equiv.py",
    "check_parallel_equiv.py", "figures.py"])
def test_help_without_pythonpath(script, tmp_path):
    """Each script puts the checkout's ``src`` on its path itself, as
    census.py does (``ModuleNotFoundError: No module named 'repro'``, exit 1,
    before)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(BENCHMARKS / script), "--help"],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")
