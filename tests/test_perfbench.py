"""The benchmark's contract with the package.

perfbench/ wraps package functions by name and checks every batch record
against its expected answers.  A change that removes a name it reads or
wraps, or alters a batch answer, fails here as well as in the benchmark.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_is_correct(workload: str, trace: str) -> None:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", trace],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0


def test_traced_batch_cold_run_is_correct():
    _run_is_correct("batch_cold", "1")


def test_large_groups_run_is_correct():
    # also checks the lattice counts of S5 and SL(2,5), which lie beyond
    # the golden catalog table's order 64
    _run_is_correct("large_groups", "0")
