"""The benchmark's traced mode still finds every layer it wraps.

``perfbench/tracing.py`` replaces module attributes by name (``solver.merit``,
``qp.constraint_values``, ``instances.step``, ...).  A rename in the package
would otherwise surface only on the next traced benchmark run.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["cut-q50-floor1e-4", "completion-start-4x8"])
def test_traced_benchmark_runs(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert result["metrics"]["trace.verdict_mismatches"]["value"] == 0
