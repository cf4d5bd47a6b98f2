"""The benchmark's traced mode still finds every layer it wraps.

``perfbench/tracing.py`` replaces module attributes by name (``solver.merit``,
``qp.constraint_values``, ``instances.step``, ...).  A rename in the package
would otherwise surface only on the next traced benchmark run, and a layer
that its caller reaches by another path would read 0 without a word.
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
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert metrics["trace.verdict_mismatches"] == 0
    # every solver iteration and feasibility-phase step draws one tangent
    # basis and solves one subproblem; a basis or subproblem path that the
    # tracer does not wrap would read 0 here
    steps = metrics["solver.iterations"] + metrics["instances.start_steps"]
    assert steps > 0
    assert metrics["manifolds.basis_calls"] == pytest.approx(steps, rel=1e-12)
    assert metrics["qp.solve_calls"] == pytest.approx(steps, rel=1e-12)
