"""Batch runner artifacts and the command line front end."""

import csv
import json
import re
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import manisqp as m
from manisqp.cli import main
from manisqp.runner import DECADE_EXPONENTS, TRACE_COLUMNS, trial_seed

from util import sphere_tilt

CHEAP_CUT_SOLVER = dict(residual_tol=1e-6, delta=1e-8, qp_tol=1e-8, max_time=60.0)


def tilt_records():
    prob, _, _ = sphere_tilt()
    x0 = prob.manifold.point(np.array([0.6, 0.0, -0.8]))
    _, trace = m.solve(prob, x0, cfg=m.SolverConfig(residual_tol=1e-10))
    assert trace.verdict == "converged"
    return trace.records


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_trace_csv_schema(tmp_path):
    records = tilt_records()
    path = tmp_path / "trace.csv"
    m.write_trace_csv(path, records, wall_times=True)
    header, rows = read_csv(path)
    assert header == list(TRACE_COLUMNS)
    assert len(rows) == len(records)
    for k, row in enumerate(rows):
        assert len(row) == len(TRACE_COLUMNS)
        assert int(row[0]) == k
        for cell in row[1:8]:
            float(cell)  # every numeric column parses
        assert int(row[8]) >= 0
        assert row[9] == "optimal"
    times = [float(r[1]) for r in rows]
    assert all(b >= a for a, b in zip(times, times[1:]))
    # repr round trip: the float columns reproduce the records exactly
    assert [float(r[2]) for r in rows] == [rec.f for rec in records]
    assert [float(r[4]) for r in rows] == [rec.residual for rec in records]


def test_trace_csv_zeroed_times(tmp_path):
    records = tilt_records()
    live = tmp_path / "live.csv"
    flat = tmp_path / "flat.csv"
    m.write_trace_csv(live, records, wall_times=True)
    m.write_trace_csv(flat, records, wall_times=False)
    _, live_rows = read_csv(live)
    _, flat_rows = read_csv(flat)
    for lr, fr in zip(live_rows, flat_rows):
        assert fr[1] == "0.000000"
        assert lr[0] == fr[0] and lr[2:] == fr[2:]


def test_decade_crossings_synthetic():
    recs = [
        SimpleNamespace(residual=5.0, wall_time=0.1),
        SimpleNamespace(residual=0.5, wall_time=0.2),
        SimpleNamespace(residual=0.05, wall_time=0.3),
        SimpleNamespace(residual=1e-15, wall_time=0.4),
    ]
    out = m.decade_crossings(recs)
    assert out[1] == 0.1  # 5 <= 10 at the first record
    assert out[0] == 0.2
    assert out[-1] == 0.3
    for e in range(-2, -14, -1):
        assert out[e] == 0.4
    assert set(out) == set(DECADE_EXPONENTS)
    assert m.decade_crossings([]) == {}


def test_trial_seed_deterministic_and_distinct():
    assert trial_seed(5, 0) == trial_seed(5, 0)
    seen = {trial_seed(5, t) for t in range(50)}
    assert len(seen) == 50
    assert trial_seed(5, 0) != trial_seed(6, 0)


def test_runspec_roundtrip_and_validation():
    spec = m.RunSpec(
        problem="balanced_cut",
        q=30,
        s=2,
        density=0.1,
        trials=3,
        seed=5,
        solver=m.SolverConfig(**CHEAP_CUT_SOLVER),
    )
    back = m.RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert back == spec
    with pytest.raises(ValueError):
        m.RunSpec(problem="tsp", q=4, s=4)
    with pytest.raises(ValueError):
        m.RunSpec(problem="completion", q=4, s=8, p=2, trials=0)
    with pytest.raises(ValueError):
        m.RunSpec(problem="completion", q=4, s=8)  # p missing
    with pytest.raises(ValueError):
        m.RunSpec(problem="balanced_cut", q=30, s=2)  # density missing
    with pytest.raises(ValueError, match="balanced_cut takes no p"):
        m.RunSpec(problem="balanced_cut", q=6, s=2, density=0.5, p=3)
    with pytest.raises(ValueError, match="completion takes no density"):
        m.RunSpec(problem="completion", q=4, s=8, p=2, density=0.5)
    bad_shapes = (
        dict(problem="balanced_cut", q=5, s=1, density=0.5),
        dict(problem="balanced_cut", q=0, s=2, density=0.5),
        dict(problem="balanced_cut", q=5, s=2, density=1.5),
        dict(problem="completion", q=4, s=8, p=9),
        dict(problem="balanced_cut", q=5.5, s=2, density=0.5),
        dict(problem="balanced_cut", q=5, s=True, density=0.5),
        dict(problem="completion", q=4, s=8.0, p=2),
        dict(problem="completion", q=4, s=8, p=2.5),
    )
    for kwargs in bad_shapes:
        with pytest.raises(ValueError):
            m.RunSpec(**kwargs)
    for name in ("trials", "seed"):
        for value in (2.5, 2.0, True):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                m.RunSpec(problem="completion", q=4, s=8, p=2, **{name: value})
    for value in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="start_tol must be nonnegative"):
            m.RunSpec(problem="completion", q=4, s=8, p=2, start_tol=value)


def test_run_artifacts_match_summary(tmp_path):
    spec = m.RunSpec(
        problem="balanced_cut",
        q=30,
        s=2,
        density=0.1,
        trials=3,
        seed=5,
        solver=m.SolverConfig(**CHEAP_CUT_SOLVER),
    )
    out = tmp_path / "bench"
    summary, traces = m.run(spec, out)

    assert len(traces) == spec.trials
    assert summary["seeds"] == [trial_seed(5, t) for t in range(3)]
    assert summary["trials"] == 3
    assert summary["successes"] == sum(t.verdict == "converged" for t in traces)
    assert summary["success_ratio"] == summary["successes"] / 3
    with open(out / "summary.json") as fh:
        assert json.load(fh) == summary

    # recompute the means from the per-trial CSV artifacts
    elapsed, iters = [], []
    for t, trace in enumerate(traces):
        header, rows = read_csv(out / f"trial_{t:03d}.csv")
        assert header == list(TRACE_COLUMNS)
        assert len(rows) == len(trace.records)
        if trace.verdict == "converged":
            elapsed.append(float(rows[-1][1]))
            iters.append(len(rows))
    if summary["successes"]:
        assert abs(summary["mean_time_s"] - sum(elapsed) / len(elapsed)) < 1e-5
        assert summary["mean_iters"] == sum(iters) / len(iters)

    header, rows = read_csv(out / "decades.csv")
    assert header == ["trial", "decade", "time_s"]
    assert len(rows) == 3 * len(DECADE_EXPONENTS)
    by_trial = {}
    for trial, decade, cell in rows:
        by_trial.setdefault(int(trial), {})[int(decade)] = cell
    for t, trace in enumerate(traces):
        if trace.verdict == "converged":
            assert by_trial[t][-6] != ""  # residual_tol = 1e-6 was reached


def test_failed_start_is_recorded_and_the_batch_completes(tmp_path):
    # no random start meets violation 0 exactly, so every feasibility phase fails
    spec = m.RunSpec(problem="completion", q=4, s=8, p=2, trials=2, seed=0, start_tol=0.0)
    out = tmp_path / "bench"
    summary, traces = m.run(spec, out)

    assert summary["successes"] == 0 and summary["success_ratio"] == 0.0
    assert summary["verdicts"] == ["start_failed", "start_failed"]
    assert all(r.startswith("feasibility phase did not reach") for r in summary["reasons"])
    assert all(t > 0.0 for t in summary["elapsed_s"])
    assert [t.reason for t in traces] == summary["reasons"]
    with open(out / "summary.json") as fh:
        assert json.load(fh) == summary
    for t in range(2):
        header, rows = read_csv(out / f"trial_{t:03d}.csv")
        assert header == list(TRACE_COLUMNS) and rows == []
    _, rows = read_csv(out / "decades.csv")
    assert len(rows) == 2 * len(DECADE_EXPONENTS)
    assert all(cell == "" for _, _, cell in rows)


def test_cli_solve_matches_one_trial_run(tmp_path):
    # both front ends take the solver defaults from SolverConfig
    spec = m.RunSpec(problem="balanced_cut", q=30, s=2, density=0.1, trials=1, seed=5)
    m.run(spec, tmp_path / "bench")
    seed = trial_seed(spec.seed, 0)
    cli_trace = tmp_path / "cli.csv"
    rc = main(
        ["solve", "--problem", "balanced_cut", "--q", "30", "--s", "2",
         "--density", "0.1", "--seed", str(seed), "--trace", str(cli_trace)]
    )
    assert rc == 0
    _, run_rows = read_csv(tmp_path / "bench" / "trial_000.csv")
    _, cli_rows = read_csv(cli_trace)
    assert len(run_rows) > 1
    assert [r[:1] + r[2:] for r in cli_rows] == [r[:1] + r[2:] for r in run_rows]


def test_cli_solve_cut_seed_that_stalled_at_the_cli_only_floor():
    # with delta=1e-8 and qp_tol=1e-8 this instance stalls at iteration 4
    rc = main(
        ["solve", "--problem", "balanced_cut", "--q", "30", "--s", "2",
         "--density", "0.1", "--seed", "7"]
    )
    assert rc == 0


def test_cli_solve_prints_the_stall_reason(capsys):
    rc = main(
        ["solve", "--problem", "balanced_cut", "--q", "30", "--s", "2",
         "--density", "0.1", "--seed", "64", "--delta", "1e-8", "--qp-tol", "1e-8", "--curvature-scale", "0"]
    )
    assert rc == 12
    out = capsys.readouterr().out
    assert "verdict=stalled iters=0" in out
    assert re.search(
        r"reason='subproblem solver failed to certify at iteration 0 \(kkt_error \S+, qp_tol 1e-08, step norm \S+\)'", out
    )


def test_cli_solve_takes_every_solver_field_as_a_flag(capsys):
    rc = main(
        ["solve", "--problem", "balanced_cut", "--q", "30", "--s", "2",
         "--density", "0.1", "--seed", "7", "--max-backtracks", "0"]
    )
    assert rc == 12
    assert "verdict=stalled iters=0 reason='no acceptable step within 0 backtracks'" in capsys.readouterr().out


def test_cli_solve_reports_a_failed_start(tmp_path, capsys):
    # no random start meets violation 0 exactly, so the feasibility phase fails
    path = tmp_path / "trace.csv"
    rc = main(
        ["solve", "--problem", "completion", "--q", "4", "--s", "8", "--p", "2",
         "--start-tol", "0", "--trace", str(path)]
    )
    assert rc == 15
    out = capsys.readouterr().out
    assert "verdict=start_failed iters=0 reason='feasibility phase did not reach" in out
    header, rows = read_csv(path)
    assert header == list(TRACE_COLUMNS) and rows == []


def test_cli_cut_with_one_column_is_a_usage_error(tmp_path, capsys):
    bad = (
        (["--q", "5", "--s", "1", "--density", "0.5"], "need s >= 2"),
        (["--q", "0", "--s", "2", "--density", "0.5"], "need q >= 1"),
        (["--q", "5", "--s", "2", "--density", "1.5"], "density must lie in [0, 1]"),
        (["--q", "5", "--s", "2", "--density", "0.5", "--seed", "-1"], "seed must be nonnegative"),
        (["--q", "5", "--s", "2", "--density", "0.5", "--p", "3"], "balanced_cut takes no p"),
    )
    for cmd in (["solve"], ["gen", "--out", str(tmp_path / "x.json")]):
        for args, message in bad:
            with pytest.raises(SystemExit) as exc:
                main(cmd + ["--problem", "balanced_cut"] + args)
            assert exc.value.code == 2
            assert message in capsys.readouterr().err


def test_cli_invalid_solver_values_exit_2(tmp_path, capsys):
    base = ["solve", "--problem", "completion", "--q", "4", "--s", "8", "--p", "2"]
    with pytest.raises(SystemExit) as exc:
        main(base + ["--beta", "1.5"])
    assert exc.value.code == 2
    assert "beta must lie in (0, 1)" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(base + ["--max-iter", "-3"])
    assert exc.value.code == 2
    assert "max_iter must be nonnegative" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(base + ["--residual-tol", "nan"])
    assert exc.value.code == 2
    assert "residual_tol must be nonnegative" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(base + ["--rho-init", "inf"])
    assert exc.value.code == 2
    assert "rho_init must be finite" in capsys.readouterr().err
    for value in ("-1", "nan"):
        with pytest.raises(SystemExit) as exc:
            main(base + ["--start-tol", value])
        assert exc.value.code == 2
        assert "start_tol must be nonnegative" in capsys.readouterr().err
    cut = ["solve", "--problem", "balanced_cut", "--q", "10", "--s", "2", "--density", "0.5"]
    for flag, name in (("--epsilon", "epsilon"), ("--delta", "delta"), ("--qp-tol", "qp_tol")):
        with pytest.raises(SystemExit) as exc:
            main(cut + [flag, "inf"])
        assert exc.value.code == 2
        assert f"{name} must be finite" in capsys.readouterr().err
    comp = {"problem": "completion", "q": 4, "s": 8, "p": 2}
    bad_specs = (
        ({**comp, "solver": {"delta": 0.0}}, "delta must be positive"),
        ({"problem": "balanced_cut", "q": 0, "s": 2, "density": 0.5}, "need q >= 1"),
        ({"problem": "balanced_cut", "q": 5.5, "s": 2, "density": 0.5}, "q must be an integer"),
        ({**comp, "p": 2.5}, "p must be an integer"),
        ({**comp, "trials": 2.5}, "trials must be an integer"),
        ({**comp, "seed": -1}, "seed must be nonnegative"),
        ({**comp, "solver": {"max_iter": 2.5}}, "max_iter must be an integer"),
        ({**comp, "start_tol": -1}, "start_tol must be nonnegative"),
        ({**comp, "bogus": 1}, "bogus"),
        ({**comp, "solver": {"foo": 1}}, "foo"),
    )
    spec_path = tmp_path / "spec.json"
    for spec, message in bad_specs:
        spec_path.write_text(json.dumps(spec))
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--spec", str(spec_path), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_cli_bench_spec_that_is_not_a_json_object_is_a_usage_error(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    for text, message in (("[1, 2]", "expected an object, got list"), ("{bad", "Expecting property name")):
        spec_path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--spec", str(spec_path), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_cli_bench_spec_that_cannot_be_read_is_a_usage_error(tmp_path, capsys):
    for path in (tmp_path / "missing.json", tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--spec", str(path), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"cannot read spec file {path}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_gen_matches_generator(tmp_path):
    path = tmp_path / "inst.json"
    rc = main(
        ["gen", "--problem", "completion", "--q", "4", "--s", "8", "--p", "2",
         "--seed", "7", "--out", str(path)]
    )
    assert rc == 0
    with open(path) as fh:
        inst = m.instance_from_dict(json.load(fh))
    direct = m.gen_completion(4, 8, 2, seed=7)
    assert np.array_equal(inst.a, direct.a)
    assert inst.observed == direct.observed
    assert inst.pinned == direct.pinned


def test_cli_solve_writes_byte_identical_traces(tmp_path):
    args = [
        "solve", "--problem", "balanced_cut", "--q", "30", "--s", "2",
        "--density", "0.1", "--seed", "3",
    ]
    t1 = tmp_path / "a.csv"
    t2 = tmp_path / "b.csv"
    assert main(args + ["--trace", str(t1)]) == 0
    assert main(args + ["--trace", str(t2)]) == 0
    assert t1.read_bytes() == t2.read_bytes()
    header, rows = read_csv(t1)
    assert header == list(TRACE_COLUMNS)
    assert all(r[1] == "0.000000" for r in rows)  # zeroed by default
    assert float(rows[-1][4]) <= 1e-6


def test_cli_solve_wall_times_flag(tmp_path):
    path = tmp_path / "t.csv"
    rc = main(
        ["solve", "--problem", "balanced_cut", "--q", "30", "--s", "2",
         "--density", "0.1", "--seed", "3", "--trace", str(path), "--wall-times"]
    )
    assert rc == 0
    _, rows = read_csv(path)
    assert any(float(r[1]) > 0.0 for r in rows)


def test_cli_solve_exit_code_max_iter(tmp_path):
    rc = main(
        ["solve", "--problem", "balanced_cut", "--q", "30", "--s", "2",
         "--density", "0.1", "--seed", "3", "--max-iter", "1",
         "--residual-tol", "1e-14"]
    )
    assert rc == 10


def test_cli_bench_smoke(tmp_path):
    spec = {
        "problem": "balanced_cut",
        "q": 30,
        "s": 2,
        "density": 0.1,
        "trials": 2,
        "seed": 5,
        "solver": CHEAP_CUT_SOLVER,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert main(["bench", "--spec", str(spec_path), "--out", str(out)]) == 0
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["trials"] == 2
    assert (out / "trial_000.csv").exists()
    assert (out / "trial_001.csv").exists()
    assert (out / "decades.csv").exists()


def test_cli_requires_conditional_args(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--problem", "completion", "--q", "4", "--s", "8", "--out", "x.json"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--problem", "balanced_cut", "--q", "10", "--s", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cli_module_entrypoint(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "manisqp.cli", "solve", "--problem", "balanced_cut",
         "--q", "30", "--s", "2", "--density", "0.1", "--seed", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "verdict=converged" in proc.stdout
