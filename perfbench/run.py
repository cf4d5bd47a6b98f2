"""Seeded end-to-end and per-layer benchmark of the manisqp SQO loop.

Run from the repository root:

    python3 perfbench/run.py --workload cut-q50-floor1e-4 --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

One trial is one operation: it takes a generated instance through the
public API (random or feasibility start, ``solve``, ``write_trace_csv``)
and is a success only when the solver reports convergence (for start
workloads: when ``feasible_start`` returns) and the benchmark's own
re-check of the returned point accepts it.  Trials run one after another
in this process (a closed loop with one client) until ``--seconds`` have
passed.

``--trace 0`` reports the end-to-end metrics, with times scaled to a fixed
machine speed by a reference loop (see ``speed.py``).  ``--trace 1`` runs every
trial twice for ``--seconds``, once with every layer wrapped by a timer and
once without; it reports per-layer self times and counts, per trial, and
the tracing overhead as the difference of the two summed trial times.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
nonzero when a re-check rejects a claimed success, a trial ends on the
wall-clock limit, or (traced) the layer self times fail to cover the
traced trials.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from speed import REF_S, SpeedProbe
from tracing import Tracer
from workloads import WORKLOADS, Item, Workload, build_pool

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# Set-ups timed per untraced run, each in a fresh interpreter; the median
# is reported.
SETUP_REPEATS = 5
# Least share of the traced trials' time that the layer self times must
# account for; the rest is the benchmark's own per-trial code.
MIN_COVERAGE = 0.95

# The benchmark's load is one process with one BLAS thread; each variable
# is set to 1 unless the caller set it.  At these matrix sizes a second
# OpenBLAS thread does no useful work, yet it spins on the other core.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


@dataclass(eq=False)
class Outcome:
    item: Item
    verdict: str  # a solver verdict, "started" or "start_failed"
    elapsed: float  # start of the start phase to the verdict
    x: object = None
    eta: object = None
    reason: str = ""
    success: bool = False  # claimed and re-checked
    check_failed: bool = False  # claimed, but the re-check rejected it


def git_sha() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps[k].get("name", "") + " " + deps[k].get("version", "") for k in ("blas", "lapack")}
    except (KeyError, TypeError) as exc:  # the layout differs across numpy versions
        blas = {"unavailable": repr(exc)}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_sha": git_sha(),
    }


def run_trial(m, wl: Workload, item: Item, csv_path: str) -> Outcome:
    t0 = time.perf_counter()
    if wl.kind == "cut":
        x0 = m.random_cut_start(item.inst)
    else:
        try:
            x0 = m.feasible_start(item.inst, tol=wl.start_tol, max_iter=wl.start_max_iter)
        except RuntimeError as exc:
            return Outcome(item, "start_failed", time.perf_counter() - t0, reason=str(exc))
        if wl.kind == "start":
            return Outcome(item, "started", time.perf_counter() - t0, x=x0)
    prob = item.prob
    state, trace = m.solve(prob, x0, m.Multipliers.zeros(prob.m, prob.n), item.cfg)
    elapsed = time.perf_counter() - t0
    m.write_trace_csv(csv_path, trace.records)
    return Outcome(item, trace.verdict, elapsed, x=state.x, eta=state.eta)


def run_pass(m, wl, pool, csv_path, seconds, probe):
    """Trials in pool order (cycling) until `seconds` have passed.

    Reference samples are taken between trials; the returned wall time
    leaves out the time they took.
    """
    outs = []
    t_start = time.perf_counter()
    sampling = probe.sample(force=True)
    while time.perf_counter() - t_start < seconds:
        outs.append(run_trial(m, wl, pool[len(outs) % len(pool)], csv_path))
        sampling += probe.sample()
    return outs, time.perf_counter() - t_start - sampling


def run_paired(m, wl, pool, csv_path, seconds, tracer, probe):
    """Each trial twice, traced and untraced, alternating which goes first.

    Pairing cancels drift in machine speed out of the tracing overhead.
    Returns the traced and untraced outcomes and their summed trial times.
    """
    outs = {True: [], False: []}
    wall = {True: 0.0, False: 0.0}
    t_start = time.perf_counter()
    probe.sample(force=True)
    while time.perf_counter() - t_start < seconds:
        probe.sample()
        i = len(outs[True])
        for traced in (True, False) if i % 2 == 0 else (False, True):
            if traced:
                tracer.install()
            try:
                t0 = time.perf_counter()
                outs[traced].append(run_trial(m, wl, pool[i % len(pool)], csv_path))
                wall[traced] += time.perf_counter() - t0
            finally:
                tracer.restore()
    return outs[True], outs[False], wall[True], wall[False]


def recheck(m, wl: Workload, out: Outcome) -> None:
    """Independent check of a claimed success; sets success/check_failed."""
    import numpy as np

    prob = out.item.prob
    if wl.kind == "start":
        if out.verdict != "started":
            return
        g, h = m.constraint_values(prob, out.x)
        viol = max(0.0, float(np.max(g, initial=0.0)), float(np.max(np.abs(h), initial=0.0)))
        good = viol <= wl.start_tol
    else:
        if out.verdict != "converged":
            return
        good = m.kkt_residual(prob, out.x, out.eta).residual <= out.item.cfg.residual_tol
    good = good and prob.manifold.point_ok(out.x)
    out.success = good
    out.check_failed = not good


def check_all(m, wl, outs) -> list[str]:
    """Re-check every outcome; return the reasons the run is incorrect."""
    errors = []
    for out in outs:
        recheck(m, wl, out)
        if out.check_failed:
            errors.append(f"trial seed {out.item.seed}: claimed {out.verdict} but the re-check rejects it")
        if out.verdict == "max_time":
            errors.append(f"trial seed {out.item.seed}: ended on the wall-clock limit")
    return errors


def median_setup_s(wl: Workload, seed: int) -> tuple[float, list[float]]:
    """Median scaled set-up time, and the raw times, over SETUP_REPEATS."""
    script = os.path.join(ROOT, "perfbench", "setup_probe.py")
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        res = subprocess.run(
            [sys.executable, script, wl.name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        setup_s, ref_s = map(float, res.stdout.split()[-2:])
        raw.append(setup_s)
        scaled.append(setup_s * REF_S / ref_s)
    return statistics.median(scaled), raw


def metric(value, unit):
    return {"value": value, "unit": unit}


def describe_failures(outs, limit=5) -> list[str]:
    lines = []
    failed = [o for o in outs if not o.success]
    for o in failed[:limit]:
        why = f" ({o.reason})" if o.reason else ""
        lines.append(f"  failed: seed {o.item.seed} verdict {o.verdict}{why} after {o.elapsed:.3f} s")
    if len(failed) > limit:
        lines.append(f"  ... and {len(failed) - limit} more failed trials")
    return lines


def end_to_end(m, wl, pool, seed, seconds, csv_path):
    setup_s, setup_all = median_setup_s(wl, seed)
    run_trial(m, wl, pool[0], csv_path)  # warm-up: lazy imports and first-call set-up
    probe = SpeedProbe()
    outs, wall = run_pass(m, wl, pool, csv_path, seconds, probe)
    errors = check_all(m, wl, outs)
    times = sorted(o.elapsed for o in outs if o.success)
    n_ok = len(times)
    scale = probe.scale()
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "solved_per_min": metric(60.0 * n_ok / (wall * scale), "1/min"),
        "success_ratio": metric(n_ok / len(outs), "ratio"),
        "solve_s_p50": metric(statistics.median(times) * scale if times else None, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    lines = [
        f"  times below are scaled by {scale:.4f}: the reference loop took "
        f"{1e3 * REF_S / scale:.4f} ms (median of {len(probe.samples)}), scaled to {1e3 * REF_S} ms",
        f"  raw: pass {wall:.3f} s, {60.0 * n_ok / wall:.4f} solved/min; "
        f"set-ups {', '.join(f'{t:.4f}' for t in setup_all)} s",
        f"  solve_s_p50 over n={n_ok} verified trials"
        + (f"; raw quartiles {', '.join(f'{q:.4f}' for q in statistics.quantiles(times, n=4))} s" if n_ok > 1 else ""),
    ]
    return outs, errors, metrics, lines


def per_layer(m, wl, pool, seconds, csv_path, gen_s, problem_s):
    run_trial(m, wl, pool[0], csv_path)  # warm-up, untraced
    tracer, probe = Tracer(), SpeedProbe()
    outs, plain, wall, plain_wall = run_paired(m, wl, pool, csv_path, seconds, tracer, probe)
    errors = check_all(m, wl, outs) + check_all(m, wl, plain)
    coverage = tracer.covered_s() / wall
    if coverage < MIN_COVERAGE:
        errors.append(f"layer self times cover {coverage:.3f} of the traced trials, below {MIN_COVERAGE}")
    mismatches = sum(a.verdict != b.verdict for a, b in zip(outs, plain))

    n = len(outs)
    s, calls, c = tracer.self_s, tracer.calls, tracer.counts
    step_ms = [1e3 * t for t in tracer.step_s]
    pct = statistics.quantiles(step_ms, n=100) if len(step_ms) > 1 else [None] * 99
    ls_trials = c["solver.merit_trials"]

    def secs(name):
        return metric(s[name] / n, "s")

    def count(value):
        return metric(value / n, "count")

    metrics = {
        "manifolds.basis_s": secs("manifolds.basis"),
        "manifolds.basis_calls": count(calls["manifolds.basis"]),
        "manifolds.retract_s": secs("manifolds.retract"),
        "manifolds.retract_calls": count(calls["manifolds.retract"]),
        "manifolds.rank_drops": count(c["manifolds.rank_drops"]),
        "problem.hessian_s": secs("problem.hessian"),
        "problem.merit_s": secs("problem.merit"),
        "problem.merit_calls": count(calls["problem.merit"]),
        "problem.constraint_values_s": secs("problem.constraint_values"),
        "problem.constraint_values_calls": count(calls["problem.constraint_values"]),
        "problem.kkt_residual_s": secs("problem.kkt_residual"),
        "qp.modify_s": secs("qp.modify"),
        "qp.build_s": secs("qp.build"),
        "qp.solve_s": secs("qp.solve"),
        "qp.solve_calls": count(calls["qp.solve"]),
        "qp.ipm_iters": count(c["qp.ipm_iters"]),
        "qp.phase1_calls": count(calls["qp.phase1"]),
        "qp.phase1_s": secs("qp.phase1"),
        "qp.status_optimal": count(c["qp.status_optimal"]),
        "qp.status_infeasible": count(c["qp.status_infeasible"]),
        "qp.status_max_iter": count(c["qp.status_max_iter"]),
        "solver.step_ms_p50": metric(pct[49], "ms"),
        "solver.step_ms_p99": metric(pct[98], "ms"),
        "solver.step_self_s": secs("solver.step"),
        "solver.solve_self_s": secs("solver.solve"),
        "solver.iterations": count(c["solver.iterations"]),
        "solver.line_search_s": secs("solver.line_search"),
        "solver.backtracks": count(ls_trials - c["solver.accepted"]),
        "solver.accept_ratio": metric(c["solver.accepted"] / ls_trials if ls_trials else 0.0, "ratio"),
    }
    for v in ("converged", "max_iter", "max_time", "stalled", "qp_infeasible", "rank_drop"):
        metrics[f"solver.verdict_{v}"] = count(c[f"solver.verdict_{v}"])
    metrics.update(
        {
            "instances.gen_s": metric(gen_s / len(pool), "s"),
            "instances.problem_s": metric(problem_s / len(pool), "s"),
            "instances.start_s": secs("instances.start"),
            "instances.start_steps": count(c["instances.start_steps"]),
            "instances.start_restarts": count(c["instances.start_restarts"]),
            "instances.start_failures": count(c["instances.start_failures"]),
            "runner.trace_csv_s": secs("runner.trace_csv"),
            "runner.trace_csv_bytes": metric(c["runner.trace_csv_bytes"] / n, "B"),
            "trace.trials": metric(n, "count"),
            "trace.wall_s": metric(wall, "s"),
            "trace.untraced_wall_s": metric(plain_wall, "s"),
            "trace.overhead_s": metric(wall - plain_wall, "s"),
            "trace.overhead_share": metric((wall - plain_wall) / plain_wall, "ratio"),
            "trace.coverage": metric(coverage, "ratio"),
            "trace.verdict_mismatches": metric(mismatches, "count"),
            "trace.reference_ms": metric(1e3 * REF_S / probe.scale(), "ms"),
        }
    )
    lines = [
        f"  traced trials {wall:.3f} s, the same trials untraced {plain_wall:.3f} s, "
        f"layers cover {coverage:.4f} of the traced time; {len(step_ms)} steps",
    ]
    if mismatches:
        lines.append(f"  warning: {mismatches} trials ended on another verdict untraced")
    return outs, errors, metrics, lines


def run_workload(m, wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    csv_path = os.path.join(OUT_DIR, f"trace-{wl.name}.csv")
    pool, gen_s, problem_s = build_pool(m, wl, seed)
    if trace:
        outs, errors, metrics, lines = per_layer(m, wl, pool, seconds, csv_path, gen_s, problem_s)
    else:
        outs, errors, metrics, lines = end_to_end(m, wl, pool, seed, seconds, csv_path)
    failed = sum(not o.success for o in outs)
    print(f"workload {wl.name} seed {seed} trace {int(trace)}: {len(outs)} trials, {failed} failed")
    for line in lines + describe_failures(outs):
        print(line)
    for name, v in metrics.items():
        value = v["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:34s} {shown:>14s} {v['unit']}")
    for e in errors:
        print(f"  CHECK FAILED: {e}")
    return {"correct": not errors, "attempted": len(outs), "failed": failed, "metrics": metrics}


def import_manisqp():
    """Import manisqp from this checkout's src/, or exit 2 if it has none."""
    if not os.path.isfile(os.path.join(SRC, "manisqp", "__init__.py")):
        print(f"perfbench: no manisqp sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import manisqp

    if os.path.dirname(os.path.dirname(os.path.abspath(manisqp.__file__))) != SRC:
        print(f"perfbench: manisqp was imported from {manisqp.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return manisqp


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be nonnegative and --seconds positive")

    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")  # before numpy is imported
    m = import_manisqp()
    print("env " + json.dumps(environment(), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(m, WORKLOADS[n], args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
