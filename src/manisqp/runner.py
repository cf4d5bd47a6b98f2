"""Batch experiment runner: seeded trials, trace CSVs, summary JSON.

A RunSpec names a problem family, its sizes, a trial count and the solver
configuration.  ``solve_seed(spec, seed)`` is one trial, with ``seed`` as
the instance and solver seed (``manisqp solve --seed S`` runs it at S); a
failed start is a "start_failed" trace and counts as a failure.  ``run``
makes trial t ``solve_seed(spec, trial_seed(spec.seed, t))`` and writes one
trace CSV per trial, a ``decades.csv`` with the first wall time at which
the residual crossed each power of ten, and a ``summary.json`` with the
success ratio, means over successful trials and each trial's verdict,
reason and elapsed seconds.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .instances import START_TOL, gen_instance, instance_size, problem_and_start
from .solver import SolverConfig, SolveTrace, require_integers, solve

__all__ = ["RunSpec", "run", "solve_seed", "write_trace_csv", "decade_crossings", "TRACE_COLUMNS"]

TRACE_COLUMNS = (
    "iter",
    "time_s",
    "f",
    "merit",
    "residual",
    "rho",
    "alpha",
    "step_norm",
    "backtracks",
    "qp_status",
)

# Residual decade thresholds reported per trial: 10^1 down to 10^-13.
DECADE_EXPONENTS = tuple(range(1, -14, -1))

_SALT_TRIAL = 0x7D


@dataclass(frozen=True)
class RunSpec:
    problem: str  # one of instances.FAMILIES
    q: int
    s: int
    p: int | None = None
    density: float | None = None
    trials: int = 1
    seed: int = 0
    start_tol: float = START_TOL
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        instance_size(self.problem, self.q, self.s, self.p, self.density)
        require_integers(trials=self.trials, seed=self.seed)
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not self.start_tol >= 0.0:  # written so that NaN is rejected too
            raise ValueError("start_tol must be nonnegative")

    @staticmethod
    def from_dict(d: dict) -> "RunSpec":
        if not isinstance(d, dict):
            raise ValueError(f"invalid run spec: expected an object, got {type(d).__name__}")
        d = dict(d)
        try:
            return RunSpec(solver=SolverConfig(**d.pop("solver", {})), **d)
        except TypeError as exc:  # an unknown or missing key, or a value of the wrong type
            raise ValueError(f"invalid run spec: {exc}") from None

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        return out


def trial_seed(base_seed: int, trial: int) -> int:
    ss = np.random.SeedSequence((int(base_seed), _SALT_TRIAL, int(trial)))
    return int(ss.generate_state(1)[0])


def write_trace_csv(path, records, wall_times: bool = True) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRACE_COLUMNS)
        for r in records:
            t = r.wall_time if wall_times else 0.0
            w.writerow(
                [
                    r.k,
                    f"{t:.6f}",
                    repr(float(r.f)),
                    repr(float(r.merit)),
                    repr(float(r.residual)),
                    repr(float(r.rho)),
                    repr(float(r.alpha)),
                    repr(float(r.step_norm)),
                    r.backtracks,
                    r.qp_status,
                ]
            )


def decade_crossings(records) -> dict[int, float]:
    """First wall time at which the residual reached each decade threshold."""
    out: dict[int, float] = {}
    for e in DECADE_EXPONENTS:
        thr = 10.0**e
        for r in records:
            if r.residual <= thr:
                out[e] = r.wall_time
                break
    return out


def solve_seed(spec: RunSpec, seed: int):
    """(trace, elapsed seconds) of spec's instance at ``seed``, solved with ``seed`` as solver seed.

    A failed start is a "start_failed" trace with its reason and the seconds
    it took; otherwise elapsed is the solve's last record time.
    """
    inst = gen_instance(spec.problem, spec.q, spec.s, spec.p, spec.density, seed)
    t0 = time.perf_counter()
    try:
        prob, x0 = problem_and_start(inst, spec.start_tol)
    except RuntimeError as exc:
        return SolveTrace(verdict="start_failed", reason=str(exc)), time.perf_counter() - t0
    _, trace = solve(prob, x0, cfg=dataclasses.replace(spec.solver, seed=seed))
    return trace, trace.records[-1].wall_time if trace.records else 0.0


def run(spec: RunSpec, out_dir: str):
    """Execute all trials and write artifacts.

    Returns (summary dict, list of per-trial SolveTrace).  The traces carry
    the diagnostic fields that the fixed CSV schema drops, so callers can
    audit Armijo and subproblem certificates without re-running.
    """
    os.makedirs(out_dir, exist_ok=True)
    seeds: list[int] = []
    traces = []
    successes = 0
    times: list[float] = []
    iters: list[int] = []
    elapsed_s: list[float] = []
    all_crossings: list[dict[int, float]] = []

    for t in range(spec.trials):
        iseed = trial_seed(spec.seed, t)
        trace, elapsed = solve_seed(spec, iseed)
        seeds.append(iseed)
        traces.append(trace)
        elapsed_s.append(elapsed)
        write_trace_csv(os.path.join(out_dir, f"trial_{t:03d}.csv"), trace.records, wall_times=True)
        all_crossings.append(decade_crossings(trace.records))
        if trace.verdict == "converged" and elapsed <= spec.solver.max_time:
            successes += 1
            times.append(elapsed)
            iters.append(len(trace.records))

    with open(os.path.join(out_dir, "decades.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["trial", "decade", "time_s"])
        for t, crossings in enumerate(all_crossings):
            for e in DECADE_EXPONENTS:
                cell = f"{crossings[e]:.6f}" if e in crossings else ""
                w.writerow([t, e, cell])

    summary = {
        "problem": spec.problem,
        "params": {
            "q": spec.q,
            "s": spec.s,
            "p": spec.p,
            "density": spec.density,
            "start_tol": spec.start_tol,
            "solver": dataclasses.asdict(spec.solver),
        },
        "trials": spec.trials,
        "successes": successes,
        "success_ratio": successes / spec.trials,
        "mean_time_s": (sum(times) / len(times)) if times else None,
        "mean_iters": (sum(iters) / len(iters)) if iters else None,
        "seeds": seeds,
        "verdicts": [t.verdict for t in traces],
        "reasons": [t.reason for t in traces],
        "elapsed_s": elapsed_s,
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary, traces
