"""Layer timing from outside the program.

``Tracer.install`` replaces module attributes that the program's callers
look up with timing wrappers.  ``solver`` and ``qp`` import their helpers
by name (``from .manifolds import orthonormal_basis``), so each wrapper is
installed in the namespace of the module that calls it, not only in the
module that defines it.  ``restore`` puts the originals back.

Spans are aggregated as they close: for each span name the tracer keeps
its self time (duration minus the time of the spans it encloses) and its
call count.  Hooks read counters off arguments, results and exceptions at
the same boundaries.  Step durations are kept individually for their
percentiles.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.step_s: list[float] = []
        self._open: list[float] = []  # time of closed children, per open span
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, on_return=None, on_raise=None):
        open_spans = self._open
        self_s, calls = self.self_s, self.calls
        step_s = self.step_s if name == "solver.step" else None

        def close(t0):
            dt = time.perf_counter() - t0
            self_s[name] += dt - open_spans.pop()
            calls[name] += 1
            if open_spans:
                open_spans[-1] += dt
            if step_s is not None:
                step_s.append(dt)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                close(t0)
                if on_raise is not None:
                    on_raise(exc, args)
                raise
            close(t0)
            if on_return is not None:
                on_return(out, args)
            return out

        return traced

    def _patch(self, module, attr, name, **hooks):
        orig = getattr(module, attr)
        self._patches.append((module, attr, orig))
        setattr(module, attr, self._wrap(name, orig, **hooks))

    def install(self) -> None:
        import manisqp
        from manisqp import instances, manifolds, problem, qp, solver

        c = self.counts
        restarting = (solver.QpInfeasibleError, manifolds.RankDropError, solver.StallError)

        def rank_drop(exc, args):
            if isinstance(exc, manifolds.RankDropError):
                c["manifolds.rank_drops"] += 1

        def qp_solved(sol, args):
            c[f"qp.status_{sol.status}"] += 1
            if args[0].dims[1]:  # inequality rows: interior-point route
                c["qp.ipm_iters"] += sol.iterations

        def searched(ls, args):
            c["solver.accepted"] += 1
            c["solver.merit_trials"] += ls.backtracks + 1

        def search_failed(exc, args):
            # the search evaluated every trial step up to max_backtracks
            if isinstance(exc, solver.StallError):
                c["solver.merit_trials"] += args[5].max_backtracks + 1

        def start_step(state_record, args):
            c["instances.start_steps"] += 1

        def start_step_failed(exc, args):
            c["instances.start_steps"] += 1
            # feasible_start catches these and restarts from a fresh point
            if isinstance(exc, restarting):
                c["instances.start_restarts"] += 1

        def start_failed(exc, args):
            if isinstance(exc, RuntimeError):
                c["instances.start_failures"] += 1

        def solved(out, args):
            _, trace = out
            c["solver.iterations"] += len(trace.records)
            c[f"solver.verdict_{trace.verdict}"] += 1

        def csv_written(out, args):
            c["runner.trace_csv_bytes"] += os.path.getsize(args[0])

        p = self._patch
        p(solver, "orthonormal_basis", "manifolds.basis")
        p(solver, "retract", "manifolds.retract", on_raise=rank_drop)
        p(solver, "lagrangian_hessian_matrix", "problem.hessian")
        p(solver, "merit", "problem.merit")
        p(solver, "kkt_residual", "problem.kkt_residual")
        for mod in (problem, qp, instances):
            p(mod, "constraint_values", "problem.constraint_values")
        p(solver, "modify_hessian", "qp.modify")
        p(solver, "build_subproblem", "qp.build")
        p(solver, "solve_qp", "qp.solve", on_return=qp_solved)
        p(qp, "linprog", "qp.phase1")
        p(solver, "step", "solver.step")
        p(instances, "step", "solver.step", on_return=start_step, on_raise=start_step_failed)
        p(solver, "line_search", "solver.line_search", on_return=searched, on_raise=search_failed)
        # the benchmark's own calls go through the package attributes
        p(manisqp, "solve", "solver.solve", on_return=solved)
        p(manisqp, "feasible_start", "instances.start", on_raise=start_failed)
        p(manisqp, "random_cut_start", "instances.start")
        p(manisqp, "write_trace_csv", "runner.trace_csv", on_return=csv_written)

    def restore(self) -> None:
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)

    def covered_s(self) -> float:
        """Time inside any span: every span is a layer boundary."""
        return sum(self.self_s.values())
