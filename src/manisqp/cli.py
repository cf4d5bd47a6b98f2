"""Command line entry points: gen, solve, bench."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .instances import FAMILIES, START_TOL, gen_instance, instance_to_dict
from .runner import RunSpec, run, solve_seed, write_trace_csv
from .solver import B_STRATEGIES, SolverConfig

EXIT_CODES = {
    "converged": 0,
    "max_iter": 10,
    "max_time": 11,
    "stalled": 12,
    "qp_infeasible": 13,
    "rank_drop": 14,
    "start_failed": 15,
}


def _add_instance_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--problem", required=True, choices=FAMILIES)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--p", type=int, help="rank (completion only)")
    p.add_argument("--density", type=float, help="edge probability (balanced_cut only)")
    p.add_argument("--seed", type=int, default=0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="manisqp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a problem instance as JSON")
    _add_instance_args(gen)
    gen.add_argument("--out", required=True, help="output JSON path")

    sol = sub.add_parser("solve", help="solve one instance")
    _add_instance_args(sol)
    # one flag per SolverConfig field but seed, which is --seed; a flag left
    # out takes the field's default
    helps = {"delta": "eigenvalue floor", "qp_tol": "subproblem certificate tolerance"}
    for f in dataclasses.fields(SolverConfig):
        if f.name == "seed":
            continue
        choices = B_STRATEGIES if f.name == "b_strategy" else None
        sol.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), choices=choices, help=helps.get(f.name))
    sol.add_argument("--start-tol", type=float, default=START_TOL, help="feasibility phase target (completion)")
    sol.add_argument("--trace", help="write the iteration trace CSV here")
    sol.add_argument(
        "--wall-times",
        action="store_true",
        help="record measured wall times in the trace; by default the time "
        "column is zeroed so repeated runs are byte-identical",
    )

    ben = sub.add_parser("bench", help="run a benchmark batch from a spec file")
    ben.add_argument("--spec", required=True, help="RunSpec JSON path")
    ben.add_argument("--out", required=True, help="output directory")
    return parser


def _run_spec(parser, args, **more) -> RunSpec:
    """The RunSpec of the instance flags and ``more``; an invalid one is a usage error."""
    try:
        return RunSpec.from_dict({k: getattr(args, k) for k in ("problem", "q", "s", "p", "density", "seed")} | more)
    except ValueError as exc:
        parser.error(str(exc))


def _cmd_gen(parser, args) -> int:
    spec = _run_spec(parser, args)
    inst = gen_instance(spec.problem, spec.q, spec.s, spec.p, spec.density, spec.seed)
    with open(args.out, "w") as fh:
        json.dump(instance_to_dict(inst), fh, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


def _cmd_solve(parser, args) -> int:
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(SolverConfig) if f.name != "seed"}
    spec = _run_spec(parser, args, start_tol=args.start_tol, solver={k: v for k, v in given.items() if v is not None})
    trace, _ = solve_seed(spec, spec.seed)
    if args.trace:
        write_trace_csv(args.trace, trace.records, wall_times=args.wall_times)
    last = trace.records[-1] if trace.records else None
    print(
        f"verdict={trace.verdict} iters={len(trace.records)}"
        + (f" f={last.f:.9e} residual={last.residual:.3e}" if last else "")
        + (f" reason={trace.reason!r}" if trace.reason else "")
    )
    return EXIT_CODES[trace.verdict]


def _cmd_bench(parser, args) -> int:
    try:
        with open(args.spec) as fh:
            spec = RunSpec.from_dict(json.load(fh))
    except OSError as exc:  # missing, a directory, or not readable
        parser.error(f"cannot read spec file {args.spec}: {exc.strerror or exc}")
    except ValueError as exc:  # invalid JSON too: json.JSONDecodeError is a ValueError
        parser.error(str(exc))
    summary, _ = run(spec, args.out)
    print(
        f"wrote {args.out}/summary.json: {summary['successes']}/{summary['trials']} "
        f"converged (ratio {summary['success_ratio']:.2f})"
    )
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "gen":
        return _cmd_gen(parser, args)
    if args.command == "solve":
        return _cmd_solve(parser, args)
    return _cmd_bench(parser, args)


if __name__ == "__main__":
    sys.exit(main())
