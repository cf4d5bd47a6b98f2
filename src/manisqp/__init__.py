"""Sequential quadratic optimization on embedded Riemannian manifolds."""

from .manifolds import (
    Euclidean,
    FixedRank,
    ManifoldPoint,
    Oblique,
    RankDropError,
    Sphere,
    TangentVector,
    exp_map,
    inner,
    orthonormal_basis,
    project_tangent,
    qr_basis,
    random_point,
    retract,
)
from .problem import (
    ConstraintBlock,
    KktReport,
    Multipliers,
    Problem,
    SmoothFunction,
    constraint_values,
    kkt_residual,
    lagrangian_hessian_matrix,
    merit,
    merit_stack,
    riemannian_gradient,
)
from .qp import QpModel, QpSolution, build_subproblem, kkt_violation, modify_hessian, solve_qp
from .solver import (
    IterateState,
    IterationRecord,
    QpInfeasibleError,
    SolveTrace,
    SolverConfig,
    StallError,
    iteration_seed,
    line_search,
    newton_kkt_step,
    solve,
    step,
    update_penalty,
)
from .instances import (
    CompletionInstance,
    CutInstance,
    completion_problem,
    cut_problem,
    feasible_start,
    gen_balanced_cut,
    gen_completion,
    gen_instance,
    instance_from_dict,
    instance_to_dict,
    problem_and_start,
    random_cut_start,
)
from .runner import RunSpec, decade_crossings, run, write_trace_csv

__version__ = "0.1.0"
