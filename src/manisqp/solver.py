"""Sequential quadratic optimization on manifolds.

Each iteration reads the problem at x_k through one ``Evaluation`` (f, g, h,
Jacobians), which ``step`` makes for x_{k+1} after the line search and carries
in the next ``IterateState`` (callers leave it None).  It then draws a random
orthonormal tangent basis from the iteration seed (the manifold's own
construction, ``orthonormal_basis``: on Oblique and Sphere the seed picks the
rotation of each row's Householder block), builds a convex quadratic model of
the problem in those coordinates (the modified Lagrangian Hessian below, or
the identity), solves it for a step and a fresh multiplier estimate,
ratchets the exact-penalty parameter so the step remains a descent
direction for the merit function, and backtracks until the Armijo condition

    gamma * t * <B d, d>  <=  P_rho(x) - P_rho(retract(x, t d))

holds for t = beta^r with the smallest r >= 0.  The trial steps are
evaluated in chunks, each chunk as one stacked retraction and one stacked
merit evaluation.  After a search that accepted r >= 2 the next one's first
chunk covers r = 0..floor(1.25 r) (``LINE_SEARCH_REACH``), since deep
searches tend to follow each other; otherwise the first chunk is the full
step alone.  Each later chunk doubles the one before, up to
``LINE_SEARCH_MAX_CHUNK`` candidates.  The first candidate of a chunk that
drops rank or passes the test decides, so the accepted step is the one that
testing r = 0, 1, 2, ... in turn would accept, bit for bit.  The base merit
P_rho(x_k), like the Lagrangian gradient at (x_k, eta_k), is read off what
the previous step computed at x_k.

The model Hessian B_k keeps the Lagrangian Hessian's eigenvectors.  An
eigenvalue lambda >= 0 becomes max(delta, lambda); a negative one becomes
max(delta, min(-lambda, kappa_k)), with the cap
kappa_k = min(1, curvature_scale * r_k) and r_k the KKT residual at
(x_k, eta_k): the residual the previous step reported, carried in the
``IterateState``, or computed once at k = 0.  Far from a KKT point the
reversed curvature bounds the step, which under the plain floor has norm
~1/delta along negative curvature; near one kappa_k <= delta and B_k is the
plainly floored Hessian, so the local analysis is unchanged.  B_k's
eigenvalues lie between delta and max(1, delta, the largest lambda)
throughout, the uniform bounds that global convergence needs.  This is the
residual-proportional shift of regularized Newton methods (Li, Fukushima,
Qi & Yamashita, Comput. Optim. Appl. 28, 2004) applied only to negative
curvature, capped at |lambda| as in the absolute-value modification
(``modify_hessian``).  ``curvature_scale = 0`` keeps the fixed floor.

A Newton iteration on the KKT system (``newton_kkt_step``) is provided
alongside for local analysis.  It shares the basis, Hessian and subproblem
machinery but keeps the Hessian unmodified and treats all constraints as
equalities: its step is the all-equality subproblem, solved by the same
``solve_qp``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .manifolds import ManifoldPoint, RankDropError, TangentVector, orthonormal_basis, require_integers, retract
from .problem import (
    Evaluation,
    KktReport,
    Multipliers,
    Problem,
    _evaluated_merit,
    _lagrangian_gradient,
    evaluate,
    kkt_residual,
    lagrangian_hessian_matrix,
    merit,
    merit_stack,
)
from .qp import QpModel, build_subproblem, modify_hessian, solve_qp

__all__ = [
    "SolverConfig",
    "IterateState",
    "IterationRecord",
    "SolveTrace",
    "QpInfeasibleError",
    "StallError",
    "update_penalty",
    "line_search",
    "iteration_seed",
    "step",
    "solve",
    "newton_kkt_step",
]

# Steps with coordinate norm at or below this are treated as a stationary
# subproblem: the run stops with whatever residual the iterate has.
STEP_ZERO_TOL = 1e-14

B_STRATEGIES = ("modified_hessian", "identity")

# After a search that accepted r >= 2 backtracks, the next search's first
# chunk of trial steps covers r = 0..floor(LINE_SEARCH_REACH * r); otherwise
# it holds the full step alone.  Each later chunk doubles the one before,
# capped at LINE_SEARCH_MAX_CHUNK candidates to bound its memory.
LINE_SEARCH_REACH = 1.25
LINE_SEARCH_MAX_CHUNK = 128


class QpInfeasibleError(RuntimeError):
    """The linearized subproblem has no feasible point."""


class StallError(RuntimeError):
    """The iteration cannot make further progress."""


_FAILURE_VERDICTS = {QpInfeasibleError: "qp_infeasible", RankDropError: "rank_drop", StallError: "stalled"}


@dataclass(frozen=True)
class SolverConfig:
    epsilon: float = 0.5
    rho_init: float = 1.0
    beta: float = 0.9
    gamma: float = 0.25
    delta: float = 1e-5
    b_strategy: str = "modified_hessian"
    residual_tol: float = 1e-6
    max_iter: int = 100_000
    max_time: float = 600.0
    max_backtracks: int = 200
    seed: int = 0
    qp_tol: float = 1e-10
    curvature_scale: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if self.b_strategy not in B_STRATEGIES:
            raise ValueError(f"b_strategy must be one of {B_STRATEGIES}")
        # written so that NaN, which fails every comparison, is rejected
        for name in ("epsilon", "delta", "rho_init", "qp_tol"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
            if not getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite")
        if not 0.0 <= self.curvature_scale < math.inf:
            raise ValueError("curvature_scale must be nonnegative and finite")
        require_integers(max_iter=self.max_iter, max_backtracks=self.max_backtracks, seed=self.seed)
        for name in ("residual_tol", "max_iter", "max_time", "max_backtracks", "seed"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass(frozen=True, eq=False)
class IterateState:
    """Iterate x, eta, penalty rho, count k, and what the step that reached x computed there.

    ``evaluation`` (x's), ``gradient`` (the ambient Lagrangian gradient at
    (x, eta)), ``residual`` (the KKT residual of (x, eta)) and ``depth``
    (that step's accepted backtrack count) belong to ``step``: callers leave
    them at their defaults.
    """

    x: ManifoldPoint
    eta: Multipliers
    rho: float
    k: int
    evaluation: Evaluation | None = None
    gradient: np.ndarray | None = None
    residual: float | None = None
    depth: int = 0


@dataclass(frozen=True, eq=False)
class IterationRecord:
    """One completed iteration.

    The first ten fields mirror the trace CSV schema.  The remaining ones
    are diagnostic: they make the Armijo certificate, its minimality and
    the subproblem certificate re-checkable from a stored trace.
    ``merit_reject`` is the merit at the last rejected trial step (None when
    the full step was accepted); ``stationary`` marks an iteration whose
    subproblem step was numerically zero.  ``merit_evals`` counts the trial
    steps whose merit the line search computed, including those past the
    accepted one in its last chunk.  The first chunk is r = 0 alone, or
    r = 0..floor(1.25 r') when the previous iteration accepted r' >= 2
    backtracks, and each later chunk doubles the one before, up to 128; so
    a search that accepts r computes at least r + 1 merits.
    ``qp_iterations`` is the subproblem solver's iteration count.
    ``curvature_cap`` is the cap kappa_k on the reversed negative curvature
    of the Lagrangian Hessian (see ``step``; 0 keeps the fixed floor, NaN
    under the identity model).
    """

    k: int
    wall_time: float
    f: float
    merit: float
    residual: float
    rho: float
    alpha: float
    step_norm: float
    qp_status: str
    backtracks: int
    merit_prev: float = float("nan")
    merit_reject: float | None = None
    quad_form: float = float("nan")
    qp_kkt_error: float = float("nan")
    report: KktReport | None = None
    stationary: bool = False
    merit_evals: int = 0
    qp_iterations: int = 0
    curvature_cap: float = float("nan")


@dataclass(eq=False)
class SolveTrace:
    """Records and verdict of one run; ``reason`` says why a failed run stopped."""

    records: list[IterationRecord] = field(default_factory=list)
    verdict: str = "max_iter"
    reason: str = ""


def update_penalty(rho_prev: float, eta_star: Multipliers, epsilon: float) -> float:
    """Ratchet the penalty above the newest multiplier magnitudes.

    With upsilon = max(max_i mu_i, max_j |lam_j|) (0 when there are no
    constraints), returns rho_prev if rho_prev >= upsilon and upsilon +
    epsilon otherwise.  Nondecreasing in successive calls by construction.
    """
    cands = []
    if eta_star.mu.size:
        cands.append(float(np.max(eta_star.mu)))
    if eta_star.lam.size:
        cands.append(float(np.max(np.abs(eta_star.lam))))
    upsilon = max(cands) if cands else 0.0
    if rho_prev >= upsilon:
        return rho_prev
    return upsilon + epsilon


@dataclass(frozen=True, eq=False)
class LineSearchResult:
    alpha: float
    backtracks: int
    x_next: ManifoldPoint
    merit_base: float
    merit_next: float
    merit_reject: float | None
    merit_evals: int


def line_search(prob, x, direction, quad_form, rho, cfg, *, base=None, depth=0) -> LineSearchResult:
    """Backtracking Armijo search along a retracted ray.

    ``direction`` is the tangent step d as an array of the point's ambient
    shape.  Finds the smallest r >= 0 with
    gamma * beta^r * quad_form <= P_rho(x) - P_rho(retract(x, beta^r * d)),
    raising RankDropError if a retraction before it drops rank and
    StallError if no r up to cfg.max_backtracks qualifies.  ``base`` is
    P_rho(x), computed here when None.  Candidates are retracted and their
    merits computed a chunk at a time; ``depth``, the previous search's
    accepted r, sizes the first chunk (``LINE_SEARCH_REACH``).
    """
    if not 0.0 < quad_form < math.inf:  # written so that NaN is rejected too
        raise ValueError("quad_form must be positive and finite")
    direction = np.asarray(direction, dtype=float)
    if direction.shape != x.ambient.shape:
        raise ValueError(f"direction of shape {direction.shape} at a point of shape {x.ambient.shape}")
    if base is None:
        base = merit(prob, x, rho)
    reject = None
    size = math.floor(LINE_SEARCH_REACH * depth) + 1 if depth >= 2 else 1
    r0 = 0
    while r0 <= cfg.max_backtracks:
        rs = range(r0, min(r0 + size, cfg.max_backtracks + 1))
        ts = np.array([cfg.beta**r for r in rs])
        ys, kept, point = x.manifold.retract_stack(x, np.multiply.outer(ts, direction))
        merits = merit_stack(prob, ys, rho)
        # the first candidate that drops rank or passes the Armijo test decides
        stop = np.flatnonzero(~kept | (base - merits >= cfg.gamma * ts * quad_form))
        if stop.size:
            i = int(stop[0])
            if i:
                reject = float(merits[i - 1])
            return LineSearchResult(float(ts[i]), rs[i], point(i), base, float(merits[i]), reject, rs.stop)
        reject = float(merits[-1])
        r0 = rs.stop
        size = min(2 * size, LINE_SEARCH_MAX_CHUNK)
    raise StallError(f"no acceptable step within {cfg.max_backtracks} backtracks")


def iteration_seed(seed: int, k: int) -> np.random.SeedSequence:
    """Seed for the tangent basis of iteration k of a run seeded by `seed`."""
    return np.random.SeedSequence((int(seed), 0xB5, int(k)))


def step(prob: Problem, state: IterateState, cfg: SolverConfig, clock_origin: float | None = None):
    """One full iteration.  Returns (next state, record).

    The model Hessian is the Lagrangian Hessian modified by
    ``modify_hessian(H, cfg.delta, kappa_k)``, kappa_k as in the module
    docstring; the record keeps kappa_k as ``curvature_cap``.

    Raises QpInfeasibleError, StallError or RankDropError when the run
    cannot continue; the driver maps these onto verdicts.
    """
    t0 = time.perf_counter() if clock_origin is None else clock_origin
    x, eta, k = state.x, state.eta, state.k
    ev = state.evaluation or evaluate(prob, x)
    basis = orthonormal_basis(x, iteration_seed(cfg.seed, k))

    cap = float("nan")
    if cfg.b_strategy == "modified_hessian":
        grad = state.gradient
        cap = 0.0
        if cfg.curvature_scale:
            residual = state.residual
            if residual is None:  # x_0: no step has reported its residual
                if grad is None:
                    grad = _lagrangian_gradient(ev, eta, x.ambient.shape)
                residual = kkt_residual(prob, x, eta, ev, grad).residual
            cap = min(1.0, cfg.curvature_scale * residual)
        hl = lagrangian_hessian_matrix(prob, x, eta, basis, ev, grad)
        try:
            b = modify_hessian(hl, cfg.delta, cap)
        except ValueError:
            # hl is square and cfg.delta valid: a nonfinite hl is the one
            # rejection that names the Hessian, anything else propagates
            if np.isfinite(hl).all():
                raise
            raise StallError("Lagrangian Hessian has nonfinite entries") from None
    else:
        b = np.eye(basis.shape[0])

    try:
        sol = solve_qp(build_subproblem(prob, x, basis, b, ev), cfg.qp_tol)
    except ValueError as exc:  # subproblem data the model's gate rejects, or a nonfinite reduced Hessian
        raise StallError(str(exc)) from None
    if sol.status == "infeasible":
        raise QpInfeasibleError(f"subproblem infeasible at iteration {k}")
    if sol.status != "optimal":
        raise StallError(
            f"subproblem solver failed to certify at iteration {k} (kkt_error {sol.kkt_error:.3g}, "
            f"qp_tol {cfg.qp_tol:.3g}, step norm {np.linalg.norm(sol.d):.3g})"
        )
    if not np.all(np.isfinite(sol.eta.mu)) or not np.all(np.isfinite(sol.eta.lam)):
        raise StallError("subproblem multipliers are nonfinite")

    d_hat = sol.d
    step_norm = float(np.linalg.norm(d_hat))
    eta_next = sol.eta
    rho = update_penalty(state.rho, sol.eta, cfg.epsilon)
    quad_form = float(d_hat @ b @ d_hat)

    stationary = step_norm <= STEP_ZERO_TOL
    base = _evaluated_merit(ev, rho)
    if stationary:
        ls = LineSearchResult(0.0, 0, x, base, base, None, 0)
    else:
        direction = (d_hat @ basis).reshape(x.ambient.shape)
        ls = line_search(prob, x, direction, quad_form, rho, cfg, base=base, depth=state.depth)
    ev_next = ev if stationary else evaluate(prob, ls.x_next)
    grad_next = _lagrangian_gradient(ev_next, eta_next, x.ambient.shape)
    report = kkt_residual(prob, ls.x_next, eta_next, ev_next, grad_next)
    record = IterationRecord(
        k=k,
        wall_time=round(time.perf_counter() - t0, 6),
        f=ev_next.f,
        merit=ls.merit_next,
        residual=report.residual,
        rho=rho,
        alpha=ls.alpha,
        step_norm=step_norm,
        qp_status=sol.status,
        backtracks=ls.backtracks,
        merit_prev=ls.merit_base,
        merit_reject=ls.merit_reject,
        quad_form=quad_form,
        qp_kkt_error=sol.kkt_error,
        report=report,
        stationary=stationary,
        merit_evals=ls.merit_evals,
        qp_iterations=sol.iterations,
        curvature_cap=cap,
    )
    next_state = IterateState(ls.x_next, eta_next, rho, k + 1, ev_next, grad_next, report.residual, ls.backtracks)
    return next_state, record


def _state_unchanged(a: IterateState, b: IterateState) -> bool:
    return (
        np.array_equal(a.x.ambient, b.x.ambient)
        and a.rho == b.rho
        and np.array_equal(a.eta.mu, b.eta.mu)
        and np.array_equal(a.eta.lam, b.eta.lam)
    )


def solve(prob: Problem, x0: ManifoldPoint, eta0: Multipliers | None = None, cfg: SolverConfig | None = None):
    """Run the iteration from (x0, eta0) until a verdict is reached.

    Returns (final IterateState, SolveTrace).  Verdicts: "converged" when
    the KKT residual fell to cfg.residual_tol, otherwise "max_iter",
    "max_time", "stalled", "qp_infeasible" or "rank_drop".  A stalled,
    infeasible or rank-drop run carries its cause in ``trace.reason``.
    Raises ValueError when eta0 or x0 does not fit the problem.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    eta = eta0 if eta0 is not None else Multipliers.zeros(prob.m, prob.n)
    if eta.mu.shape != (prob.m,) or eta.lam.shape != (prob.n,):
        raise ValueError("initial multipliers do not match the problem")
    if x0.manifold != prob.manifold:
        raise ValueError("x0 does not lie on the problem's manifold")

    state = IterateState(x=x0, eta=eta, rho=cfg.rho_init, k=0)
    trace = SolveTrace(records=[], verdict="max_iter")
    t0 = time.perf_counter()

    for _ in range(cfg.max_iter):
        # budget check reuses the previous iteration's clock sample
        elapsed = trace.records[-1].wall_time if trace.records else 0.0
        if elapsed > cfg.max_time:
            trace.verdict = "max_time"
            return state, trace
        try:
            state_next, record = step(prob, state, cfg, clock_origin=t0)
        except (QpInfeasibleError, RankDropError, StallError) as exc:
            trace.verdict, trace.reason = _FAILURE_VERDICTS[type(exc)], str(exc)
            return state, trace
        trace.records.append(record)
        if record.residual <= cfg.residual_tol:
            trace.verdict = "converged"
            return state_next, trace
        if record.stationary:
            trace.verdict, trace.reason = "stalled", "subproblem step is zero above residual_tol"
            return state_next, trace
        if _state_unchanged(state, state_next):
            trace.verdict, trace.reason = "stalled", "accepted step left the iterate unchanged"
            return state_next, trace
        state = state_next

    trace.verdict = "max_iter"
    return state, trace


def newton_kkt_step(prob: Problem, x: ManifoldPoint, eta: Multipliers, basis: np.ndarray):
    """One Newton iteration on the KKT system in the coordinates of the (d, N) tangent basis.

    All constraints are kept as equalities and the Lagrangian Hessian enters
    unmodified, so this is the local method the globalized iteration is
    expected to track near a regular solution.  The step is the all-equality
    subproblem: ``build_subproblem``'s model with the inequality rows stacked
    on the equality rows, solved by ``solve_qp``, whose multipliers are
    eta_next.  Returns (x_next, eta_next).  Raises numpy.linalg.LinAlgError
    when the stacked rows are rank-deficient, the reduced Hessian is singular
    or the answer misses 1e-8 relative to the data's max-norm, which signals
    a constraint-qualification or second-order failure at x.
    """
    ev = evaluate(prob, x)
    model = build_subproblem(prob, x, basis, lagrangian_hessian_matrix(prob, x, eta, basis, ev), ev)
    rows = np.vstack([model.A_ineq, model.A_eq])
    rhs = np.concatenate([model.b_ineq, model.b_eq])
    failure = "singular KKT system: constraint qualification or second-order conditions fail at this point"
    if np.linalg.matrix_rank(rows) < rows.shape[0]:
        raise np.linalg.LinAlgError(failure)
    tol = 1e-8 * (1.0 + max(float(np.abs(a).max(initial=0.0)) for a in (model.H, model.c, rows, rhs)))
    try:
        sol = solve_qp(QpModel(model.H, model.c, np.zeros((0, rows.shape[1])), np.zeros(0), rows, rhs), tol)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(failure) from exc
    if sol.status != "optimal":
        raise np.linalg.LinAlgError(failure)
    x_next = retract(x, TangentVector(x, (sol.d @ basis).reshape(x.ambient.shape)))
    return x_next, Multipliers(sol.eta.lam[: prob.m], sol.eta.lam[prob.m :])
