"""Convex quadratic subproblems in tangent-space coordinates.

The model is

    min_d  (1/2) d^T H d + c^T d
    s.t.   A_ineq d <= b_ineq,   A_eq d = b_eq,

with H symmetric positive definite.  The ``QpModel`` constructor is the
one place that checks a model's blocks (shapes, finite entries, symmetric
H).  ``solve_qp`` certifies its answer against the KKT conditions of this
model and never reports "optimal" without the certificate holding to the
requested tolerance.

One SVD of A_eq per model gives its rank, the minimum-norm solution x_p of
A_eq d = b_eq, a null-space basis Z and the minimum-norm multipliers of any
stationarity residual.  Inconsistent equality rows (x_p missing b_eq by more
than ``INFEASIBILITY_TOL``) end "infeasible" at once; dependent consistent
rows need no special case on either route, and get the minimum-norm
multipliers.  Two routes then use that factorization, each on w with
d = x_p + Z w (Z is the identity and x_p zero without equality rows):

* Problems without inequality rows reduce to a single saddle-point solve
  (null-space method with extended-precision refinement, the reduced
  Hessian factored by LAPACK's Cholesky routines).  The Newton step of
  ``solver.newton_kkt_step`` is such a problem, all of its constraints
  stacked as equality rows.
* Problems with inequality rows go to a dual active-set method (Goldfarb &
  Idnani, Math. Programming 27, 1983; ``_solve_active_set``): from the
  unconstrained minimizer it adds one violated row per step, and a few
  exact steps end it, since H is positive definite.  Its point is
  certified as it stands or after a saddle solve with the active rows as
  equalities; a dependent row that no active row can make room for gives
  a dual ray for the infeasibility test below.  What the route does not
  decide (step limit, failed factorization, nonfinite intermediate,
  uncertified point, rejected ray) ends "max_iter" at its last iterate.

Infeasibility is decided by dual vectors y >= 0 of the inequality rows: by
weak duality of the elastic LP that minimizes the total constraint
violation, y / max y with least-squares equality multipliers v bounds that
violation from below (``_certifies_infeasible``).  The active-set route
tests its ray, the only such vector it forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgetrf, dgetrs, dpotrf, dpotrs

from .manifolds import ManifoldPoint
# perfbench's layer tracer patches constraint_values here, so the name stays imported
from .problem import Evaluation, Multipliers, Problem, constraint_values, evaluate  # noqa: F401

__all__ = [
    "QpModel",
    "QpSolution",
    "modify_hessian",
    "build_subproblem",
    "solve_qp",
    "kkt_violation",
]

SYMMETRY_TOL = 1e-8
# Lower bound on the total linearized-constraint violation above which a
# subproblem is declared infeasible: inconsistent equality rows, or the
# dual certificate of the active-set route's ray.
INFEASIBILITY_TOL = 1e-8
# Componentwise relative residual of A_ineq^T y + A_eq^T v that the dual
# certificate accepts.  1e-8 and 1e-6 gave the same statuses on the
# completion 4x8 and 5x10 subproblems (workload seed 11) and on the tests'
# models.
_CERT_RTOL = 1e-10
# Negative inequality multipliers in [-MU_CLAMP, 0) are rounded to zero on
# extraction; anything more negative is a solver bug, not roundoff.
MU_CLAMP = 1e-10

# Active-set steps per model, after which the model ends "max_iter".
# Decided subproblems took a median of 5 and at most 38 steps on completion
# 4x8 (first 300 feasibility phases), a median of 2 and at most 40 on
# completion 5x10 (first 10 solves), at workload seed 11.
_AS_MAX_STEPS = 50
# A row counts as dependent on the active rows when the share of its
# squared H_r^-1 norm left after projecting them out is at most this.
# 1e-8 to 1e-12 gave the same verdicts on those 4x8 subproblems; at 1e-14
# ten infeasible ones were no longer decided by a ray.
_AS_DEPENDENT = 1e-12


@dataclass(frozen=True, eq=False)
class QpModel:
    """Data of one tangent-space subproblem (see module docstring).

    The constructor is the one gate into the QP layer.  It coerces each
    block to its shape (d from c, the row counts from the right-hand
    sides, so that d = 0 works too) and rejects, naming the block, one of
    another shape or with a nonfinite entry, and an H that is not
    symmetric within ``SYMMETRY_TOL`` (the test is skipped when H equals
    its transpose bit for bit).  The blocks are read-only: one that is
    already a read-only float64 array owning its data is kept without a
    copy, anything else is copied in its own memory order.
    """

    H: np.ndarray
    c: np.ndarray
    A_ineq: np.ndarray
    b_ineq: np.ndarray
    A_eq: np.ndarray
    b_eq: np.ndarray

    def __post_init__(self):
        d, m, n = np.size(self.c), np.size(self.b_ineq), np.size(self.b_eq)
        shapes = {"H": (d, d), "c": (d,), "A_ineq": (m, d), "b_ineq": (m,), "A_eq": (n, d), "b_eq": (n,)}
        for name, shape in shapes.items():
            a = getattr(self, name)
            if not (isinstance(a, np.ndarray) and a.dtype == float and a.flags.owndata and not a.flags.writeable):
                a = np.array(a, dtype=float)
                a.setflags(write=False)
            if a.shape != shape:
                try:
                    a = a.reshape(shape)
                except ValueError:
                    raise ValueError(f"subproblem {name} has shape {a.shape}, expected {shape}") from None
            if not np.isfinite(a).all():
                raise ValueError(f"subproblem {name} has nonfinite entries")
            object.__setattr__(self, name, a)
        if not _bitwise_symmetric(self.H) and np.max(np.abs(self.H - self.H.T)) > SYMMETRY_TOL:
            raise ValueError("subproblem H is not symmetric")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.c.size, self.b_ineq.size, self.b_eq.size


@dataclass(frozen=True, eq=False)
class QpSolution:
    """Result of ``solve_qp``.

    ``d`` and ``eta`` are the certified point when ``status`` is "optimal",
    otherwise the route's last iterate, with its KKT violation ``kkt_error``.
    ``iterations`` counts the iterations run: active-set steps (the first
    examines the unconstrained minimizer; 0 when the route fails before it),
    or 1 for a saddle-point solve; it is 0 when the equality rows are
    inconsistent.
    """

    d: np.ndarray
    eta: Multipliers
    kkt_error: float
    status: str  # "optimal" | "infeasible" | "max_iter"
    iterations: int


def _bitwise_symmetric(a: np.ndarray) -> bool:
    """Whether a float64 square matrix equals its transpose bit for bit.

    ``==`` would take a -0.0/+0.0 pair for equal, but averaging such a pair
    turns the -0.0 into +0.0, and ``eigh`` reads one triangle only.
    """
    bits = a.view(np.uint64)
    return bool((bits == bits.T).all())


def modify_hessian(H: np.ndarray, delta: float) -> np.ndarray:
    """Floor the eigenvalues of a symmetric matrix at delta.

    Eigenvectors are preserved; every eigenvalue becomes max(delta, lambda_i).
    A matrix whose smallest eigenvalue is already >= delta is returned
    unchanged, as a new array.  H must be symmetric within ``SYMMETRY_TOL``;
    the eigenvalues are those of (H + H^T) / 2, which is H itself when H
    equals its transpose bit for bit, so such an H is not averaged.  Only
    where H + H^T overflows is the average taken as H/2 + H^T/2 instead.
    """
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("H must be a square matrix")
    if not 0.0 < delta < np.inf:  # written so that NaN is rejected too
        raise ValueError("delta must be positive and finite")
    if not np.isfinite(H).all():
        raise ValueError("H has nonfinite entries")
    sym = H
    if not _bitwise_symmetric(H):
        if np.max(np.abs(H - H.T)) > SYMMETRY_TOL:
            raise ValueError("H is not symmetric")
        with np.errstate(over="ignore"):
            sym = (H + H.T) / 2.0
        if not np.isfinite(sym).all():
            sym = H / 2.0 + H.T / 2.0
    w, q = np.linalg.eigh(sym)
    if not w.size or w[0] >= delta:
        return np.array(H)
    out = (q * np.maximum(w, delta)) @ q.T
    return (out + out.T) / 2.0


def build_subproblem(
    prob: Problem, x: ManifoldPoint, basis: np.ndarray, h_plus: np.ndarray, evaluation: Evaluation | None = None
) -> QpModel:
    """Linearize the problem at x in the coordinates of the (d, N) tangent basis.

    The linear term and constraint rows are coordinates of the respective
    Riemannian gradients; since the basis is tangent, they equal the plain
    contraction of ambient gradients with the basis vectors: each block's
    Jacobian (the objective's too) times the transposed basis.  Right-hand
    sides are the negated constraint values, so the model constraints read
    g_i + <grad g_i, d> <= 0 and h_j + <grad h_j, d> = 0.  Values and
    Jacobians are read off ``evaluation``, ``evaluate(prob, x)`` when None.

    The blocks pass through ``QpModel``'s gate: ``h_plus`` must be symmetric
    within ``SYMMETRY_TOL`` and every block finite, and ``h_plus`` is kept
    without a copy when it is read-only and owns its data.
    """
    ev = evaluation or evaluate(prob, x)
    c, ai, ae = (jac @ basis.T for jac in ev.jacobians)
    return QpModel(h_plus, c, ai, -ev.g, ae, -ev.h)


def kkt_violation(model: QpModel, d: np.ndarray, mu: np.ndarray, lam: np.ndarray) -> float:
    """Max-norm violation of the subproblem KKT conditions at (d, mu, lam).

    Evaluated in extended precision: steps along floored Hessian directions
    can be ~1e8 in norm, where float64 matrix-vector rounding alone would
    swamp a 1e-10 certificate.  Each long-double product is an ``np.dot``,
    which sums each entry's terms in order, as ``@`` on long doubles does
    in a slower loop.
    """
    ld = np.longdouble
    ai, ae, dl = model.A_ineq.astype(ld), model.A_eq.astype(ld), d.astype(ld)
    stat = np.dot(model.H.astype(ld), dl) + model.c.astype(ld)
    if mu.size:
        stat = stat + np.dot(ai.T, mu.astype(ld))
    if lam.size:
        stat = stat + np.dot(ae.T, lam.astype(ld))
    out = float(np.abs(stat).max()) if stat.size else 0.0
    if lam.size:
        out = max(out, float(np.abs(np.dot(ae, dl) - model.b_eq.astype(ld)).max()))
    if mu.size:
        slack = np.dot(ai, dl) - model.b_ineq.astype(ld)
        out = max(out, float(max(0.0, slack.max())))
        out = max(out, float(max(0.0, -mu.min())))
        out = max(out, float(np.abs(mu.astype(ld) * slack).max()))
    return out


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call.

    No code of the package calls it: infeasibility is certified from the
    active-set route's dual ray, so no run loads scipy.optimize.  The name
    stays only because perfbench's tracer wraps it by name as the phase-1
    layer.
    """
    from scipy.optimize import linprog

    return linprog(*args, **kwargs)


_REFINE_PASSES = 6
_EPS = np.finfo(float).eps


def _rank(sv: np.ndarray, shape: tuple[int, int]) -> int:
    """Numerical rank of a matrix of the given shape from its singular values."""
    return int(np.sum(sv > max(shape) * _EPS * (sv[0] if sv.size else 0.0)))


class _RowFactor(NamedTuple):
    """The SVD of A_eq cut at its ``_rank``: A_eq = u diag(sv) v^T.

    ``z`` is an orthonormal basis of the null space of A_eq; with no rows
    it is the identity.
    """

    u: np.ndarray  # (n, rank)
    sv: np.ndarray  # (rank,)
    v: np.ndarray  # (d, rank)
    z: np.ndarray  # (d, d - rank)

    def solution(self, r: np.ndarray) -> np.ndarray:
        """Minimum-norm least-squares x of A_eq x = r."""
        return self.v @ ((self.u.T @ r) / self.sv)

    def multipliers(self, r: np.ndarray) -> np.ndarray:
        """Minimum-norm least-squares y of A_eq^T y = r."""
        return self.u @ ((self.v.T @ r) / self.sv)


def _factor_rows(a: np.ndarray) -> _RowFactor:
    u, sv, vt = np.linalg.svd(a, full_matrices=True)
    rank = _rank(sv, a.shape)
    return _RowFactor(u[:, :rank], sv[:rank], vt[:rank].T, vt[rank:].T)


def _solve_saddle(H, eq: _RowFactor, rows, r1, r2, xp=None):
    """Solve [[H, A^T], [A, 0]] (x, y) = (r1, r2) by the null-space method, A = rows.

    Returns (x, y, residual), the residual being the max-norm of
    (r1 - H x - A^T y, r2 - A x) in extended precision (``np.dot``
    products, as in ``kkt_violation``), rounded to float64.  ``eq`` is the
    ``_RowFactor`` of A, and ``xp`` its ``solution(r2)`` when the caller
    has it.  Rank-deficient consistent rows are tolerated and get the
    minimum-norm y.  The backward error is polished by iterative refinement
    with extended-precision residuals: when H carries floored eigenvalues
    near delta, the solution norm scales like 1/delta and a single float64
    pass would leave the residual orders above the attainable floor.  The
    reduced Hessian is factored by LAPACK's Cholesky routines directly, the
    ones ``scipy.linalg.cho_factor``/``cho_solve`` call; an indefinite one
    is solved symmetrically, and a singular one raises LinAlgError.  The
    data are finite, since they come from a ``QpModel``, but Z^T H Z can
    still overflow: a nonfinite reduced Hessian raises the ValueError of
    scipy's ``check_finite``.  The reduced right-hand sides are not tested:
    one that overflows makes the residual nonfinite, so that no certificate
    holds for the answer.
    """
    d = r1.size
    n = eq.u.shape[0]
    z = eq.z
    if z.shape[1]:
        red = z.T @ H @ z
        if not np.isfinite(red).all():
            raise ValueError("array must not contain infs or NaNs")
        red_cf, info = dpotrf(red, lower=False, clean=True)
        if info > 0:
            def solve_red(rhs):
                return scipy.linalg.solve(red, rhs, assume_a="sym")
        else:
            def solve_red(rhs):
                return dpotrs(red_cf, rhs, lower=False)[0]

    def direct(r1_, r2_, x=None):
        x = eq.solution(r2_) if x is None else x
        if z.shape[1]:
            x = x + z @ solve_red(z.T @ (r1_ - H @ x))
        return x, eq.multipliers(r1_ - H @ x)

    ld = np.longdouble
    hl, al, r1l, r2l = (a.astype(ld) for a in (H, rows, r1, r2))
    x, lam = direct(r1, r2, xp)
    best = None
    for sweep in range(_REFINE_PASSES + 1):
        xl = x.astype(ld)
        res1 = np.asarray(r1l - np.dot(hl, xl) - np.dot(al.T, lam.astype(ld)), dtype=float)
        res2 = np.asarray(r2l - np.dot(al, xl), dtype=float)
        size = max(
            float(np.abs(res1).max()) if d else 0.0,
            float(np.abs(res2).max()) if n else 0.0,
        )
        if best is None or size < best[0]:
            best = (size, x, lam)
        else:
            break  # refinement has stopped helping
        if sweep == _REFINE_PASSES:
            break
        dx, dlam = direct(res1, res2)
        x = x + dx
        lam = lam + dlam
    return best[1], best[2], best[0]


def _certifies_infeasible(model: QpModel, eq: _RowFactor, z: np.ndarray) -> bool:
    """Whether z proves the model infeasible (Ye, Todd & Mizuno 1994; Todd 2004).

    Every (y, v) with A_ineq^T y + A_eq^T v = 0, 0 <= y <= 1 and |v| <= 1
    bounds the least total violation from below by -(b_ineq^T y + b_eq^T v),
    the dual of the elastic LP.  Here y = z / max z, v is the least-squares
    multiplier of -A_ineq^T y and t = max(1, |v|) scales (y, v) into that
    box; the residual must vanish to _CERT_RTOL relative to its terms.
    """
    y = z / z.max()
    aty = model.A_ineq.T @ y
    v = eq.multipliers(-aty)
    t = max(1.0, float(np.abs(v).max(initial=0.0)))
    r = aty + model.A_eq.T @ v
    scale = np.abs(model.A_ineq).T @ y + np.abs(model.A_eq).T @ np.abs(v)
    bound = -float(model.b_ineq @ y + model.b_eq @ v) / t
    return bool(np.all(np.abs(r) <= _CERT_RTOL * scale) and bound > INFEASIBILITY_TOL)


def _solve_active_set(model: QpModel, tol: float, eq: _RowFactor, xp: np.ndarray) -> QpSolution:
    """Dual active-set route (Goldfarb & Idnani 1983), in the null space of A_eq.

    Runs on w with x = xp + Z w, xp and Z from ``eq``.  With H_r = Z^T H Z
    factored once, it starts at the unconstrained minimizer and adds the most
    violated row p each step: r solves (A_S H_r^-1 A_S^T) r = A_S H_r^-1 a_p
    for the active rows S, the primal direction is z = H_r^-1 (a_p - A_S^T r),
    and the step is the full one that makes p active, or the partial one
    that drops the first active row whose multiplier reaches zero.  When no
    row is violated, the point is certified on the whole model, first as it
    stands and then after a saddle solve with S as equality rows.  A
    dependent row with no row to drop gives the dual ray y_p = 1,
    y_S = max(-r, 0), which only ``_certifies_infeasible`` can accept.

    Ends "max_iter" where it decides nothing (step limit, failed
    factorization, nonfinite intermediate, uncertified point, rejected
    ray); that answer and an "infeasible" one are its last iterate.
    """
    H, c = model.H, model.c
    ai, bi = model.A_ineq, model.b_ineq
    m = bi.size
    zb = eq.z
    dr = zb.shape[1]
    hr, ar = zb.T @ H @ zb, ai @ zb
    br = bi - ai @ xp
    last = (np.zeros(dr), np.zeros(0, dtype=np.intp), np.zeros(0))  # xp, before the first step
    if dr:  # LAPACK rejects an empty matrix
        cf, info = dpotrf(hr, lower=False, clean=True)
        if info:
            return _undecided(model, eq, xp, last, 0, "max_iter")
        sol = dpotrs(cf, np.column_stack([zb.T @ (H @ xp + c), ar.T]), lower=False)[0]
        w, g = -sol[:, 0], sol[:, 1:]
    else:
        w, g = np.zeros(0), np.zeros((0, m))
    # the rows' inner products in the metric of H_r^-1
    cm = ar @ g
    if not (np.isfinite(cm).all() and np.isfinite(w).all()):
        return _undecided(model, eq, xp, last, 0, "max_iter")

    active = np.zeros(0, dtype=np.intp)  # the active rows S, in the order they were added
    u = np.zeros(0)  # their multipliers
    p, up = -1, 0.0  # the row being added and its multiplier
    status = "max_iter"
    for step in range(1, _AS_MAX_STEPS + 1):
        last = (w, active, u, p, up)  # the iterate an answer that is not optimal reports
        if p < 0:
            viol = ar @ w - br
            viol[active] = -np.inf
            p = int(viol.argmax())
            if not viol[p] > 0.0:
                sol = _certify_active_set(model, tol, eq, xp, w, active, u, step)
                if sol is not None:
                    return sol
                break
            up = 0.0
        if active.size:
            rows = cm[active]
            lu, piv, info = dgetrf(rows[:, active])
            if info:
                break
            r = dgetrs(lu, piv, rows[:, p])[0]
            z = g[:, p] - g[:, active] @ r
        else:
            r = np.zeros(0)
            z = g[:, p]
        apz = float(ar[p] @ z)
        ratios = np.where(r > 0.0, u / r, np.inf)
        t1 = float(ratios.min(initial=np.inf))
        if apz > _AS_DEPENDENT * cm[p, p]:
            t2 = float(ar[p] @ w - br[p]) / apz
            full = t2 <= t1
            t = t2 if full else t1
            w = w - t * z
        elif t1 == np.inf:
            # a_p lies in the span of the active rows, and no row can leave
            y = np.zeros(m)
            y[active] = np.maximum(-r, 0.0)
            y[p] = 1.0
            if _certifies_infeasible(model, eq, y):
                status = "infeasible"
            break
        else:
            # a_p lies in the span of the active rows: move the multipliers only
            full, t = False, t1
        u = np.maximum(u - t * r, 0.0)
        up += t
        if full:
            active = np.concatenate((active, (p,)))
            u = np.concatenate((u, (up,)))
            p = -1
        else:
            # the partial step: the first active row to reach zero leaves,
            # p stays the row being added
            keep = np.arange(active.size) != ratios.argmin()
            active, u = active[keep], u[keep]
        if not (np.isfinite(w).all() and np.isfinite(u).all() and np.isfinite(up)):
            break
    return _undecided(model, eq, xp, last, step, status)


def _active_set_point(model, eq, xp, w, active, u, p=-1, up=0.0):
    """(x, mu, y) of an active-set iterate, y the least-squares equality multiplier."""
    x = xp + eq.z @ w
    mu = np.zeros(model.b_ineq.size)
    mu[active] = u
    if p >= 0:
        mu[p] = up
    y = eq.multipliers(-(model.H @ x + model.c + model.A_ineq.T @ mu))
    return x, mu, y


def _certify_active_set(model, tol, eq, xp, w, active, u, steps):
    """Certify a point that violates no row, or polish it with S as equality rows.

    Returns None when neither point is certified.
    """
    x, mu, y = _active_set_point(model, eq, xp, w, active, u)
    err = kkt_violation(model, x, mu, y)
    if not err <= tol:
        n = model.b_eq.size
        rows = np.vstack([model.A_eq, model.A_ineq[active]])
        rhs = np.concatenate([model.b_eq, model.b_ineq[active]])
        try:
            x, lam, _ = _solve_saddle(model.H, _factor_rows(rows), rows, -model.c, rhs)
        except ValueError:  # a nonfinite reduced system
            return None
        mu[active] = np.where((lam[n:] > -MU_CLAMP) & (lam[n:] < 0.0), 0.0, lam[n:])
        # dependent equality rows get the minimum-norm multipliers
        y = lam[:n] if eq.sv.size == n else eq.multipliers(model.A_eq.T @ lam[:n])
        err = kkt_violation(model, x, mu, y)
        if not err <= tol:
            return None
    return QpSolution(d=x, eta=Multipliers(mu, y), kkt_error=err, status="optimal", iterations=steps)


def _undecided(model, eq, xp, last, steps, status):
    """An answer that is not "optimal", at the active-set iterate last = (w, active, u, p, up)."""
    x, mu, y = _active_set_point(model, eq, xp, *last)
    err = kkt_violation(model, x, mu, y)
    return QpSolution(d=x, eta=Multipliers(mu, y), kkt_error=err, status=status, iterations=steps)


def solve_qp(model: QpModel, tol: float = 1e-10) -> QpSolution:
    """Solve the subproblem and certify the result.

    ``status`` is "optimal" only when the KKT violation of the returned
    point is <= tol.  Inconsistent equality rows end "infeasible" at once.
    Otherwise a run is "infeasible" when the active-set route's dual ray
    proves that every point violates the linearized constraints by more
    than 1e-8 in total, and "max_iter" when the route ends without a
    certificate.
    Raises ValueError for a tol that is not positive and finite; the
    model's data were checked by its constructor.
    """
    if not 0.0 < tol < np.inf:  # written so that NaN is rejected too
        raise ValueError("tol must be positive and finite")
    d, m, n = model.dims
    # one factorization of A_eq serves both routes
    eq = _factor_rows(model.A_eq)
    xp = eq.solution(model.b_eq)
    if n and np.max(np.abs(model.A_eq @ xp - model.b_eq)) > INFEASIBILITY_TOL:
        # inconsistent equality rows leave nothing to optimize over
        return QpSolution(
            d=np.zeros(d), eta=Multipliers.zeros(m, n), kkt_error=float("inf"), status="infeasible", iterations=0
        )
    if m == 0:
        # with r1 = -c and r2 = b_eq the refinement's residual is the KKT
        # violation, in the same order of terms as ``kkt_violation``
        x, lam, err = _solve_saddle(model.H, eq, model.A_eq, -model.c, model.b_eq, xp)
        status = "optimal" if err <= tol else "max_iter"
        return QpSolution(d=x, eta=Multipliers(np.zeros(0), lam), kkt_error=err, status=status, iterations=1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _solve_active_set(model, tol, eq, xp)
