"""Convex quadratic subproblems in tangent-space coordinates.

The model is

    min_d  (1/2) d^T H d + c^T d
    s.t.   A_ineq d <= b_ineq,   A_eq d = b_eq,

with H symmetric positive definite.  ``solve_qp`` certifies its answer
against the KKT conditions of this model and never reports "optimal"
without the certificate holding to the requested tolerance.

One SVD of A_eq per model gives its rank, the minimum-norm solution x_p of
A_eq d = b_eq, a null-space basis Z and the minimum-norm multipliers of any
stationarity residual.  Inconsistent equality rows (x_p missing b_eq by more
than ``INFEASIBILITY_TOL``) end "infeasible" at once; dependent consistent
rows need no special case on either route, and get the minimum-norm
multipliers.  Two routes then use that factorization: problems without
inequality rows reduce to a single saddle-point solve (null-space method
with extended-precision refinement, the reduced Hessian factored by LAPACK's
Cholesky routines), everything else goes through a Mehrotra-style
predictor-corrector interior point iteration on the slack form, run on w
with d = x_p + Z w (Z is the identity and x_p zero without equality rows).
An interior-point iterate gets the extended-precision certificate only when
a float64 lower bound on its complementarity violation (``_rules_out``)
cannot show that it misses tol; the iterates it skips are evaluated if the
path ends uncertified, so the returned point is the same either way.
Infeasibility is decided from the path's own dual iterates: by weak
duality of the elastic LP that minimizes the total constraint violation,
y = z / max z with least-squares equality multipliers v bounds that
violation from below (``_certifies_infeasible``).  The test runs at every
iterate from the first whose duality gap exceeds the first iterate's, and
once more at the last iterate of a path that ends uncertified; a path with
no such certificate ends "max_iter".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgetrf, dgetrs, dpotrf, dpotrs

from .manifolds import ManifoldPoint, TangentBasis, _readonly
from .problem import Multipliers, Problem, constraint_values

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
# dual certificate of the interior-point route.
INFEASIBILITY_TOL = 1e-8
# Componentwise relative residual of A_ineq^T y + A_eq^T v that the dual
# certificate accepts.  1e-8 and 1e-6 gave the same statuses on the
# completion 4x8 and 5x10 subproblems (workload seed 11) and on the tests'
# models.
_CERT_RTOL = 1e-10
# Negative inequality multipliers in [-MU_CLAMP, 0) are rounded to zero on
# extraction; anything more negative is a solver bug, not roundoff.
MU_CLAMP = 1e-10

# Interior-point iterations per model, after which an uncertified path gets
# its last dual certificate test.  Certified subproblems took at most 22
# iterations on completion 4x8 (first 300 feasibility phases) and 17 on
# completion 5x10 (first 10 solves), at workload seed 11, and at most 14 on
# the random QPs of acceptance criterion 2.
_IPM_MAX_ITER = 25


@dataclass(frozen=True, eq=False)
class QpModel:
    """Data of one tangent-space subproblem (see module docstring)."""

    H: np.ndarray
    c: np.ndarray
    A_ineq: np.ndarray
    b_ineq: np.ndarray
    A_eq: np.ndarray
    b_eq: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.c, dtype=float).size
        object.__setattr__(self, "H", _readonly(np.asarray(self.H, dtype=float).reshape(d, d)))
        object.__setattr__(self, "c", _readonly(np.asarray(self.c, dtype=float).reshape(d)))
        # row counts come from the right-hand sides, so that d = 0 works too
        ai = np.asarray(self.A_ineq, dtype=float).reshape(np.size(self.b_ineq), d)
        ae = np.asarray(self.A_eq, dtype=float).reshape(np.size(self.b_eq), d)
        object.__setattr__(self, "A_ineq", _readonly(ai))
        object.__setattr__(self, "b_ineq", _readonly(np.asarray(self.b_ineq, dtype=float).reshape(ai.shape[0])))
        object.__setattr__(self, "A_eq", _readonly(ae))
        object.__setattr__(self, "b_eq", _readonly(np.asarray(self.b_eq, dtype=float).reshape(ae.shape[0])))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.c.size, self.b_ineq.size, self.b_eq.size


@dataclass(frozen=True, eq=False)
class QpSolution:
    """Result of ``solve_qp``.

    ``d`` and ``eta`` are the certified point when ``status`` is "optimal",
    otherwise the iterate with the smallest KKT violation ``kkt_error``.
    ``iterations`` counts the iterations run: interior-point iterates
    examined, or 1 for a saddle-point solve; it is 0 on either route when
    the equality rows are inconsistent.  For a certified answer it is also
    the index of the returned iterate.
    """

    d: np.ndarray
    eta: Multipliers
    kkt_error: float
    status: str  # "optimal" | "infeasible" | "max_iter"
    iterations: int


def modify_hessian(H: np.ndarray, delta: float) -> np.ndarray:
    """Floor the eigenvalues of a symmetric matrix at delta.

    Eigenvectors are preserved; every eigenvalue becomes max(delta, lambda_i).
    A matrix whose smallest eigenvalue is already >= delta is returned
    unchanged.
    """
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("H must be a square matrix")
    if not 0.0 < delta < np.inf:  # written so that NaN is rejected too
        raise ValueError("delta must be positive and finite")
    if not np.isfinite(H).all():
        raise ValueError("H has nonfinite entries")
    if H.size and np.max(np.abs(H - H.T)) > SYMMETRY_TOL:
        raise ValueError("H is not symmetric")
    sym = (H + H.T) / 2.0
    w, q = np.linalg.eigh(sym)
    if not w.size or w[0] >= delta:
        return np.array(H)
    out = (q * np.maximum(w, delta)) @ q.T
    return (out + out.T) / 2.0


def build_subproblem(prob: Problem, x: ManifoldPoint, basis: TangentBasis, h_plus: np.ndarray) -> QpModel:
    """Linearize the problem at x in the basis coordinates.

    The linear term and constraint rows are coordinates of the respective
    Riemannian gradients; since the basis is tangent, they equal the plain
    contraction of ambient gradients with the basis vectors, which each
    block (the objective's too) forms for all of its rows at once.  Right-hand
    sides are the negated constraint values, so the model constraints read
    g_i + <grad g_i, d> <= 0 and h_j + <grad h_j, d> = 0.
    """
    d = len(basis)
    h_plus = np.asarray(h_plus, dtype=float)
    if h_plus.shape != (d, d):
        raise ValueError("Hessian model has wrong shape for the basis")
    if h_plus.size and np.max(np.abs(h_plus - h_plus.T)) > SYMMETRY_TOL:
        raise ValueError("Hessian model is not symmetric")
    xa = x.ambient
    bm = basis.matrix
    g, h = constraint_values(prob, x)
    return QpModel(H=h_plus, c=prob.obj.rows(xa, bm), A_ineq=prob.ineq.rows(xa, bm), b_ineq=-g, A_eq=prob.eq.rows(xa, bm), b_eq=-h)


def _extended(model: QpModel) -> tuple[np.ndarray, ...]:
    """The model blocks (H, c, A_ineq, b_ineq, A_eq, b_eq) in extended precision."""
    ld = np.longdouble
    return tuple(a.astype(ld) for a in (model.H, model.c, model.A_ineq, model.b_ineq, model.A_eq, model.b_eq))


def _kkt_error(ext: tuple[np.ndarray, ...], d: np.ndarray, mu: np.ndarray, lam: np.ndarray) -> float:
    """``kkt_violation`` on blocks already cast by ``_extended``."""
    ld = np.longdouble
    H, c, ai, bi, ae, be = ext
    dl = d.astype(ld)
    stat = H @ dl + c
    if mu.size:
        stat = stat + ai.T @ mu.astype(ld)
    if lam.size:
        stat = stat + ae.T @ lam.astype(ld)
    out = float(np.abs(stat).max()) if stat.size else 0.0
    if lam.size:
        out = max(out, float(np.abs(ae @ dl - be).max()))
    if mu.size:
        slack = ai @ dl - bi
        out = max(out, float(max(0.0, slack.max())))
        out = max(out, float(max(0.0, -mu.min())))
        out = max(out, float(np.abs(mu.astype(ld) * slack).max()))
    return out


def kkt_violation(model: QpModel, d: np.ndarray, mu: np.ndarray, lam: np.ndarray) -> float:
    """Max-norm violation of the subproblem KKT conditions at (d, mu, lam).

    Evaluated in extended precision: steps along floored Hessian directions
    can be ~1e8 in norm, where float64 matrix-vector rounding alone would
    swamp a 1e-10 certificate.
    """
    return _kkt_error(_extended(model), d, mu, lam)


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call.

    No code of the package calls it: infeasibility is certified from the
    interior-point path's dual iterates, so no run loads scipy.optimize.
    The name stays because perfbench's tracer wraps it as the phase-1 layer.
    """
    from scipy.optimize import linprog

    return linprog(*args, **kwargs)


_REFINE_PASSES = 6


def _rank(sv: np.ndarray, shape: tuple[int, int]) -> int:
    """Numerical rank of a matrix of the given shape from its singular values."""
    return int(np.sum(sv > max(shape) * np.finfo(float).eps * (sv[0] if sv.size else 0.0)))


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


def _check_finite(a: np.ndarray) -> None:
    # scipy.linalg's check_finite, which cho_factor and cho_solve applied
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def _solve_saddle(H, eq: _RowFactor, r1, r2, hl, al, r1l, r2l):
    """Solve [[H, A_eq^T], [A_eq, 0]] (x, y) = (r1, r2) by the null-space method.

    Returns (x, y, residual), the residual being the max-norm of
    (r1 - H x - A_eq^T y, r2 - A_eq x) in extended precision, rounded to
    float64.  ``eq`` is the ``_RowFactor`` of A_eq, and ``hl``,
    ``al``, ``r1l`` and ``r2l`` are H, A_eq, r1 and r2 in extended
    precision.  Rank-deficient consistent rows are tolerated and get the
    minimum-norm y.  The backward error is polished by iterative
    refinement with extended-precision residuals: when H carries floored
    eigenvalues near delta, the solution norm scales like 1/delta and a
    single float64 pass would leave the residual orders above the attainable
    floor.  The reduced Hessian is factored by LAPACK's Cholesky routines
    directly, the ones ``scipy.linalg.cho_factor``/``cho_solve`` call, with
    their finiteness checks; an indefinite one is solved symmetrically.
    """
    d = r1.size
    n = eq.u.shape[0]
    z = eq.z
    if z.shape[1]:
        red = z.T @ H @ z
        _check_finite(red)
        red_cf, info = dpotrf(red, lower=False, clean=True)
        if info > 0:
            def solve_red(rhs):
                return scipy.linalg.solve(red, rhs, assume_a="sym")
        else:
            def solve_red(rhs):
                _check_finite(rhs)
                return dpotrs(red_cf, rhs, lower=False)[0]

    def direct(r1_, r2_):
        x = eq.solution(r2_)
        if z.shape[1]:
            x = x + z @ solve_red(z.T @ (r1_ - H @ x))
        return x, eq.multipliers(r1_ - H @ x)

    ld = np.longdouble
    x, lam = direct(r1, r2)
    best = None
    for sweep in range(_REFINE_PASSES + 1):
        xl = x.astype(ld)
        res1 = np.asarray(r1l - hl @ xl - al.T @ lam.astype(ld), dtype=float)
        res2 = np.asarray(r2l - al @ xl, dtype=float)
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


def _solve_equality_qp(model: QpModel, tol: float, eq: _RowFactor) -> QpSolution:
    # with r1 = -c and r2 = b_eq the refinement's residual is the KKT
    # violation, in the same order of terms as ``_kkt_error``
    hl, cl, _, _, al, bl = _extended(model)
    x, lam, err = _solve_saddle(model.H, eq, -model.c, model.b_eq, hl, al, -cl, bl)
    status = "optimal" if err <= tol else "max_iter"
    return QpSolution(d=x, eta=Multipliers(np.zeros(0), lam), kkt_error=err, status=status, iterations=1)


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    # the reduction called directly: ndarray.min adds a Python-level wrapper
    return float(np.minimum.reduce(np.where(dv < 0.0, -v / dv, np.inf)))


def _screen(model: QpModel) -> tuple:
    """What ``_rules_out`` reads of a model, built once per model.

    With k = d + m + n + 4 terms at most in any residual entry, float64 and
    extended-precision evaluations of it each differ from the exact value by
    at most k * u * (sum of the magnitudes of its terms), u the unit
    roundoff, plus k underflow units.  ``gamma`` doubles their sum, which
    also covers the rounding of the bound itself.
    """
    d, m, n = model.dims
    k = d + m + n + 4
    gamma = k * (np.finfo(float).eps + np.finfo(np.longdouble).eps)
    tiny = 2 * k * np.finfo(float).smallest_subnormal
    return gamma, tiny, np.abs(model.A_ineq), np.abs(model.b_ineq)


def _rules_out(screen: tuple, tol: float, x: np.ndarray, z: np.ndarray, slack: np.ndarray) -> bool:
    """True when float64 residuals prove that ``_kkt_error`` at (x, z, any y) exceeds tol.

    ``slack`` is A_ineq x - b_ineq evaluated in float64.  Each complementarity
    entry |z_i| |slack_i| less its rounding bound is a lower bound on the
    matching entry of the extended-precision certificate.  NaN or inf in a
    bound never rules an iterate out: NaN propagates through the maximum,
    and an overflowed float64 slack times a tiny z could exceed tol when the
    extended-precision product does not.
    """
    gamma, tiny, ai, bi = screen
    comp = np.abs(z) * (np.abs(slack) - (gamma * (ai @ np.abs(x) + bi) + tiny))
    return bool(tol < np.maximum.reduce(comp, initial=-np.inf) < np.inf)


def _dual_test_due(gap: float, gap_first: float) -> bool:
    """Whether the dual test starts now: a gap grown past the first iterate's rarely certifies."""
    return gap > gap_first


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


def _solve_ipm(model: QpModel, tol: float, eq: _RowFactor, xp: np.ndarray) -> QpSolution:
    """Interior-point route, in the null space of A_eq.

    The path runs on w, with x = xp + Z w for the minimum-norm solution xp
    of A_eq x = b_eq and the null-space basis Z of ``eq``; its Newton matrix
    Z^T (H + A_ineq^T D A_ineq) Z has order d - rank, so dependent equality
    rows need no special case; with no rows, Z is the identity and xp is
    zero, exactly.  Each iterate's y is the least-squares multiplier that
    minimizes its stationarity residual.  Certificate, screen and dual
    infeasibility test are the whole model's.
    """
    H, c = model.H, model.c
    ai, bi = model.A_ineq, model.b_ineq
    m = bi.size
    zb = eq.z
    hr, ar = zb.T @ H @ zb, ai @ zb
    dr = hr.shape[0]

    ext = _extended(model)
    screen = _screen(model)
    armed = infeasible = False

    w = np.zeros(dr)
    x = xp
    s = np.maximum(1.0, bi - ai @ x)
    z = np.ones(m)
    gap_first = float(z @ s) / m

    # (KKT error, or None where the screen skipped it, x, z, y) per iterate;
    # the arrays are replaced, never modified, so keeping them is safe
    iterates = []
    # slacks collapse when the constraints are inconsistent, and the
    # divisions by them overflow; every such case ends the central path at
    # the best iterate so far through the finiteness check below, since a
    # nonfinite Newton direction (predictor or corrector) leaves x, s or z
    # nonfinite after the step
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for it in range(1, _IPM_MAX_ITER + 1):
            ax = ai @ x
            g = H @ x + c + ai.T @ z
            y = eq.multipliers(-g)
            err = None
            if not _rules_out(screen, tol, x, z, ax - bi):
                err = _kkt_error(ext, x, z, y)
                if err <= tol:
                    mu = np.where((z > -MU_CLAMP) & (z < 0.0), 0.0, z)
                    return QpSolution(d=x, eta=Multipliers(mu, y), kkt_error=err, status="optimal", iterations=it)
            iterates.append((err, x, z, y))
            gap = float(z @ s) / m
            armed = armed or _dual_test_due(gap, gap_first)
            if armed and _certifies_infeasible(model, eq, z):
                infeasible = True
                break

            gr = zb.T @ g
            ri = ax + s - bi
            dd = z / s
            if dr:  # LAPACK rejects an empty matrix
                lu, piv, info = dgetrf(np.asfortranarray(hr + (ar.T * dd) @ ar), overwrite_a=True)
                if info:  # singular: the solves below could only give inf/nan
                    break

            def newton(rc):
                rhs = -(gr + ar.T @ (rc / s + dd * ri))
                dw = dgetrs(lu, piv, rhs, overwrite_b=True)[0] if dr else rhs
                ds = -ri - ar @ dw
                return dw, ds, (rc - z * ds) / s

            # predictor
            dwa, dsa, dza = newton(-z * s)
            ap = min(1.0, _max_step(s, dsa))
            ad = min(1.0, _max_step(z, dza))
            gap_aff = float((z + ad * dza) @ (s + ap * dsa)) / m
            # a numpy power, so that a huge ratio overflows to inf (and the
            # corrector's step turns nonfinite) instead of raising
            sigma = np.float64(max(gap_aff, 0.0) / gap) ** 3 if gap > 0.0 else 0.0

            # corrector
            dw, ds, dz = newton(sigma * gap - z * s - dza * dsa)
            ap = min(1.0, 0.99 * _max_step(s, ds))
            ad = min(1.0, 0.99 * _max_step(z, dz))
            w = w + ap * dw
            s = s + ap * ds
            z = z + ad * dz
            x = xp + zb @ w
            if not (np.isfinite(x).all() and np.isfinite(s).all() and np.isfinite(z).all()):
                break
            if gap < 1e-18:
                break

        # the last iterate kept has a finite z; an armed path has tested it
        infeasible = infeasible or (not armed and _certifies_infeasible(model, eq, iterates[-1][2]))
        evaluated = [(_kkt_error(ext, x, z, y) if err is None else err, x, z, y) for err, x, z, y in iterates]
    # first minimum, as if every iterate had been evaluated in turn
    err, x, z, y = min(evaluated, key=lambda e: e[0])
    status = "infeasible" if infeasible else "max_iter"
    mu = np.where((z > -MU_CLAMP) & (z < 0.0), 0.0, z)
    return QpSolution(d=x, eta=Multipliers(mu, y), kkt_error=err, status=status, iterations=it)


def solve_qp(model: QpModel, tol: float = 1e-10) -> QpSolution:
    """Solve the subproblem and certify the result.

    ``status`` is "optimal" only when the KKT violation of the returned
    point is <= tol.  Inconsistent equality rows end "infeasible" at once.
    Otherwise a run is "infeasible" when a dual iterate of the path proves
    that every point violates the linearized constraints by more than 1e-8
    in total, and "max_iter" when it ends uncertified without such a proof.
    Raises ValueError for a tol that is not positive and finite, and names
    a block with a nonfinite entry.
    """
    if not 0.0 < tol < np.inf:  # written so that NaN is rejected too
        raise ValueError("tol must be positive and finite")
    for name in ("H", "c", "A_ineq", "b_ineq", "A_eq", "b_eq"):
        if not np.isfinite(getattr(model, name)).all():
            raise ValueError(f"subproblem {name} has nonfinite entries")
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
        return _solve_equality_qp(model, tol, eq)
    return _solve_ipm(model, tol, eq, xp)
