"""Constrained problems on manifolds and their first/second order data.

A problem bundles an objective and two families of scalar constraints,

    min  f(x)   s.t.  g_i(x) <= 0  (i = 1..m),   h_j(x) = 0  (j = 1..n),

with x on an embedded manifold.  Every function is supplied through ambient
callbacks (value, gradient, Hessian-vector product on the embedding space);
Riemannian quantities are obtained by projection plus the manifold's
curvature correction, so no callback ever needs to know about the manifold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .manifolds import Manifold, ManifoldPoint, TangentBasis, TangentVector, project_tangent

__all__ = [
    "SmoothFunction",
    "Multipliers",
    "Problem",
    "KktReport",
    "riemannian_gradient",
    "lagrangian_hessian_matrix",
    "merit",
    "constraint_values",
    "kkt_residual",
]


@dataclass(frozen=True, eq=False)
class SmoothFunction:
    """Scalar function given by ambient callbacks.

    ``value(x)`` maps an ambient array to a float, ``gradient(x)`` returns
    the ambient gradient, and ``hess_vec(x, v)`` the ambient Hessian applied
    to an ambient direction v.
    """

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hess_vec: Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class Multipliers:
    """Inequality multipliers ``mu`` (length m) and equality ``lam`` (length n)."""

    mu: np.ndarray
    lam: np.ndarray

    @staticmethod
    def zeros(m: int, n: int) -> "Multipliers":
        return Multipliers(np.zeros(m), np.zeros(n))


@dataclass(frozen=True, eq=False)
class Problem:
    manifold: Manifold
    objective: SmoothFunction
    inequalities: tuple[SmoothFunction, ...] = ()
    equalities: tuple[SmoothFunction, ...] = ()
    name: str = ""

    @property
    def m(self) -> int:
        return len(self.inequalities)

    @property
    def n(self) -> int:
        return len(self.equalities)


GradientSelector = Union[str, tuple, Multipliers]


def _ambient_lagrangian(prob: Problem, eta: Multipliers, term: Callable[[SmoothFunction], np.ndarray]) -> np.ndarray:
    """term(f) + sum mu_i term(g_i) + sum lam_j term(h_j), skipping zero multipliers."""
    out = np.array(term(prob.objective), dtype=float)
    for coefs, fns in ((eta.mu, prob.inequalities), (eta.lam, prob.equalities)):
        for coef, fn in zip(coefs, fns):
            if coef != 0.0:
                out = out + coef * term(fn)
    return out


def riemannian_gradient(prob: Problem, x: ManifoldPoint, which: GradientSelector = "objective") -> TangentVector:
    """Riemannian gradient of a problem function at x.

    ``which`` selects the function: ``"objective"``, ``("ineq", i)``,
    ``("eq", j)``, or a :class:`Multipliers` instance for the Lagrangian
    f + sum mu_i g_i + sum lam_j h_j.
    """
    if isinstance(which, Multipliers):
        return project_tangent(x, _ambient_lagrangian(prob, which, lambda fn: fn.gradient(x.ambient)))
    if which == "objective":
        return project_tangent(x, prob.objective.gradient(x.ambient))
    kind, idx = which
    if kind == "ineq":
        return project_tangent(x, prob.inequalities[idx].gradient(x.ambient))
    if kind == "eq":
        return project_tangent(x, prob.equalities[idx].gradient(x.ambient))
    raise ValueError(f"unknown gradient selector: {which!r}")


def lagrangian_hessian_matrix(prob: Problem, x: ManifoldPoint, eta: Multipliers, basis: TangentBasis) -> np.ndarray:
    """Coordinate matrix of the Riemannian Hessian of the Lagrangian.

    Entry (i, j) is <Hess L(x)[e_i], e_j> in the given orthonormal basis.
    Hess L(x)[e] is P_x(ambient Hessian of L applied to e) plus the
    manifold's curvature term W_x(e, ambient gradient of L).  The basis
    vectors are tangent and P_x is an orthogonal projection, so
    <P_x a, e_j> = <a, e_j>: the projection is skipped and the stacked
    ambient actions are contracted with the basis in one product.  The
    Hessian-vector callbacks take one direction each; the curvature term
    takes the whole stack.  The result is symmetrized by averaging.
    """
    xa = x.ambient
    d = len(basis)
    stack = basis.matrix.reshape(d, *xa.shape)
    grad = _ambient_lagrangian(prob, eta, lambda fn: fn.gradient(xa))
    hess = np.empty(stack.shape)
    for i, e in enumerate(stack):
        hess[i] = _ambient_lagrangian(prob, eta, lambda fn: fn.hess_vec(xa, e))
    hess += prob.manifold.weingarten(x, stack, grad)
    mat = hess.reshape(d, xa.size) @ basis.matrix.T
    return (mat + mat.T) / 2.0


def constraint_values(prob: Problem, x: ManifoldPoint) -> tuple[np.ndarray, np.ndarray]:
    xa = x.ambient
    g = np.array([fn.value(xa) for fn in prob.inequalities], dtype=float)
    h = np.array([fn.value(xa) for fn in prob.equalities], dtype=float)
    return g, h


def merit(prob: Problem, x: ManifoldPoint, rho: float) -> float:
    """Exact l1 penalty: f + rho * (sum_i max(0, g_i) + sum_j |h_j|)."""
    if rho < 0.0:
        raise ValueError("penalty parameter must be nonnegative")
    g, h = constraint_values(prob, x)
    viol = float(np.maximum(g, 0.0).sum() + np.abs(h).sum())
    return float(prob.objective.value(x.ambient)) + rho * viol


@dataclass(frozen=True)
class KktReport:
    """First-order optimality report at a primal-dual pair.

    ``ineq_violation`` covers both primal infeasibility max(0, g_i) and dual
    infeasibility max(0, -mu_i); ``complementarity`` collects the products
    mu_i g_i.  Two aggregates are exposed: ``residual_full`` combines every
    component in quadrature (and is +inf when the point representation
    violates the manifold invariants), ``residual_equality`` combines
    stationarity, equality violation and the manifold defect.  ``residual``
    is the aggregate a run is judged by: the full form when the problem has
    inequality constraints, the equality form otherwise.
    """

    stationarity: float
    ineq_violation: float
    complementarity: float
    eq_violation: float
    manifold_violation: float
    residual_full: float
    residual_equality: float
    residual: float


def kkt_residual(prob: Problem, x: ManifoldPoint, eta: Multipliers) -> KktReport:
    if eta.mu.shape != (prob.m,) or eta.lam.shape != (prob.n,):
        raise ValueError("multiplier lengths do not match the problem")
    g, h = constraint_values(prob, x)
    grad_l = riemannian_gradient(prob, x, eta)
    stat = grad_l.norm()
    primal = np.maximum(g, 0.0)
    dual = np.maximum(-eta.mu, 0.0)
    ineq = math.sqrt(float(np.dot(primal, primal) + np.dot(dual, dual)))
    comp_terms = eta.mu * g
    comp = math.sqrt(float(np.dot(comp_terms, comp_terms)))
    eq = math.sqrt(float(np.dot(h, h)))
    manvio = float(prob.manifold.violation(x))

    full = math.sqrt(stat**2 + ineq**2 + comp**2 + eq**2)
    if not prob.manifold.point_ok(x):
        full = float("inf")
    equality = math.sqrt(stat**2 + eq**2 + manvio**2)
    residual = full if prob.m > 0 else equality
    return KktReport(
        stationarity=stat,
        ineq_violation=ineq,
        complementarity=comp,
        eq_violation=eq,
        manifold_violation=manvio,
        residual_full=full,
        residual_equality=equality,
        residual=residual,
    )
