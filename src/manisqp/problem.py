"""Constrained problems on manifolds and their first/second order data.

A problem bundles an objective and two blocks of scalar constraints,

    min  f(x)   s.t.  g_i(x) <= 0  (i = 1..m),   h_j(x) = 0  (j = 1..n),

with x on an embedded manifold.  The objective is held as a block of one
function, so the Lagrangian f + mu^T g + lam^T h is a weighted sum over
three blocks with weights 1, mu and lam.  Every function is supplied
through ambient callbacks, for a block on all of its functions at once;
Riemannian quantities are obtained by projection plus the manifold's
curvature correction, so no callback ever needs to know about the manifold.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .manifolds import POINT_TOL, Manifold, ManifoldPoint, TangentVector, project_tangent

__all__ = [
    "SmoothFunction",
    "ConstraintBlock",
    "Multipliers",
    "Problem",
    "Evaluation",
    "evaluate",
    "KktReport",
    "riemannian_gradient",
    "lagrangian_hessian_matrix",
    "merit",
    "merit_stack",
    "constraint_values",
    "kkt_residual",
]


@dataclass(frozen=True, eq=False)
class SmoothFunction:
    """Scalar function given by ambient callbacks.

    ``value(x)`` maps an ambient array to a float, ``gradient(x)`` returns
    the ambient gradient, and ``hess_vec(x, v)`` the ambient Hessian applied
    to an ambient direction v.  ``ConstraintBlock.of`` turns a sequence of
    them into a block that calls them one point and one direction at a time.
    """

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hess_vec: Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False, slots=True)
class ConstraintBlock:
    """k scalar functions c_1..c_k given together by ambient callbacks.

    ``values(xs)`` returns the (r, k) values at every array of a stack xs
    of r ambient arrays (a single point is a stack of one), and
    ``jacobian(x)`` the (k, N) matrix whose rows are the raveled ambient
    gradients.  The subproblem contracts it with the tangent basis and the
    Lagrangian gradient with the weights; nothing else reads it.
    ``weighted_hessian(x, w, vs)`` applies sum_k w_k Hess c_k(x) to every
    array of the stack vs; it is None for an affine block.
    """

    size: int
    values: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    weighted_hessian: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray] | None = None

    @staticmethod
    def of(fns) -> "ConstraintBlock":
        """One block of a sequence of SmoothFunctions, keeping their Hessians."""
        fns = tuple(fns)

        def values(xs):
            out = np.empty((len(xs), len(fns)))
            for k, fn in enumerate(fns):
                out[:, k] = [fn.value(x) for x in xs]
            return out

        def jacobian(x):
            return np.array([fn.gradient(x).ravel() for fn in fns]).reshape(len(fns), np.size(x))

        def weighted_hessian(x, w, vs):
            terms = [(coef, fn) for coef, fn in zip(w, fns) if coef != 0.0]
            out = [sum((coef * fn.hess_vec(x, v) for coef, fn in terms), np.zeros(v.shape)) for v in vs]
            return np.array(out).reshape(vs.shape)

        return ConstraintBlock(size=len(fns), values=values, jacobian=jacobian, weighted_hessian=weighted_hessian)

    def scalar(self, k: int) -> SmoothFunction:
        """Function k as a SmoothFunction, derived from the block."""
        unit = np.zeros(self.size)
        unit[k] = 1.0

        def hess_vec(x, v):
            if self.weighted_hessian is None:
                return np.zeros(np.shape(v))
            return self.weighted_hessian(x, unit, np.asarray(v)[None])[0]

        return SmoothFunction(
            value=lambda x: float(self.values(np.asarray(x)[None])[0, k]),
            gradient=lambda x: self.jacobian(x)[k].reshape(np.shape(x)),
            hess_vec=hess_vec,
        )


@dataclass(frozen=True, eq=False, slots=True)
class Multipliers:
    """Inequality multipliers ``mu`` (length m) and equality ``lam`` (length n)."""

    mu: np.ndarray
    lam: np.ndarray

    @staticmethod
    def zeros(m: int, n: int) -> "Multipliers":
        return Multipliers(np.zeros(m), np.zeros(n))


# Shared by every problem that leaves a constraint family out.
NO_CONSTRAINTS = ConstraintBlock.of(())

# The weight of the objective block in the Lagrangian f + mu^T g + lam^T h.
_ONE = np.ones(1)


class Problem:
    """An objective block ``obj`` and constraint blocks ``ineq`` and ``eq`` on a manifold.

    The objective is a ConstraintBlock of size 1 or a SmoothFunction, which
    is wrapped into one; a sequence of SmoothFunctions given for
    ``inequalities`` or ``equalities`` is wrapped into one block.  The
    properties ``objective``, ``inequalities`` and ``equalities`` derive
    scalar SmoothFunction views of the blocks.
    """

    __slots__ = ("manifold", "obj", "ineq", "eq", "name")

    def __init__(
        self,
        manifold: Manifold,
        objective: SmoothFunction | ConstraintBlock,
        inequalities=NO_CONSTRAINTS,
        equalities=NO_CONSTRAINTS,
        name: str = "",
    ):
        self.manifold = manifold
        self.obj = objective if isinstance(objective, ConstraintBlock) else ConstraintBlock.of((objective,))
        if self.obj.size != 1:
            raise ValueError(f"the objective block must have size 1, not {self.obj.size}")
        self.ineq = inequalities if isinstance(inequalities, ConstraintBlock) else ConstraintBlock.of(inequalities)
        self.eq = equalities if isinstance(equalities, ConstraintBlock) else ConstraintBlock.of(equalities)
        self.name = name

    @property
    def m(self) -> int:
        return self.ineq.size

    @property
    def n(self) -> int:
        return self.eq.size

    @property
    def objective(self) -> SmoothFunction:
        return self.obj.scalar(0)

    @property
    def inequalities(self) -> tuple[SmoothFunction, ...]:
        return tuple(self.ineq.scalar(k) for k in range(self.m))

    @property
    def equalities(self) -> tuple[SmoothFunction, ...]:
        return tuple(self.eq.scalar(k) for k in range(self.n))


GradientSelector = Union[str, tuple, Multipliers]


@dataclass(frozen=True, eq=False, slots=True)
class Evaluation:
    """f, g, h and the (k, N) Jacobians of the objective, inequality and equality blocks, all at one point."""

    f: float
    g: np.ndarray
    h: np.ndarray
    jacobians: tuple[np.ndarray, np.ndarray, np.ndarray]


def evaluate(prob: Problem, x: ManifoldPoint) -> Evaluation:
    """Everything the iteration reads of the problem at x, each block called once."""
    xa = x.ambient
    jacobians = tuple(block.jacobian(xa) for block in (prob.obj, prob.ineq, prob.eq))
    return Evaluation(float(prob.obj.values(xa[None])[0, 0]), *constraint_values(prob, x), jacobians)


def _lagrangian_gradient(ev: Evaluation, eta: Multipliers, shape: tuple[int, ...]) -> np.ndarray:
    """Ambient gradient of f + mu^T g + lam^T h; a block with zero weights is skipped."""
    out = np.zeros(shape)
    for jac, w in zip(ev.jacobians, (_ONE, eta.mu, eta.lam)):
        if np.any(w):
            out += (w @ jac).reshape(shape)
    return out


def riemannian_gradient(prob: Problem, x: ManifoldPoint, which: GradientSelector = "objective") -> TangentVector:
    """Riemannian gradient of a problem function at x.

    ``which`` selects the function: ``"objective"``, ``("ineq", i)``,
    ``("eq", j)``, or a :class:`Multipliers` instance for the Lagrangian
    f + sum mu_i g_i + sum lam_j h_j.
    """
    if isinstance(which, Multipliers):
        return project_tangent(x, _lagrangian_gradient(evaluate(prob, x), which, x.ambient.shape))
    kind, idx = ("obj", 0) if which == "objective" else which
    block = {"obj": prob.obj, "ineq": prob.ineq, "eq": prob.eq}.get(kind)
    if block is None:
        raise ValueError(f"unknown gradient selector: {which!r}")
    if isinstance(idx, bool) or not isinstance(idx, numbers.Integral) or not 0 <= idx < block.size:
        raise ValueError(f"gradient selector {which!r} needs an index in 0..{block.size - 1}")
    return project_tangent(x, block.scalar(idx).gradient(x.ambient))


def lagrangian_hessian_matrix(
    prob: Problem, x: ManifoldPoint, eta: Multipliers, basis: np.ndarray, evaluation: Evaluation | None = None
) -> np.ndarray:
    """Coordinate matrix of the Riemannian Hessian of the Lagrangian.

    Entry (i, j) is <Hess L(x)[e_i], e_j> in the given orthonormal basis,
    whose raveled vectors e_i are the rows of the (d, N) array ``basis``.
    Hess L(x)[e] is P_x(ambient Hessian of L applied to e) plus the
    manifold's curvature term W_x(e, ambient gradient of L, read off
    ``evaluation``, or ``evaluate(prob, x)`` when it is None).  The basis
    vectors are tangent and P_x is an orthogonal projection, so
    <P_x a, e_j> = <a, e_j>: the projection is skipped and the stacked
    ambient actions are contracted with the basis in one product.  Each
    block's weighted Hessian acts on the whole stack; affine blocks add
    nothing.  The result is symmetrized by averaging.
    """
    xa = x.ambient
    d = basis.shape[0]
    stack = basis.reshape(d, *xa.shape)
    grad = _lagrangian_gradient(evaluation or evaluate(prob, x), eta, xa.shape)
    hess = np.zeros(stack.shape)
    for block, w in ((prob.obj, _ONE), (prob.ineq, eta.mu), (prob.eq, eta.lam)):
        if block.weighted_hessian is not None and np.any(w):
            hess = hess + block.weighted_hessian(xa, w, stack)
    hess = hess + prob.manifold.weingarten(x, stack, grad)
    mat = hess.reshape(d, xa.size) @ basis.T
    return (mat + mat.T) / 2.0


def constraint_values(prob: Problem, x: ManifoldPoint) -> tuple[np.ndarray, np.ndarray]:
    xs = x.ambient[None]
    return prob.ineq.values(xs)[0], prob.eq.values(xs)[0]


def merit_stack(prob: Problem, xs: np.ndarray, rho: float) -> np.ndarray:
    """Exact l1 penalty f + rho * (sum_i max(0, g_i) + sum_j |h_j|) at each array of the stack xs."""
    if not 0.0 <= rho < math.inf:  # written so that NaN is rejected too
        raise ValueError("penalty parameter must be nonnegative and finite")
    # each row of a C-ordered array is summed as the single row would be;
    # a block may return its values in another layout
    g, h = (np.ascontiguousarray(block.values(xs)) for block in (prob.ineq, prob.eq))
    viol = np.maximum(g, 0.0).sum(axis=1) + np.abs(h).sum(axis=1)
    return prob.obj.values(xs)[:, 0] + rho * viol


def merit(prob: Problem, x: ManifoldPoint, rho: float) -> float:
    """The merit of one point: ``merit_stack`` on a stack of one."""
    return float(merit_stack(prob, x.ambient[None], rho)[0])


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


def kkt_residual(prob: Problem, x: ManifoldPoint, eta: Multipliers, evaluation: Evaluation | None = None) -> KktReport:
    """The KktReport of (x, eta), read off ``evaluation`` (``evaluate(prob, x)`` when None)."""
    if eta.mu.shape != (prob.m,) or eta.lam.shape != (prob.n,):
        raise ValueError("multiplier lengths do not match the problem")
    ev = evaluation or evaluate(prob, x)
    stat = float(np.linalg.norm(x.manifold.project_array(x, _lagrangian_gradient(ev, eta, x.ambient.shape))))
    primal = np.maximum(ev.g, 0.0)
    dual = np.maximum(-eta.mu, 0.0)
    ineq = math.sqrt(float(np.dot(primal, primal) + np.dot(dual, dual)))
    comp_terms = eta.mu * ev.g
    comp = math.sqrt(float(np.dot(comp_terms, comp_terms)))
    eq = math.sqrt(float(np.dot(ev.h, ev.h)))
    manvio = float(prob.manifold.violation(x))

    full = math.sqrt(stat**2 + ineq**2 + comp**2 + eq**2)
    if not manvio <= POINT_TOL:  # what point_ok tests; NaN fails it too
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
