"""Shared fixtures for the test suite: small analytic problems and
finite-difference helpers.

The two analytic problems have hand-derived solutions:

* ``euclidean_toy``: min x^2 + y^2 subject to x + y = 1 on R^2.  The
  Lagrange conditions 2x + lam = 0, 2y + lam = 0, x + y = 1 give
  x* = (1/2, 1/2), lam* = -1.
* ``sphere_tilt``: min x3 + 0.3 x1 subject to x1 = 0 on the unit sphere
  in R^3.  On the constraint circle the objective is x3, minimized at
  x* = (0, 0, -1).  There the projected objective gradient is (0.3, 0, 0)
  and the projected constraint gradient is (1, 0, 0), so lam* = -0.3.
  The Lagrangian has ambient gradient (0, 0, 1) at x*, and the curvature
  term -(x* . a) P equals +P, so the tangent Hessian of the Lagrangian is
  the identity: the solution is nondegenerate with a healthy second-order
  certificate, which makes this the reference instance for local
  convergence tests.
* ``curved_toy``: min -x2 - 0.1 x1 subject to |x|^2 - 2 <= 0 and
  x2 - x1^2 = 0 on R^2.  On the parabola the disk leaves |x1| <= 1 and the
  objective is -x1^2 - 0.1 x1, minimized at x* = (1, 1), where both
  constraints are active.  Stationarity (-0.1, -1) + mu (2, 2) +
  lam (-2, 1) = 0 gives mu* = 0.35 and lam* = 0.3.  Both constraints are
  curved, so the Lagrangian Hessian 2 mu I + lam diag(-2, 0) depends on
  the constraint Hessians.
"""

import numpy as np

import manisqp as m


def euclidean_toy():
    man = m.Euclidean(2)
    obj = m.SmoothFunction(
        value=lambda x: float(x[0] ** 2 + x[1] ** 2),
        gradient=lambda x: 2.0 * x,
        hess_vec=lambda x, v: 2.0 * v,
    )
    eq = m.SmoothFunction(
        value=lambda x: float(x[0] + x[1] - 1.0),
        gradient=lambda x: np.ones(2),
        hess_vec=lambda x, v: np.zeros(2),
    )
    return m.Problem(man, obj, (), (eq,), name="toy-equality")


def sphere_tilt():
    """Returns (problem, x_star, lam_star)."""
    man = m.Sphere(3)
    a = np.array([0.3, 0.0, 1.0])
    obj = m.SmoothFunction(
        value=lambda x: float(a @ x),
        gradient=lambda x: a.copy(),
        hess_vec=lambda x, v: np.zeros(3),
    )
    e1 = np.array([1.0, 0.0, 0.0])
    eq = m.SmoothFunction(
        value=lambda x: float(x[0]),
        gradient=lambda x: e1.copy(),
        hess_vec=lambda x, v: np.zeros(3),
    )
    prob = m.Problem(man, obj, (), (eq,), name="sphere-tilt")
    return prob, np.array([0.0, 0.0, -1.0]), -0.3


def curved_toy():
    """Returns (problem, x_star, mu_star, lam_star)."""
    man = m.Euclidean(2)
    obj = m.SmoothFunction(
        value=lambda x: float(-x[1] - 0.1 * x[0]),
        gradient=lambda x: np.array([-0.1, -1.0]),
        hess_vec=lambda x, v: np.zeros(2),
    )
    ball = m.SmoothFunction(
        value=lambda x: float(x @ x - 2.0),
        gradient=lambda x: 2.0 * x,
        hess_vec=lambda x, v: 2.0 * v,
    )
    parabola = m.SmoothFunction(
        value=lambda x: float(x[1] - x[0] ** 2),
        gradient=lambda x: np.array([-2.0 * x[0], 1.0]),
        hess_vec=lambda x, v: np.array([-2.0 * v[0], 0.0]),
    )
    prob = m.Problem(man, obj, (ball,), (parabola,), name="curved-toy")
    return prob, np.array([1.0, 1.0]), 0.35, 0.3


def random_tangent(x, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    v = m.project_tangent(x, rng.normal(size=x.manifold.ambient_shape))
    nrm = v.norm()
    if nrm == 0.0:
        raise AssertionError("degenerate random tangent")
    return v.scaled(scale / nrm)


def bundled_problems(seed=0):
    """(name, problem, point) for every problem family the package ships."""
    out = []

    toy = euclidean_toy()
    out.append(("euclidean-toy", toy, toy.manifold.point(np.array([0.3, -0.8]))))

    tilt, _, _ = sphere_tilt()
    out.append(("sphere-tilt", tilt, m.random_point(tilt.manifold, seed + 1)))

    comp = m.gen_completion(4, 8, 2, seed=seed + 2)
    comp_prob = m.completion_problem(comp)
    out.append(("completion-4x8", comp_prob, m.random_point(comp_prob.manifold, seed + 3)))

    cut = m.gen_balanced_cut(50, 2, 0.01, seed=seed + 4)
    cut_prob = m.cut_problem(cut)
    out.append(("balanced-cut-50x2", cut_prob, m.random_point(cut_prob.manifold, seed + 5)))

    return out


def fd_directional(fn, x, v, t):
    """Forward difference of a SmoothFunction along a retracted ray."""
    x_t = m.retract(x, v.scaled(t))
    return (fn.value(x_t.ambient) - fn.value(x.ambient)) / t


def second_difference(fn, x, v, t, use_exp):
    """Symmetric second difference of fn along exp (or the retraction).

    Both curves here are second-order accurate (the retractions are metric
    projections), so the limit is the Riemannian Hessian quadratic form.
    """
    move = m.exp_map if use_exp else m.retract
    plus = move(x, v.scaled(t))
    minus = move(x, v.scaled(-t))
    return (fn.value(plus.ambient) - 2.0 * fn.value(x.ambient) + fn.value(minus.ambient)) / t**2


def hessian_quadform(prob, x, eta, v, seed=0):
    """v' Hess_L v through the coordinate Hessian matrix."""
    basis = m.orthonormal_basis(x, seed)
    hl = m.lagrangian_hessian_matrix(prob, x, eta, basis)
    q = basis @ v.data.ravel()
    return float(q @ hl @ q)
