"""Problem layer: gradients, Lagrangian Hessians, merit, KKT reports.

Derivative correctness is established against finite differences computed
directly from the callbacks, never through the code under test.  The
sphere_tilt instance additionally has a hand-derived Lagrangian Hessian
(the identity on the tangent space at the solution), which pins down the
curvature-correction term exactly rather than to FD accuracy.
"""

import math

import numpy as np
import pytest

import manisqp as m

from util import (
    bundled_problems,
    curved_toy,
    euclidean_toy,
    fd_directional,
    hessian_quadform,
    random_tangent,
    second_difference,
    sphere_tilt,
)


def test_gradient_selectors():
    prob = euclidean_toy()
    x = prob.manifold.point(np.array([0.6, 0.4]))

    g_obj = m.riemannian_gradient(prob, x)
    assert np.allclose(g_obj.data, [1.2, 0.8], atol=1e-15)

    g_eq = m.riemannian_gradient(prob, x, ("eq", 0))
    assert np.allclose(g_eq.data, [1.0, 1.0], atol=1e-15)

    eta = m.Multipliers(np.zeros(0), np.array([-1.0]))
    g_lag = m.riemannian_gradient(prob, x, eta)
    assert np.allclose(g_lag.data, [0.2, -0.2], atol=1e-15)

    with pytest.raises(ValueError):
        m.riemannian_gradient(prob, x, "nonsense")

    # an index outside 0..size-1 of its block is rejected, not wrapped
    cut = m.cut_problem(m.gen_balanced_cut(6, 2, 0.5, 1))
    xc = m.random_point(cut.manifold, 0)
    for which in (("eq", -1), ("eq", 2), ("eq", 1.0), ("eq", True), ("ineq", 0)):
        with pytest.raises(ValueError, match="needs an index in"):
            m.riemannian_gradient(cut, xc, which)


def test_gradients_match_finite_differences_first_order():
    # the FD error of a directional derivative must shrink linearly in t
    for name, prob, x in bundled_problems(seed=5):
        fns = [prob.objective] + list(prob.inequalities[:2]) + list(prob.equalities[:2])
        for idx, fn in enumerate(fns):
            v = random_tangent(x, 600 + idx)
            grad = m.project_tangent(x, fn.gradient(x.ambient))
            exact = m.inner(grad, v)
            e1 = abs(fd_directional(fn, x, v, 1e-3) - exact)
            e2 = abs(fd_directional(fn, x, v, 1e-4) - exact)
            scale = 1.0 + abs(exact)
            assert e1 < 1e-2 * scale, name
            assert e2 < 0.3 * e1 + 1e-9 * scale, name


def test_lagrangian_hessian_is_symmetric():
    # bit for bit, so that modify_hessian and build_subproblem skip their
    # symmetry tolerance and the average (H + H^T) / 2
    curved, x_curved, _, _ = curved_toy()
    problems = bundled_problems(seed=6) + [("curved-toy", curved, curved.manifold.point(x_curved + 0.1))]
    for name, prob, x in problems:
        eta = m.Multipliers(0.1 * np.ones(prob.m), -0.2 * np.ones(prob.n))
        basis = m.orthonormal_basis(x, 61)
        hl = m.lagrangian_hessian_matrix(prob, x, eta, basis)
        assert hl.shape == (prob.manifold.dim, prob.manifold.dim)
        assert hl.tobytes() == hl.T.tobytes(), name


def test_lagrangian_hessian_quadform_is_basis_independent():
    prob_list = bundled_problems(seed=7)
    for name, prob, x in prob_list:
        eta = m.Multipliers(np.zeros(prob.m), np.zeros(prob.n))
        v = random_tangent(x, 71)
        q1 = hessian_quadform(prob, x, eta, v, seed=72)
        q2 = hessian_quadform(prob, x, eta, v, seed=73)
        assert abs(q1 - q2) < 1e-10 * (1.0 + abs(q1)), name


def test_sphere_tilt_hessian_is_identity_at_solution():
    prob, x_star, lam_star = sphere_tilt()
    x = prob.manifold.point(x_star)
    eta = m.Multipliers(np.zeros(0), np.array([lam_star]))
    basis = m.orthonormal_basis(x, 81)
    hl = m.lagrangian_hessian_matrix(prob, x, eta, basis)
    assert np.max(np.abs(hl - np.eye(2))) < 1e-12


def test_lagrangian_hessian_matches_the_per_row_formula():
    # oracle: project each ambient Hessian-vector product, add its own
    # curvature term and contract with the basis, one basis row at a time
    for name, prob, x in bundled_problems(seed=9):
        rng = np.random.default_rng(91)
        eta = m.Multipliers(rng.normal(size=prob.m), rng.normal(size=prob.n))
        basis = m.orthonormal_basis(x, 92)
        man, xa = prob.manifold, x.ambient
        fns = (prob.objective,) + prob.inequalities + prob.equalities
        coefs = np.concatenate(([1.0], eta.mu, eta.lam))
        grad = sum(c * fn.gradient(xa) for c, fn in zip(coefs, fns))
        rows = []
        for b in basis:
            e = b.reshape(xa.shape)
            hv = sum(c * fn.hess_vec(xa, e) for c, fn in zip(coefs, fns))
            rows.append(basis @ (man.project_array(x, hv) + man.weingarten(x, e, grad)).ravel())
        expected = (np.array(rows) + np.array(rows).T) / 2.0
        hl = m.lagrangian_hessian_matrix(prob, x, eta, basis)
        assert np.max(np.abs(hl - expected)) < 1e-12 * (1.0 + np.linalg.norm(expected)), name


def test_lagrangian_hessian_keeps_curved_constraint_hessians():
    # Hess L = 2 mu I + lam diag(-2, 0) on R^2, written out from the
    # constraint formulas, not taken from the problem's callbacks
    prob, _, _, _ = curved_toy()
    rng = np.random.default_rng(31)
    for trial in range(3):
        x = prob.manifold.point(rng.normal(size=2))
        mu, lam = rng.random() + 0.1, rng.normal() + 0.5
        eta = m.Multipliers(np.array([mu]), np.array([lam]))
        basis = m.orthonormal_basis(x, 32 + trial)
        expected = basis @ (2.0 * mu * np.eye(2) + lam * np.diag([-2.0, 0.0])) @ basis.T
        hl = m.lagrangian_hessian_matrix(prob, x, eta, basis)
        assert np.max(np.abs(hl - expected)) < 1e-14
        v = rng.normal(size=2)
        assert np.array_equal(prob.inequalities[0].hess_vec(x.ambient, v), 2.0 * v)
        assert np.array_equal(prob.equalities[0].hess_vec(x.ambient, v), np.array([-2.0 * v[0], 0.0]))


def _scalar_functions(name):
    """A bundled family's problem and its functions written one by one.

    Returns (problem, {"objective": [...], "ineq": [...], "eq": [...]}) with
    (value, ambient gradient) callables per function, from the scalar
    formulas of each family.
    """
    if name == "completion":
        inst = m.gen_completion(4, 8, 2, seed=2)
        mask = np.zeros((inst.q, inst.s))
        for i, j in inst.fit_set:
            mask[i, j] = 1.0
        a = inst.a

        def entry(i, j, sign, offset):
            grad = np.zeros((inst.q, inst.s))
            grad[i, j] = sign
            return (lambda x: sign * x[i, j] + offset), (lambda x: grad)

        return m.completion_problem(inst), {
            "objective": [(lambda x: 0.5 * float(np.sum(mask * (x - a) ** 2)), lambda x: mask * (x - a))],
            "ineq": [entry(i, j, -1.0, 0.0) for i, j in inst.unknown],
            "eq": [entry(i, j, 1.0, -float(a[i, j])) for i, j in inst.pinned],
        }
    inst = m.gen_balanced_cut(50, 2, 0.01, seed=4)
    lap = inst.laplacian

    def column(j):
        grad = np.zeros((inst.q, inst.s))
        grad[:, j] = 1.0
        return (lambda x: float(np.sum(x[:, j]))), (lambda x: grad)

    return m.cut_problem(inst), {
        "objective": [(lambda x: -0.25 * float(np.sum(x * (lap @ x))), lambda x: -0.5 * (lap @ x))],
        "ineq": [],
        "eq": [column(j) for j in range(inst.s)],
    }


@pytest.mark.parametrize("name", ["completion", "balanced_cut"])
def test_constraint_blocks_match_the_scalar_formulas(name):
    prob, fns = _scalar_functions(name)
    assert (prob.m, prob.n) == (len(fns["ineq"]), len(fns["eq"]))
    for seed in range(3):
        x = m.random_point(prob.manifold, 40 + seed)
        xa = x.ambient
        basis = m.orthonormal_basis(x, 50 + seed)
        model = m.build_subproblem(prob, x, basis, np.eye(basis.shape[0]))
        g, h = m.constraint_values(prob, x)
        for kind, values, rows, views in (
            # the merit at rho = 0 is the objective value the line search reads
            ("objective", m.merit_stack(prob, xa[None], 0.0), model.c[None], (prob.objective,)),
            ("ineq", g, model.A_ineq, prob.inequalities),
            ("eq", h, model.A_eq, prob.equalities),
        ):
            scalars = fns[kind]
            if not scalars:
                assert values.shape == (0,) and rows.shape == (0, basis.shape[0])
                continue
            grads = np.array([grad(xa).ravel() for _, grad in scalars])
            # the linear term of the model is the coordinate vector bm @ grad
            expected = (basis @ grads[0])[None] if kind == "objective" else grads @ basis.T
            assert np.array_equal(rows, expected)
            assert np.array_equal(values, [value(xa) for value, _ in scalars])
            assert np.array_equal(values, [view.value(xa) for view in views])
            for k, ((_, grad), view) in enumerate(zip(scalars, views)):
                assert np.array_equal(view.gradient(xa), grad(xa))
                riem = m.riemannian_gradient(prob, x, kind if kind == "objective" else (kind, k))
                assert np.array_equal(riem.data, m.project_tangent(x, grad(xa)).data)


def _sphere_as_blocks():
    """README's sphere example as hand-written blocks; its objective and constraint are affine."""
    prob, _, _ = sphere_tilt()
    a, e1 = np.array([0.3, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
    blocks = m.Problem(
        prob.manifold,
        m.ConstraintBlock(1, values=lambda xs: (xs @ a)[:, None], jacobian=lambda x: a[None]),
        equalities=m.ConstraintBlock(1, values=lambda xs: xs[:, :1], jacobian=lambda x: e1[None]),
    )
    return prob, blocks, [[0.6, 0.0, -0.8]]


def _curved_as_blocks():
    """``curved_toy`` as hand-written blocks, with the Hessians of its curved constraints."""
    prob, _, _, _ = curved_toy()
    blocks = m.Problem(
        prob.manifold,
        m.ConstraintBlock(
            1,
            values=lambda xs: (-xs[:, 1] - 0.1 * xs[:, 0])[:, None],
            jacobian=lambda x: np.array([[-0.1, -1.0]]),
        ),
        inequalities=m.ConstraintBlock(
            1,
            values=lambda xs: np.einsum("ri,ri->r", xs, xs)[:, None] - 2.0,
            jacobian=lambda x: 2.0 * x[None],
            weighted_hessian=lambda x, w, vs: w[0] * (2.0 * vs),
        ),
        equalities=m.ConstraintBlock(
            1,
            values=lambda xs: (xs[:, 1] - xs[:, 0] ** 2)[:, None],
            jacobian=lambda x: np.array([[-2.0 * x[0], 1.0]]),
            weighted_hessian=lambda x, w, vs: w[0] * (vs * np.array([-2.0, 0.0])),
        ),
    )
    return prob, blocks, [[0.5, 0.5], [2.0, -1.0]]


@pytest.mark.parametrize("make", [_sphere_as_blocks, _curved_as_blocks])
def test_blocks_given_by_values_and_jacobian_solve_like_smooth_functions(make):
    fns, blocks, starts = make()
    cfg = m.SolverConfig(residual_tol=1e-10)
    for x0 in starts:
        x0 = fns.manifold.point(np.array(x0))
        (s_fns, t_fns), (s_blocks, t_blocks) = (m.solve(prob, x0, cfg=cfg) for prob in (fns, blocks))
        assert t_fns.verdict == t_blocks.verdict == "converged"
        assert len(t_fns.records) == len(t_blocks.records)
        # a stacked value may round differently from the per-point one
        for a, b in (
            (s_fns.x.ambient, s_blocks.x.ambient),
            (s_fns.eta.mu, s_blocks.eta.mu),
            (s_fns.eta.lam, s_blocks.eta.lam),
        ):
            assert np.max(np.abs(a - b), initial=0.0) <= 1e-12


def test_objective_block_must_have_size_one():
    prob = euclidean_toy()
    for k in (0, 2):
        with pytest.raises(ValueError, match=f"objective block must have size 1, not {k}"):
            m.Problem(prob.manifold, m.ConstraintBlock.of([prob.objective] * k))
    block = m.ConstraintBlock.of([prob.objective])
    assert m.Problem(prob.manifold, block).obj is block


def test_lagrangian_hessian_of_a_zero_dimensional_manifold_is_empty():
    man = m.Oblique(3, 1)
    x = man.point(np.ones((3, 1)))
    zero = m.SmoothFunction(lambda x: 0.0, lambda x: np.zeros(x.shape), lambda x, v: np.zeros(v.shape))
    prob = m.Problem(man, zero)
    hl = m.lagrangian_hessian_matrix(prob, x, m.Multipliers.zeros(0, 0), m.orthonormal_basis(x, 0))
    assert hl.shape == (0, 0)


def test_hessian_matches_second_differences():
    # quadratic form through the coordinate matrix vs a second difference
    # along exp (or the projection retraction where no exp exists); both
    # curves are second-order so the FD limit is the same quadratic form
    for name, prob, x in bundled_problems(seed=8):
        eta = m.Multipliers(np.zeros(prob.m), np.zeros(prob.n))
        use_exp = prob.manifold.supports_exp
        for trial in range(2):
            v = random_tangent(x, 800 + trial)
            exact = hessian_quadform(prob, x, eta, v, seed=801)
            fd = second_difference(prob.objective, x, v, 1e-4, use_exp)
            assert abs(fd - exact) < 1e-3 * (1.0 + abs(exact)), name


def test_merit_hand_values():
    man = m.Euclidean(1)

    def const(c):
        return m.SmoothFunction(
            value=lambda x, c=c: c,
            gradient=lambda x: np.zeros(1),
            hess_vec=lambda x, v: np.zeros(1),
        )

    prob = m.Problem(man, const(2.0), (const(0.3), const(-0.2)), (const(-0.5),))
    x = man.point(np.zeros(1))
    # violation = max(0, 0.3) + max(0, -0.2) + |-0.5| = 0.8
    assert merit_equals(prob, x, 1.0, 2.8)
    assert merit_equals(prob, x, 2.0, 3.6)
    assert merit_equals(prob, x, 0.0, 2.0)
    with pytest.raises(ValueError):
        m.merit(prob, x, -1.0)
    with pytest.raises(ValueError):
        m.merit(prob, x, float("nan"))
    # inf * 0 violation would be NaN at a feasible point
    with pytest.raises(ValueError, match="nonnegative and finite"):
        m.merit(prob, x, float("inf"))
    with pytest.raises(ValueError, match="nonnegative and finite"):
        m.merit_stack(prob, np.zeros((3, 1)), float("inf"))
    assert np.array_equal(m.merit_stack(prob, np.zeros((3, 1)), 2.0), np.full(3, m.merit(prob, x, 2.0)))


def merit_equals(prob, x, rho, expected):
    return abs(m.merit(prob, x, rho) - expected) < 1e-15


def test_kkt_report_equality_form_hand_values():
    prob = euclidean_toy()
    x = prob.manifold.point(np.array([0.6, 0.4]))
    eta = m.Multipliers(np.zeros(0), np.array([-1.0]))
    rep = m.kkt_residual(prob, x, eta)
    # grad L = (2*0.6 - 1, 2*0.4 - 1) = (0.2, -0.2); h = 0
    assert abs(rep.stationarity - 0.2 * math.sqrt(2.0)) < 1e-14
    assert rep.eq_violation == 0.0
    assert rep.manifold_violation == 0.0
    assert abs(rep.residual - 0.2 * math.sqrt(2.0)) < 1e-14
    assert rep.residual == rep.residual_equality  # no inequalities


def test_kkt_report_full_form_hand_values():
    man = m.Euclidean(2)
    obj = m.SmoothFunction(
        value=lambda x: float(x @ x),
        gradient=lambda x: 2.0 * x,
        hess_vec=lambda x, v: 2.0 * v,
    )
    g1 = m.SmoothFunction(  # x1 - 1 <= 0
        value=lambda x: float(x[0] - 1.0),
        gradient=lambda x: np.array([1.0, 0.0]),
        hess_vec=lambda x, v: np.zeros(2),
    )
    g2 = m.SmoothFunction(  # -x2 + 0.1 <= 0
        value=lambda x: float(-x[1] + 0.1),
        gradient=lambda x: np.array([0.0, -1.0]),
        hess_vec=lambda x, v: np.zeros(2),
    )
    prob = m.Problem(man, obj, (g1, g2), ())
    x = man.point(np.array([0.6, 0.4]))
    mu = np.array([-0.2, 0.3])
    rep = m.kkt_residual(prob, x, m.Multipliers(mu, np.zeros(0)))

    # independent arithmetic for every block
    g = np.array([0.6 - 1.0, -0.4 + 0.1])
    grad_l = 2.0 * x.ambient + mu[0] * np.array([1.0, 0.0]) + mu[1] * np.array([0.0, -1.0])
    stat = np.linalg.norm(grad_l)
    ineq = math.sqrt(max(0.0, g[0]) ** 2 + max(0.0, g[1]) ** 2 + 0.2**2)
    comp = math.sqrt((mu[0] * g[0]) ** 2 + (mu[1] * g[1]) ** 2)
    full = math.sqrt(stat**2 + ineq**2 + comp**2)

    assert abs(rep.stationarity - stat) < 1e-14
    assert abs(rep.ineq_violation - ineq) < 1e-14
    assert abs(rep.complementarity - comp) < 1e-14
    assert rep.eq_violation == 0.0
    assert abs(rep.residual_full - full) < 1e-14
    assert rep.residual == rep.residual_full  # inequalities present


def test_kkt_residual_reordering_invariance():
    comp = m.gen_completion(4, 8, 2, seed=9)
    prob = m.completion_problem(comp)
    x = m.random_point(prob.manifold, 91)
    rng = np.random.default_rng(92)
    mu = rng.random(prob.m)
    lam = rng.normal(size=prob.n)
    rep = m.kkt_residual(prob, x, m.Multipliers(mu, lam))

    perm_i = rng.permutation(prob.m)
    perm_j = rng.permutation(prob.n)
    shuffled = m.Problem(
        prob.manifold,
        prob.objective,
        tuple(prob.inequalities[i] for i in perm_i),
        tuple(prob.equalities[j] for j in perm_j),
    )
    rep2 = m.kkt_residual(shuffled, x, m.Multipliers(mu[perm_i], lam[perm_j]))
    assert abs(rep.residual - rep2.residual) < 1e-12


def test_kkt_residual_invalid_point_is_infinite():
    prob, _, _ = sphere_tilt()
    bad = m.Sphere(3).point(np.array([0.0, 0.0, -2.0]))
    rep = m.kkt_residual(prob, bad, m.Multipliers(np.zeros(0), np.zeros(1)))
    assert math.isinf(rep.residual_full)
    assert rep.manifold_violation > 0.5


def test_kkt_residual_computes_the_manifold_violation_once(monkeypatch):
    prob, x_star, lam_star = sphere_tilt()
    x = prob.manifold.point(x_star)
    eta = m.Multipliers(np.zeros(0), np.array([lam_star]))
    calls = []

    def violation(self, x):
        calls.append(x)
        return float("nan")

    monkeypatch.setattr(m.Sphere, "violation", violation)
    rep = m.kkt_residual(prob, x, eta)
    assert len(calls) == 1
    # a NaN defect fails point_ok, so the full residual is infinite
    assert math.isinf(rep.residual_full) and math.isnan(rep.manifold_violation)


def test_kkt_residual_validates_multiplier_shapes():
    prob = euclidean_toy()
    x = prob.manifold.point(np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        m.kkt_residual(prob, x, m.Multipliers(np.zeros(1), np.zeros(1)))
    with pytest.raises(ValueError):
        m.kkt_residual(prob, x, m.Multipliers(np.zeros(0), np.zeros(2)))


def test_constraint_values_order():
    comp = m.gen_completion(4, 8, 2, seed=10)
    prob = m.completion_problem(comp)
    x = m.random_point(prob.manifold, 101)
    g, h = m.constraint_values(prob, x)
    assert g.shape == (prob.m,)
    assert h.shape == (prob.n,)
    for k, fn in enumerate(prob.inequalities):
        assert g[k] == fn.value(x.ambient)
