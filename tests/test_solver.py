"""Driver loop: penalty ratchet, line search, verdicts, Newton-KKT step.

The Euclidean toy problem has the full KKT solution worked out by hand
(x* = (1/2, 1/2), lam* = -1), so convergence, multiplier propagation and
the penalty trajectory are all checked against exact values.  A scaled
variant (objective times 5) forces the penalty update to fire on the first
iteration, which pins the ratchet formula rho = upsilon + epsilon.
"""

import collections
import dataclasses
import re

import numpy as np
import pytest

import manisqp as m

from util import curved_toy, euclidean_toy, sphere_tilt


def scaled_toy(factor=5.0):
    man = m.Euclidean(2)
    obj = m.SmoothFunction(
        value=lambda x: float(factor * (x @ x)),
        gradient=lambda x: 2.0 * factor * x,
        hess_vec=lambda x, v: 2.0 * factor * v,
    )
    eq = m.SmoothFunction(
        value=lambda x: float(x[0] + x[1] - 1.0),
        gradient=lambda x: np.ones(2),
        hess_vec=lambda x, v: np.zeros(2),
    )
    return m.Problem(man, obj, (), (eq,))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        m.SolverConfig(beta=1.0)
    with pytest.raises(ValueError):
        m.SolverConfig(beta=0.0)
    with pytest.raises(ValueError):
        m.SolverConfig(gamma=1.5)
    with pytest.raises(ValueError):
        m.SolverConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        m.SolverConfig(delta=-1e-9)
    with pytest.raises(ValueError):
        m.SolverConfig(rho_init=0.0)
    with pytest.raises(ValueError):
        m.SolverConfig(b_strategy="newton")
    with pytest.raises(ValueError):
        m.SolverConfig(qp_tol=0.0)
    with pytest.raises(ValueError):
        m.SolverConfig(seed=-1)
    for name in ("max_iter", "max_backtracks", "max_time", "residual_tol"):
        with pytest.raises(ValueError, match=f"{name} must be nonnegative"):
            m.SolverConfig(**{name: -1})
    # counts are integers: a fractional budget or seed is not truncated
    for name in ("max_iter", "max_backtracks", "seed"):
        for value in (2.5, 2.0, True, "3"):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                m.SolverConfig(**{name: value})
    assert m.SolverConfig(max_iter=np.int64(3), seed=np.uint32(7)).seed == 7
    # NaN fails every comparison; it is rejected, not taken as "no limit"
    nan = float("nan")
    for name, rule in (("residual_tol", "nonnegative"), ("max_time", "nonnegative"), ("delta", "positive"),
                       ("qp_tol", "positive"), ("epsilon", "positive"), ("rho_init", "positive")):
        with pytest.raises(ValueError, match=f"{name} must be {rule}"):
            m.SolverConfig(**{name: nan})
    for name in ("beta", "gamma"):
        with pytest.raises(ValueError, match=f"{name} must lie in"):
            m.SolverConfig(**{name: nan})
    # an infinite penalty makes the merit NaN at a feasible point
    with pytest.raises(ValueError, match="rho_init must be finite"):
        m.SolverConfig(rho_init=float("inf"))
    # an infinite epsilon makes the merit NaN, an infinite delta floors the
    # Hessian to inf, and an infinite qp_tol certifies any subproblem answer
    for name in ("epsilon", "delta", "qp_tol"):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            m.SolverConfig(**{name: float("inf")})
    # zero stays valid: the feasibility phase runs with residual_tol=0.0
    m.SolverConfig(residual_tol=0.0, max_iter=0, max_backtracks=0, max_time=0.0)
    m.SolverConfig(max_time=float("inf"))


def test_update_penalty_examples():
    # |lam| = 1.2 beats rho = 1, so the ratchet fires: 1.2 + 0.5
    out = m.update_penalty(1.0, m.Multipliers(np.zeros(0), np.array([-1.2])), 0.5)
    assert abs(out - 1.7) < 1e-15
    # multipliers below the current rho leave it untouched
    out = m.update_penalty(1.0, m.Multipliers(np.array([0.5]), np.array([-0.3])), 0.5)
    assert out == 1.0
    # no constraints: upsilon = 0, rho stays
    out = m.update_penalty(2.5, m.Multipliers.zeros(0, 0), 0.5)
    assert out == 2.5
    # mu enters without absolute value, lam with it
    out = m.update_penalty(1.0, m.Multipliers(np.array([3.0]), np.array([-2.0])), 0.5)
    assert abs(out - 3.5) < 1e-15


def test_update_penalty_is_nondecreasing():
    rng = np.random.default_rng(11)
    rho = 1.0
    for _ in range(100):
        eta = m.Multipliers(rng.random(3) * 4.0, rng.normal(size=2) * 4.0)
        new = m.update_penalty(rho, eta, 0.5)
        assert new >= rho
        rho = new


def test_line_search_accepts_full_step_with_default_gamma():
    prob = euclidean_toy()
    x = prob.manifold.point(np.array([1.0, 0.0]))
    d = np.array([-0.5, 0.5])  # toward the solution
    quad = 2.0 * float(d @ d)  # d' H d with H = 2 I
    cfg = m.SolverConfig(gamma=0.25, beta=0.9)
    res = m.line_search(prob, x, d, quad, rho=1.0, cfg=cfg)
    assert res.alpha == 1.0
    assert res.backtracks == 0
    assert res.merit_reject is None
    assert np.max(np.abs(res.x_next.ambient - np.array([0.5, 0.5]))) < 1e-15


def test_line_search_backtrack_count_hand_derived():
    # f(x) = x^2 on the line, x = 1, d = -1, quad_form = 2 (H = 2):
    # accept iff 1 - (1-t)^2 >= 2*gamma*t, i.e. t <= 2(1 - gamma) = 0.2
    # for gamma = 0.9; the first beta^r below 0.2 is r = 16
    man = m.Euclidean(1)
    obj = m.SmoothFunction(
        value=lambda x: float(x[0] ** 2),
        gradient=lambda x: 2.0 * x,
        hess_vec=lambda x, v: 2.0 * v,
    )
    prob = m.Problem(man, obj)
    x = man.point(np.array([1.0]))
    d = np.array([-1.0])
    cfg = m.SolverConfig(gamma=0.9, beta=0.9)
    res = m.line_search(prob, x, d, 2.0, rho=1.0, cfg=cfg)
    assert res.backtracks == 16
    assert res.alpha == 0.9**16
    assert res.merit_reject is not None


def test_line_search_requires_descent_model():
    prob = euclidean_toy()
    x = prob.manifold.point(np.array([1.0, 0.0]))
    d = np.array([-0.5, 0.5])
    # NaN fails every comparison and +inf is no finite model: both are
    # rejected up front, not searched until the backtrack budget runs out
    for quad_form in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="quad_form must be positive and finite"):
            m.line_search(prob, x, d, quad_form, rho=1.0, cfg=m.SolverConfig())


def test_line_search_stalls_at_a_minimizer():
    # stepping away from the optimum can never satisfy the decrease test
    man = m.Euclidean(1)
    obj = m.SmoothFunction(
        value=lambda x: float(x[0] ** 2),
        gradient=lambda x: 2.0 * x,
        hess_vec=lambda x, v: 2.0 * v,
    )
    prob = m.Problem(man, obj)
    x = man.point(np.array([0.0]))
    d = np.array([1.0])
    cfg = m.SolverConfig(max_backtracks=30)
    with pytest.raises(m.StallError):
        m.line_search(prob, x, d, 1.0, rho=1.0, cfg=cfg)


def test_tangent_data_of_the_wrong_shape_is_rejected():
    # at (2, -1) in R^2, a length-1 direction used to broadcast into a
    # search that stalled after 200 backtracks, and a (1, 2) one to end in
    # an IndexError; a tangent vector took either without a word
    prob = euclidean_toy()
    x = prob.manifold.point(np.array([2.0, -1.0]))
    for data in (np.array([-0.5]), np.array([[-0.5, 0.5]])):
        shapes = re.escape(f"of shape {data.shape} at a point of shape (2,)")
        with pytest.raises(ValueError, match=shapes):
            m.line_search(prob, x, data, 1.0, rho=1.0, cfg=m.SolverConfig())
        with pytest.raises(ValueError, match=shapes):
            m.TangentVector(x, data)


def test_iteration_seed_changes_per_iteration():
    prob, _, _ = sphere_tilt()
    x = m.random_point(prob.manifold, 21)
    b0 = m.orthonormal_basis(x, m.iteration_seed(7, 0))
    b0_again = m.orthonormal_basis(x, m.iteration_seed(7, 0))
    b1 = m.orthonormal_basis(x, m.iteration_seed(7, 1))
    assert np.array_equal(b0, b0_again)
    assert not np.array_equal(b0, b1)


def _oblique_problem(seed):
    """A random quadratic on Oblique(4, 3) with two inequalities and two equalities."""
    rng = np.random.default_rng(seed)
    man = m.Oblique(4, 3)
    a = rng.normal(size=(12, 12))
    a = a + a.T
    c = rng.normal(size=12)
    w = rng.normal(size=(12, 12))
    w = w @ w.T / 12

    def fn(value, grad, hess):
        return m.SmoothFunction(
            value=lambda x: float(value(x.ravel())),
            gradient=lambda x: grad(x.ravel()).reshape(4, 3),
            hess_vec=lambda x, v: hess(v.ravel()).reshape(4, 3),
        )

    def linear(g, b):
        return fn(lambda x: g @ x - b, lambda x: g.copy(), lambda v: np.zeros(12))

    obj = fn(lambda x: 0.5 * x @ a @ x + c @ x, lambda x: a @ x + c, lambda v: a @ v)
    ball = fn(lambda x: x @ w @ x - 1.0, lambda x: 2.0 * w @ x, lambda v: 2.0 * w @ v)
    ineq = (linear(rng.normal(size=12), 0.5), ball)
    eq = (linear(rng.normal(size=12), 0.1), linear(rng.normal(size=12), -0.2))
    eta = m.Multipliers(rng.random(2), rng.normal(size=2))
    return m.Problem(man, obj, ineq, eq), m.random_point(man, seed + 1), eta


def test_subproblem_does_not_depend_on_the_tangent_basis():
    # modify_hessian is orthogonally equivariant, so the QR and the per-row
    # Householder bases give one ambient step, multipliers and <B d, d> up to
    # rounding, on the active-set route as on the equality route
    def subproblem(prob, x, eta, basis, delta, tol):
        b = m.modify_hessian(m.lagrangian_hessian_matrix(prob, x, eta, basis), delta)
        sol = m.solve_qp(m.build_subproblem(prob, x, basis, b), tol)
        assert sol.status == "optimal"
        return (sol.d @ basis).reshape(x.ambient.shape), sol.eta.mu, sol.eta.lam, np.array([sol.d @ b @ sol.d])

    tilt, _, _ = sphere_tilt()
    cases = []
    for seed in range(3):
        inst = m.gen_balanced_cut(50, 2, 0.01, seed=seed)
        cases.append((m.cut_problem(inst), m.random_cut_start(inst), m.Multipliers.zeros(0, 2), 1e-4, 1e-8))
        cases.append((tilt, m.random_point(tilt.manifold, seed), m.Multipliers.zeros(0, 1), 1e-5, 1e-10))
        cases.append((*_oblique_problem(seed), 1e-2, 1e-10))
    for prob, x, eta, delta, tol in cases:
        for seed in (3, 4):
            qr = subproblem(prob, x, eta, m.qr_basis(x, seed), delta, tol)
            rows = subproblem(prob, x, eta, m.orthonormal_basis(x, seed), delta, tol)
            for a, b in zip(qr, rows):
                if b.size:
                    assert np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(b)), prob.name


def test_euclidean_toy_converges_in_one_iteration():
    prob = euclidean_toy()
    x0 = prob.manifold.point(np.array([0.0, 0.0]))
    cfg = m.SolverConfig(residual_tol=1e-10)
    state, trace = m.solve(prob, x0, cfg=cfg)
    assert trace.verdict == "converged"
    assert len(trace.records) == 1
    assert np.max(np.abs(state.x.ambient - 0.5)) < 1e-10
    assert abs(state.eta.lam[0] + 1.0) < 1e-10
    # upsilon = |lam*| = 1 does not exceed rho_init = 1: no ratchet
    assert trace.records[0].rho == 1.0
    assert trace.records[0].alpha == 1.0
    assert trace.records[0].residual <= 1e-10


def test_curved_constraints_reach_the_analytic_kkt_point():
    prob, x_star, mu_star, lam_star = curved_toy()
    for x0 in ([0.5, 0.5], [2.0, -1.0]):
        state, trace = m.solve(prob, prob.manifold.point(np.array(x0)), cfg=m.SolverConfig(residual_tol=1e-10))
        assert trace.verdict == "converged"
        assert np.max(np.abs(state.x.ambient - x_star)) < 1e-9
        assert abs(state.eta.mu[0] - mu_star) < 1e-9
        assert abs(state.eta.lam[0] - lam_star) < 1e-9


def test_penalty_ratchets_above_large_multiplier():
    prob = scaled_toy(5.0)  # lam* = -5
    x0 = prob.manifold.point(np.array([0.0, 0.0]))
    state, trace = m.solve(prob, x0, cfg=m.SolverConfig(residual_tol=1e-10, epsilon=0.5))
    assert trace.verdict == "converged"
    rho = trace.records[0].rho
    assert abs(rho - 5.5) < 1e-8  # upsilon + epsilon with upsilon = 5
    assert abs(state.eta.lam[0] + 5.0) < 1e-8
    rhos = [r.rho for r in trace.records]
    assert all(b >= a for a, b in zip(rhos, rhos[1:]))


def test_sphere_tilt_converges_to_known_solution():
    prob, x_star, lam_star = sphere_tilt()
    x0 = prob.manifold.point(np.array([0.6, 0.0, -0.8]))
    cfg = m.SolverConfig(residual_tol=1e-10, delta=1e-8, seed=3)
    state, trace = m.solve(prob, x0, cfg=cfg)
    assert trace.verdict == "converged"
    assert np.max(np.abs(state.x.ambient - x_star)) < 1e-8
    assert abs(state.eta.lam[0] - lam_star) < 1e-8


def test_stationary_start_terminates_immediately():
    prob, x_star, lam_star = sphere_tilt()
    x0 = prob.manifold.point(x_star)
    eta0 = m.Multipliers(np.zeros(0), np.array([lam_star]))
    state, trace = m.solve(prob, x0, eta0, m.SolverConfig(residual_tol=1e-8))
    assert trace.verdict == "converged"
    assert trace.reason == ""
    assert len(trace.records) == 1
    rec = trace.records[0]
    assert rec.stationary
    assert rec.alpha == 0.0
    assert rec.step_norm <= 1e-14
    assert np.array_equal(state.x.ambient, x_star)


def test_verdict_max_iter():
    prob, _, _ = sphere_tilt()
    x0 = prob.manifold.point(np.array([0.6, 0.0, -0.8]))
    state, trace = m.solve(prob, x0, cfg=m.SolverConfig(residual_tol=1e-14, max_iter=1))
    assert trace.verdict == "max_iter"
    assert len(trace.records) == 1


def test_verdict_max_time():
    prob, _, _ = sphere_tilt()
    x0 = prob.manifold.point(np.array([0.6, 0.0, -0.8]))
    cfg = m.SolverConfig(residual_tol=1e-14, max_time=1e-9)
    state, trace = m.solve(prob, x0, cfg=cfg)
    assert trace.verdict == "max_time"
    assert len(trace.records) == 1  # the first iteration always runs


def test_verdict_qp_infeasible():
    man = m.Euclidean(2)
    obj = m.SmoothFunction(
        value=lambda x: float(x @ x),
        gradient=lambda x: 2.0 * x,
        hess_vec=lambda x, v: 2.0 * v,
    )
    h1 = m.SmoothFunction(
        value=lambda x: float(x[0]),
        gradient=lambda x: np.array([1.0, 0.0]),
        hess_vec=lambda x, v: np.zeros(2),
    )
    h2 = m.SmoothFunction(
        value=lambda x: float(x[0] - 1.0),
        gradient=lambda x: np.array([1.0, 0.0]),
        hess_vec=lambda x, v: np.zeros(2),
    )
    prob = m.Problem(man, obj, (), (h1, h2))
    state, trace = m.solve(prob, man.point(np.array([0.3, 0.0])))
    assert trace.verdict == "qp_infeasible"
    assert trace.reason == "subproblem infeasible at iteration 0"
    assert trace.records == []


@pytest.mark.parametrize("kind", ["ineq", "eq"])
def test_verdict_stalled_on_nonfinite_subproblem_data(kind, capfd):
    # sqrt(x0) - 1 at x0 = -1: the constraint value and gradient are NaN,
    # while the Lagrangian Hessian (zero multiplier) is finite
    man = m.Euclidean(2)
    obj = m.SmoothFunction(
        value=lambda x: float(x @ x),
        gradient=lambda x: 2.0 * x,
        hess_vec=lambda x, v: 2.0 * v,
    )
    root = m.SmoothFunction(
        value=lambda x: float(np.sqrt(x[0]) - 1.0),
        gradient=lambda x: np.array([0.5 / np.sqrt(x[0]), 0.0]),
        hess_vec=lambda x, v: np.array([-0.25 * x[0] ** -1.5 * v[0], 0.0]),
    )
    cons = (root,)
    prob = m.Problem(man, obj, cons if kind == "ineq" else (), cons if kind == "eq" else ())
    with np.errstate(invalid="ignore"):
        state, trace = m.solve(prob, man.point(np.array([-1.0, 0.5])))
    assert trace.verdict == "stalled"
    assert trace.reason == f"subproblem A_{kind} has nonfinite entries"
    assert trace.records == []
    assert capfd.readouterr().err == ""  # no LAPACK complaint


def test_verdict_stalled_on_a_nonfinite_lagrangian_hessian():
    # the finiteness test is modify_hessian's; step names the Hessian
    man = m.Euclidean(2)
    obj = m.SmoothFunction(
        value=lambda x: float(x @ x),
        gradient=lambda x: 2.0 * x,
        hess_vec=lambda x, v: np.array([np.inf * v[0], v[1]]),
    )
    with np.errstate(invalid="ignore"):
        state, trace = m.solve(m.Problem(man, obj), man.point(np.array([1.0, 0.5])))
    assert trace.verdict == "stalled"
    assert trace.reason == "Lagrangian Hessian has nonfinite entries"
    assert trace.records == []


def test_verdict_stalled_when_the_saddle_solve_overflows():
    # finite subproblem data whose saddle right-hand side H x_p overflows:
    # the saddle solve's finiteness check ends the run instead of escaping
    man = m.Euclidean(2)
    obj = m.SmoothFunction(
        value=lambda x: 0.5 * float(1e307 * x[0] * x[0] + x[1] * x[1]),
        gradient=lambda x: np.array([1e307 * x[0], x[1]]),
        hess_vec=lambda x, v: np.array([1e307 * v[0], v[1]]),
    )
    line = m.SmoothFunction(
        value=lambda x: float(x[0] + x[1] - 1e3),
        gradient=lambda x: np.ones(2),
        hess_vec=lambda x, v: np.zeros(2),
    )
    prob = m.Problem(man, obj, (), (line,))
    with np.errstate(over="ignore", invalid="ignore"):
        state, trace = m.solve(prob, man.point(np.zeros(2)))
    assert trace.verdict == "stalled"
    assert trace.reason == "array must not contain infs or NaNs"
    assert trace.records == []


def test_zero_dimensional_manifold_ends_with_a_verdict():
    # each row of Oblique(3, 1) is +-1: the tangent space is {0}
    man = m.Oblique(3, 1)
    obj = m.SmoothFunction(
        value=lambda x: float(x.sum()),
        gradient=lambda x: np.ones_like(x),
        hess_vec=lambda x, v: np.zeros_like(v),
    )
    below = m.SmoothFunction(  # x00 <= 2, inactive
        value=lambda x: float(x[0, 0] - 2.0),
        gradient=lambda x: np.array([[1.0], [0.0], [0.0]]),
        hess_vec=lambda x, v: np.zeros_like(v),
    )
    for ineq in ((), (below,)):
        prob = m.Problem(man, obj, ineq, ())
        x0 = m.random_point(man, 0)
        state, trace = m.solve(prob, x0)
        assert trace.verdict == "converged"
        assert len(trace.records) == 1 and trace.records[0].step_norm == 0.0
        assert np.array_equal(state.x.ambient, x0.ambient)


def test_verdict_rank_drop():
    fr = m.FixedRank(4, 4, 2)
    x0 = m.random_point(fr, 31)
    u, sigma, v_fac = x0.factors
    # with B = I the first step equals minus the projected gradient, and the
    # gradient is rigged so that step lands exactly on a rank-deficient point
    drop = u @ np.diag([0.0, -sigma[1]]) @ v_fac.T
    obj = m.SmoothFunction(
        value=lambda x: float(np.sum(-drop * x)),
        gradient=lambda x: -drop,
        hess_vec=lambda x, v: np.zeros_like(v),
    )
    prob = m.Problem(fr, obj)
    cfg = m.SolverConfig(b_strategy="identity", residual_tol=1e-14)
    state, trace = m.solve(prob, x0, cfg=cfg)
    assert trace.verdict == "rank_drop"


def test_verdict_stalled_on_tiny_backtrack_budget():
    prob, _, _ = sphere_tilt()
    # far side, off the symmetry plane x[1] = 0 that holds the maximizer
    x0 = prob.manifold.point(np.array([0.48, 0.36, 0.8]))
    cfg = m.SolverConfig(gamma=0.99, max_backtracks=0, residual_tol=1e-14)
    state, trace = m.solve(prob, x0, cfg=cfg)
    assert trace.verdict == "stalled"
    assert trace.reason == "no acceptable step within 0 backtracks"


def test_stall_reason_for_uncertified_cut_subproblem():
    # the floor delta=1e-8 admits steps of norm ~1e8 whose subproblem
    # certificate misses qp_tol=1e-8 before the first step is taken
    inst = m.gen_balanced_cut(30, 2, 0.1, seed=64)
    prob = m.cut_problem(inst)
    cfg = m.SolverConfig(delta=1e-8, qp_tol=1e-8, seed=64)
    _, trace = m.solve(prob, m.random_cut_start(inst), cfg=cfg)
    assert trace.verdict == "stalled"
    assert trace.records == []
    assert trace.reason == "subproblem solver failed to certify at iteration 0"


def test_solver_is_deterministic():
    prob, _, _ = sphere_tilt()
    x0 = prob.manifold.point(np.array([0.6, 0.0, -0.8]))
    cfg = m.SolverConfig(residual_tol=1e-10, seed=9)
    s1, t1 = m.solve(prob, x0, cfg=cfg)
    s2, t2 = m.solve(prob, x0, cfg=cfg)
    assert t1.verdict == t2.verdict
    assert len(t1.records) == len(t2.records)
    for a, b in zip(t1.records, t2.records):
        assert a.f == b.f
        assert a.merit == b.merit
        assert a.residual == b.residual
        assert a.step_norm == b.step_norm
        assert a.alpha == b.alpha
    assert np.array_equal(s1.x.ambient, s2.x.ambient)


def _chain_cases():
    """A cut, a completion and an inequality toy instance, each with a start and a config."""
    cut = m.gen_balanced_cut(20, 2, 0.2, seed=3)
    comp = m.gen_completion(4, 8, 2, seed=5)
    toy, _, _, _ = curved_toy()
    return (
        (m.cut_problem(cut), m.random_cut_start(cut), m.SolverConfig(delta=1e-4, seed=7)),
        (m.completion_problem(comp), m.feasible_start(comp, tol=1e-2), m.SolverConfig(seed=8)),
        (toy, toy.manifold.point(np.array([2.0, -1.0])), m.SolverConfig(seed=9)),
    )


def _record_fields(record, *skip):
    # repr is exact for floats and for the KktReport of floats
    skip = ("wall_time", *skip)
    return {f.name: repr(getattr(record, f.name)) for f in dataclasses.fields(record) if f.name not in skip}


def _state_bytes(state):
    return state.x.ambient.tobytes(), state.eta.mu.tobytes(), state.eta.lam.tobytes(), repr(state.rho), state.k


def test_carried_evaluation_matches_a_fresh_one():
    # step returns x_{k+1}'s evaluation, its Lagrangian gradient and the
    # accepted backtrack count in the next state; a chain that drops them,
    # so that each step evaluates its own x_k and searches from depth 0,
    # must agree bit for bit in all but the count of merits computed
    for prob, x0, cfg in _chain_cases():
        carried = rebuilt = m.IterateState(x0, m.Multipliers.zeros(prob.m, prob.n), cfg.rho_init, 0)
        for k in range(6):
            carried, record = m.step(prob, carried, cfg)
            rebuilt, rebuilt_record = m.step(prob, m.IterateState(rebuilt.x, rebuilt.eta, rebuilt.rho, rebuilt.k), cfg)
            assert carried.evaluation is not None and carried.gradient is not None
            assert carried.depth == record.backtracks
            assert _record_fields(record, "merit_evals") == _record_fields(rebuilt_record, "merit_evals")
            assert _state_bytes(carried) == _state_bytes(rebuilt)
            if record.residual <= 1e-12:
                break
        assert k >= 2


def test_record_merit_and_report_match_fresh_ones():
    # merit_prev is summed from x_k's carried values, and the report reads
    # x_{k+1}'s evaluation and the gradient formed for the next Hessian
    sphere, _, _ = sphere_tilt()
    toys = (
        (euclidean_toy(), m.SolverConfig(seed=10)),
        (sphere, m.SolverConfig(seed=11)),
    )
    cases = _chain_cases() + tuple((prob, m.random_point(prob.manifold, 0), cfg) for prob, cfg in toys)
    steps = 0
    for prob, x0, cfg in cases:
        state = m.IterateState(x0, m.Multipliers.zeros(prob.m, prob.n), cfg.rho_init, 0)
        for _ in range(8):
            state_next, record = m.step(prob, state, cfg)
            steps += 1
            assert repr(record.merit_prev) == repr(m.merit(prob, state.x, record.rho))
            assert repr(record.report) == repr(m.kkt_residual(prob, state_next.x, state_next.eta))
            if record.residual <= cfg.residual_tol or record.stationary:
                break
            state = state_next
    # the Euclidean toy is a QP, solved in one step
    assert steps >= 20


def test_each_point_is_evaluated_once_per_solve(monkeypatch):
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    toy, x_star, _, _ = curved_toy()
    obj, ineq, eq = (
        m.ConstraintBlock(b.size, b.values, counted(name, b.jacobian), b.weighted_hessian)
        for name, b in (("obj", toy.obj), ("ineq", toy.ineq), ("eq", toy.eq))
    )
    prob = m.Problem(toy.manifold, obj, ineq, eq)
    for mod in (m.problem, m.qp):  # every module that imports constraint_values
        monkeypatch.setattr(mod, "constraint_values", counted("values", mod.constraint_values))
    state, trace = m.solve(prob, prob.manifold.point(np.array([2.0, -1.0])), cfg=m.SolverConfig(residual_tol=1e-10))
    assert trace.verdict == "converged" and len(trace.records) >= 3
    assert np.max(np.abs(state.x.ambient - x_star)) < 1e-9
    # x_0, then the point each nonstationary step moved to
    points = 1 + sum(not r.stationary for r in trace.records)
    assert calls == {"values": points, "obj": points, "ineq": points, "eq": points}


def test_identity_b_strategy_converges():
    prob = euclidean_toy()
    x0 = prob.manifold.point(np.array([0.0, 0.0]))
    cfg = m.SolverConfig(b_strategy="identity", residual_tol=1e-8, max_iter=200)
    state, trace = m.solve(prob, x0, cfg=cfg)
    assert trace.verdict == "converged"
    assert np.max(np.abs(state.x.ambient - 0.5)) < 1e-6


def test_initial_multiplier_shape_validation():
    prob = euclidean_toy()
    x0 = prob.manifold.point(np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        m.solve(prob, x0, m.Multipliers(np.zeros(1), np.zeros(1)))


def test_start_point_from_another_manifold_is_rejected():
    rng = np.random.default_rng(0)
    cut = m.cut_problem(m.gen_balanced_cut(6, 2, 0.5, 1))
    with pytest.raises(ValueError, match="x0 does not lie on the problem's manifold"):
        m.solve(cut, m.FixedRank(6, 2, 2).random_array(rng), cfg=m.SolverConfig(max_iter=20))
    inst = m.gen_completion(4, 8, 2, 3)
    oblique = m.Oblique(4, 8).random_array(rng)
    with pytest.raises(ValueError, match="x0 does not lie on the problem's manifold"):
        m.solve(m.completion_problem(inst), oblique)
    with pytest.raises(ValueError, match="x0 does not lie on the instance's manifold"):
        m.feasible_start(inst, x0=oblique)


def test_wall_times_nondecreasing():
    prob, _, _ = sphere_tilt()
    x0 = prob.manifold.point(np.array([0.6, 0.0, -0.8]))
    state, trace = m.solve(prob, x0, cfg=m.SolverConfig(residual_tol=1e-10))
    times = [r.wall_time for r in trace.records]
    assert all(b >= a for a, b in zip(times, times[1:]))
    assert all(t >= 0.0 for t in times)


def test_newton_kkt_step_exact_on_quadratic():
    prob = euclidean_toy()
    x = prob.manifold.point(np.array([2.0, -1.0]))
    eta = m.Multipliers.zeros(0, 1)
    basis = m.orthonormal_basis(x, 41)
    x_next, eta_next = m.newton_kkt_step(prob, x, eta, basis)
    assert np.max(np.abs(x_next.ambient - 0.5)) < 1e-12
    assert abs(eta_next.lam[0] + 1.0) < 1e-12


def _linear_rows_problem(eq_normal, eq_c):
    """min |x - (2, 1, 0)|^2 / 2 s.t. x0 + x1 - 1 <= 0 and eq_normal . x - eq_c = 0 on R^3."""
    a = np.array([2.0, 1.0, 0.0])
    obj = m.SmoothFunction(value=lambda x: float((x - a) @ (x - a)) / 2, gradient=lambda x: x - a, hess_vec=lambda x, v: v)

    def row(normal, c):
        normal = np.asarray(normal, dtype=float)
        return m.SmoothFunction(
            value=lambda x: float(normal @ x - c), gradient=lambda x: normal.copy(), hess_vec=lambda x, v: np.zeros(3)
        )

    return m.Problem(m.Euclidean(3), obj, (row((1, 1, 0), 1.0),), (row(eq_normal, eq_c),))


def test_newton_kkt_step_with_inequality_and_equality_rows():
    # the inequality is kept as an equality, so on this quadratic one step
    # from anywhere lands on the KKT pair worked out by hand: x* = (2, 1, 2) / 3,
    # mu* = 2/3 (the inequality is active) and lam* = -2/3 for x2 - x0 = 0
    prob = _linear_rows_problem((-1, 0, 1), 0.0)
    for seed, start in enumerate(([0.0, 0.0, 0.0], [3.0, -1.0, 2.0], [-0.5, 4.0, 1.0])):
        x = prob.manifold.point(np.array(start))
        eta = m.Multipliers(np.array([5.0]), np.array([-3.0]))
        x_next, eta_next = m.newton_kkt_step(prob, x, eta, m.orthonormal_basis(x, seed))
        assert np.max(np.abs(x_next.ambient - np.array([2.0, 1.0, 2.0]) / 3)) < 1e-12
        assert abs(eta_next.mu[0] - 2 / 3) < 1e-12
        assert abs(eta_next.lam[0] + 2 / 3) < 1e-12


def test_newton_kkt_step_raises_on_identical_constraint_rows():
    prob = _linear_rows_problem((1, 1, 0), 1.0)  # the equality row repeats the inequality row
    x = prob.manifold.point(np.zeros(3))
    with pytest.raises(np.linalg.LinAlgError):
        m.newton_kkt_step(prob, x, m.Multipliers.zeros(1, 1), m.orthonormal_basis(x, 0))


def test_newton_kkt_step_raises_on_singular_system():
    man = m.Euclidean(1)
    obj = m.SmoothFunction(  # linear objective: zero Hessian, no constraints
        value=lambda x: float(x[0]),
        gradient=lambda x: np.ones(1),
        hess_vec=lambda x, v: np.zeros(1),
    )
    prob = m.Problem(man, obj)
    x = man.point(np.zeros(1))
    basis = m.orthonormal_basis(x, 42)
    with pytest.raises(np.linalg.LinAlgError):
        m.newton_kkt_step(prob, x, basis=basis, eta=m.Multipliers.zeros(0, 0))
