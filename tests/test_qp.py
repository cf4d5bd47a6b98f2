"""Subproblem layer: Hessian flooring, model assembly, the QP solver.

The solver is checked against tests/qp_oracle.py, a brute-force active-set
enumerator that shares no code with the production active-set and
null-space routes.  The large-step certification test at the bottom is a
regression guard: with a floored Hessian the exact minimizer can have norm
around 1/delta, and without extended-precision refinement the returned
certificate sits orders of magnitude above what is attainable.
"""

import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg

import manisqp as m
from manisqp import qp

from qp_oracle import oracle_qp, random_qp, reference_saddle
from util import bundled_problems


def _saddle(h, ae, r1, r2):
    return qp._solve_saddle(h, qp._factor_rows(ae), ae, r1, r2)[:2]


def test_modify_hessian_hand_example():
    h = np.array([[0.0, 1.0], [1.0, 0.0]])  # eigenvalues -1, +1
    out = m.modify_hessian(h, 0.5)
    # -1 floors to 0.5: Q diag(0.5, 1) Q' with Q the Hadamard basis
    expected = np.array([[0.75, 0.25], [0.25, 0.75]])
    assert np.max(np.abs(out - expected)) < 1e-14


def test_modify_hessian_passthrough_when_definite():
    h = np.array([[2.0, 0.3], [0.3, 1.0]])
    out = m.modify_hessian(h, 1e-6)
    assert np.array_equal(out, h)


def test_modify_hessian_validation():
    with pytest.raises(ValueError):
        m.modify_hessian(np.zeros((2, 3)), 0.1)
    with pytest.raises(ValueError):
        m.modify_hessian(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.1)
    with pytest.raises(ValueError):
        m.modify_hessian(np.eye(2), 0.0)
    with pytest.raises(ValueError):
        m.modify_hessian(np.eye(2), -1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            m.modify_hessian(np.eye(2), bad)
    # nonfinite entries are refused before the symmetry test, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for bad in ([[np.nan]], [[1.0, np.inf], [np.inf, 1.0]], [[np.inf, 0.0], [1.0, 1.0]]):
            with pytest.raises(ValueError, match="H has nonfinite entries"):
                m.modify_hessian(np.array(bad), 1e-3)


def test_modify_hessian_floor_and_eigenvector_preservation():
    rng = np.random.default_rng(1)
    for trial in range(50):
        d = int(rng.integers(1, 9))
        a = rng.normal(size=(d, d))
        h = (a + a.T) / 2.0
        delta = float(rng.choice([1e-8, 1e-5, 0.5]))
        out = m.modify_hessian(h, delta)

        w_in = np.linalg.eigvalsh(h)
        w_out = np.linalg.eigvalsh(out)
        assert w_out[0] >= delta * (1.0 - 1e-6)
        # eigenvalues map through max(., delta) pairwise
        assert np.max(np.abs(w_out - np.maximum(w_in, delta))) < 1e-10
        # shared eigenvectors mean the commutator vanishes
        comm = out @ h - h @ out
        assert np.max(np.abs(comm)) < 1e-10 * (1.0 + np.max(np.abs(h)) ** 2)


def test_modify_hessian_idempotent_and_norm_bounded():
    rng = np.random.default_rng(2)
    for trial in range(30):
        d = int(rng.integers(1, 7))
        a = rng.normal(size=(d, d))
        h = (a + a.T) / 2.0
        delta = float(rng.choice([1e-6, 0.3]))
        once = m.modify_hessian(h, delta)
        twice = m.modify_hessian(once, delta)
        assert np.max(np.abs(twice - once)) < 1e-10
        norm_in = np.linalg.norm(h, ord=2)
        norm_out = np.linalg.norm(once, ord=2)
        assert norm_out <= max(delta, norm_in) * (1.0 + 1e-12)


def _floored(h, delta):
    """The floor with the average always taken: eigh((H + H^T) / 2), then max(w, delta)."""
    w, q = np.linalg.eigh((h + h.T) / 2.0)
    if w[0] >= delta:
        return np.array(h)
    out = (q * np.maximum(w, delta)) @ q.T
    return (out + out.T) / 2.0


def test_modify_hessian_averages_only_a_matrix_that_differs_from_its_transpose(monkeypatch):
    # an H equal to its transpose bit for bit reaches eigh as it is, since
    # (H + H^T) / 2 is that H; one symmetric within SYMMETRY_TOL is averaged,
    # and so is a -0.0/+0.0 pair, which == would take for equal
    seen = []
    eigh = np.linalg.eigh

    def spy(a):
        seen.append(np.array(a))
        return eigh(a)

    rng = np.random.default_rng(3)
    for trial in range(40):
        d = int(rng.integers(2, 9))
        a = rng.normal(size=(d, d))
        exact = (a + a.T) / 2.0
        near = exact.copy()
        near[0, d - 1] += 1e-10
        signed_zero = exact.copy()
        signed_zero[d - 1, 0], signed_zero[0, d - 1] = -0.0, 0.0
        delta = float(rng.choice([1e-8, 0.5]))
        for h, averaged in ((exact, False), (exact.T, False), (near, True), (signed_zero, True)):
            want = _floored(h, delta)
            monkeypatch.setattr(np.linalg, "eigh", spy)
            got = m.modify_hessian(h, delta)
            monkeypatch.setattr(np.linalg, "eigh", eigh)
            assert got.tobytes() == want.tobytes(), trial
            assert seen.pop().tobytes() == ((h + h.T) / 2.0 if averaged else h).tobytes(), trial
    # the pair alone: the average turns the lower triangle's -0.0 into +0.0
    assert np.signbit(signed_zero[d - 1, 0]) and not np.signbit(((signed_zero + signed_zero.T) / 2.0)[d - 1, 0])
    # unaveraged, an entry above half the largest float no longer overflows
    big = np.diag([1e308, 1.0])
    assert m.modify_hessian(big, 1e-3).tobytes() == big.tobytes()


def test_build_subproblem_model_is_read_only_and_keeps_its_hessian():
    for name, prob, x in bundled_problems(seed=4):
        basis = m.orthonormal_basis(x, 5)
        eta = m.Multipliers.zeros(prob.m, prob.n)
        h = m.modify_hessian(m.lagrangian_hessian_matrix(prob, x, eta, basis), 1e-5)
        model = m.build_subproblem(prob, x, basis, h)
        for block in (model.H, model.c, model.A_ineq, model.b_ineq, model.A_eq, model.b_eq):
            assert not block.flags.writeable, name
        assert model.dims == (basis.shape[0], prob.m, prob.n), name
        kept = model.H.copy()
        h[...] = 7.0  # the caller's array, written after the build
        assert model.H.tobytes() == kept.tobytes(), name
        # a read-only array that owns its data is kept without a copy
        frozen = np.array(kept)
        frozen.setflags(write=False)
        assert m.build_subproblem(prob, x, basis, frozen).H is frozen, name


def test_build_subproblem_unconstrained_euclidean_canonical():
    man = m.Euclidean(2)
    obj = m.SmoothFunction(
        value=lambda x: float(x @ x),
        gradient=lambda x: 2.0 * x,
        hess_vec=lambda x, v: 2.0 * v,
    )
    prob = m.Problem(man, obj)
    x = man.point(np.array([0.3, -0.5]))
    basis = np.eye(2)
    model = m.build_subproblem(prob, x, basis, np.eye(2))
    assert model.dims == (2, 0, 0)
    assert np.max(np.abs(model.c - np.array([0.6, -1.0]))) < 1e-15
    assert model.A_ineq.shape == (0, 2)
    assert model.A_eq.shape == (0, 2)


def test_build_subproblem_sphere_example():
    man = m.Sphere(3)
    x = man.point(np.array([0.0, 0.0, 1.0]))
    obj = m.SmoothFunction(
        value=lambda x: float(x[2]),
        gradient=lambda x: np.array([0.0, 0.0, 1.0]),
        hess_vec=lambda x, v: np.zeros(3),
    )
    g1 = m.SmoothFunction(  # g(x) = x1
        value=lambda x: float(x[0]),
        gradient=lambda x: np.array([1.0, 0.0, 0.0]),
        hess_vec=lambda x, v: np.zeros(3),
    )
    prob = m.Problem(man, obj, (g1,), ())
    basis = np.eye(3)[:2]
    model = m.build_subproblem(prob, x, basis, np.eye(2))
    assert np.max(np.abs(model.A_ineq - np.array([[1.0, 0.0]]))) < 1e-15
    assert np.max(np.abs(model.b_ineq - np.array([0.0]))) < 1e-15
    # objective gradient is normal at the pole, so c vanishes
    assert np.max(np.abs(model.c)) < 1e-15


def test_kkt_violation_hand_example():
    model = m.QpModel(
        H=np.eye(1),
        c=np.array([-1.0]),
        A_ineq=np.array([[1.0]]),
        b_ineq=np.array([-0.2]),
        A_eq=np.zeros((0, 1)),
        b_eq=np.zeros(0),
    )
    # at d = 0, mu = 0: stationarity |0 - 1| = 1, primal violation 0.2
    err = m.kkt_violation(model, np.zeros(1), np.zeros(1), np.zeros(0))
    assert abs(err - 1.0) < 1e-15
    # at the optimum d = -0.2, mu = 1.2 everything vanishes
    err = m.kkt_violation(model, np.array([-0.2]), np.array([1.2]), np.zeros(0))
    assert err < 1e-15


def _ld_dot(a, v):
    """a v in long double, each entry summed term by term from zero in index order."""
    out = np.zeros(a.shape[0], dtype=np.longdouble)
    for i in range(a.shape[0]):
        acc = np.longdouble(0.0)
        for j in range(a.shape[1]):
            acc += a[i, j] * v[j]
        out[i] = acc
    return out


def _kkt_reference(model, d, mu, lam):
    """``kkt_violation`` with every long-double product a sequential loop."""
    ld = np.longdouble
    ai, ae, dl = model.A_ineq.astype(ld), model.A_eq.astype(ld), d.astype(ld)
    stat = _ld_dot(model.H.astype(ld), dl) + model.c.astype(ld)
    if mu.size:
        stat = stat + _ld_dot(ai.T, mu.astype(ld))
    if lam.size:
        stat = stat + _ld_dot(ae.T, lam.astype(ld))
    out = float(np.abs(stat).max()) if stat.size else 0.0
    if lam.size:
        out = max(out, float(np.abs(_ld_dot(ae, dl) - model.b_eq.astype(ld)).max()))
    if mu.size:
        slack = _ld_dot(ai, dl) - model.b_ineq.astype(ld)
        out = max(out, float(max(0.0, slack.max())), float(max(0.0, -mu.min())))
        out = max(out, float(np.abs(mu.astype(ld) * slack).max()))
    return out


def _with_transposed_blocks(model):
    """The model with H and both row blocks stored column-major."""
    f = np.asfortranarray
    return m.QpModel(f(model.H), model.c, f(model.A_ineq), model.b_ineq, f(model.A_eq), model.b_eq)


def test_long_double_products_sum_in_order():
    # kkt_violation and the saddle solve's residual take their products by
    # np.dot, which must give the bits of a sequential long-double sum on
    # row- and column-major blocks and on empty m or n
    rng = np.random.default_rng(29)
    models = [m.QpModel(*random_qp(rng)) for _ in range(60)]
    models += [_with_transposed_blocks(model) for model in models]
    assert any(model.H.flags.f_contiguous and not model.H.flags.c_contiguous for model in models)
    dims = {(model.dims[1] > 0, model.dims[2] > 0) for model in models}
    assert dims == {(False, False), (False, True), (True, False), (True, True)}
    ld = np.longdouble
    for i, model in enumerate(models):
        d, mm, n = model.dims
        sol = m.solve_qp(model)
        random_point = (1e3 * rng.normal(size=d), rng.normal(size=mm), rng.normal(size=n))
        # at the solution the terms cancel, and the order of the sums shows
        for point in (random_point, (sol.d, sol.eta.mu, sol.eta.lam)):
            assert m.kkt_violation(model, *point) == _kkt_reference(model, *point), i
        h, rows, r1, r2 = model.H, model.A_eq, -model.c, model.b_eq
        x, y, res = qp._solve_saddle(h, qp._factor_rows(rows), rows, r1, r2)
        hl, al, xl = h.astype(ld), rows.astype(ld), x.astype(ld)
        res1 = np.asarray(r1.astype(ld) - _ld_dot(hl, xl) - _ld_dot(al.T, y.astype(ld)), dtype=float)
        res2 = np.asarray(r2.astype(ld) - _ld_dot(al, xl), dtype=float)
        want = max(float(np.abs(res1).max()), float(np.abs(res2).max()) if n else 0.0)
        assert res == want, i


def test_solve_qp_unconstrained_example():
    model = m.QpModel(np.eye(1), np.array([1.0]), np.zeros((0, 1)), np.zeros(0), np.zeros((0, 1)), np.zeros(0))
    sol = m.solve_qp(model, 1e-10)
    assert sol.status == "optimal"
    assert abs(sol.d[0] + 1.0) < 1e-10
    assert sol.eta.mu.size == 0 and sol.eta.lam.size == 0


def test_saddle_solve_without_rows_solves_with_h():
    # no rows: the SVD gives rank 0 and the identity as null-space basis, so
    # the reduced system is H itself, by Cholesky or, for an indefinite H,
    # by the symmetric solve
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 5))
    q, _ = np.linalg.qr(a)
    r1 = rng.normal(size=5)
    for w in ([1e-5, 0.1, 1.0, 2.0, 30.0], [-2.0, -1e-3, 0.5, 1.0, 4.0]):
        h = (q * w) @ q.T
        h = (h + h.T) / 2.0
        x, lam = _saddle(h, np.zeros((0, 5)), r1, np.zeros(0))
        assert lam.shape == (0,)
        assert np.max(np.abs(h @ x - r1)) < 1e-10 * np.linalg.norm(x)
    x, lam = _saddle(np.zeros((0, 0)), np.zeros((0, 0)), np.zeros(0), np.zeros(0))
    assert x.shape == lam.shape == (0,)


def test_solve_qp_single_inequality_example():
    model = m.QpModel(np.eye(1), np.array([-1.0]), np.array([[1.0]]), np.array([-0.2]), np.zeros((0, 1)), np.zeros(0))
    sol = m.solve_qp(model, 1e-10)
    assert sol.status == "optimal"
    assert abs(sol.d[0] + 0.2) < 1e-8
    assert abs(sol.eta.mu[0] - 1.2) < 1e-8
    assert np.all(sol.eta.mu >= 0.0)


def test_solve_qp_single_equality_example():
    model = m.QpModel(np.eye(2), np.zeros(2), np.zeros((0, 2)), np.zeros(0), np.array([[1.0, 1.0]]), np.array([1.0]))
    sol = m.solve_qp(model, 1e-10)
    assert sol.status == "optimal"
    assert np.max(np.abs(sol.d - 0.5)) < 1e-10
    assert abs(sol.eta.lam[0] + 0.5) < 1e-10


def test_solve_qp_infeasible_equalities():
    model = m.QpModel(
        np.eye(1),
        np.zeros(1),
        np.zeros((0, 1)),
        np.zeros(0),
        np.array([[1.0], [1.0]]),
        np.array([0.0, 1.0]),
    )
    sol = m.solve_qp(model, 1e-10)
    assert sol.status == "infeasible"
    assert not np.isfinite(sol.kkt_error)


def test_solve_qp_infeasible_inequalities():
    # d <= -1 and d >= 2 cannot hold together
    model = m.QpModel(
        np.eye(1),
        np.zeros(1),
        np.array([[1.0], [-1.0]]),
        np.array([-1.0, -2.0]),
        np.zeros((0, 1)),
        np.zeros(0),
    )
    sol = m.solve_qp(model, 1e-10)
    assert sol.status == "infeasible"


def test_scipy_optimize_never_loads(tmp_path):
    # importing the package, solving a balanced cut instance (equality rows
    # only), the CLI's gen, an infeasible inequality model and a
    # completion feasibility phase and solve leave scipy.optimize unloaded
    script = """
import sys
import numpy as np
import manisqp as m
from manisqp import cli
inst = m.gen_balanced_cut(20, 2, 0.2, seed=3)
_, trace = m.solve(m.cut_problem(inst), m.random_cut_start(inst), cfg=m.SolverConfig(seed=3))
assert trace.verdict == "converged", trace.verdict
assert cli.main(["gen", "--problem", "balanced_cut", "--q", "10", "--s", "2", "--density", "0.5",
                 "--out", sys.argv[1]]) == 0
print("scipy.optimize" in sys.modules)
# the model of test_solve_qp_infeasible_inequalities
sol = m.solve_qp(m.QpModel(np.eye(1), np.zeros(1), [[1.0], [-1.0]], [-1.0, -2.0], np.zeros((0, 1)), np.zeros(0)), 1e-10)
inst = m.gen_completion(4, 8, 2, seed=7)
prob = m.completion_problem(inst)
x0 = m.feasible_start(inst, tol=1e-2)
_, trace = m.solve(prob, x0, m.Multipliers.zeros(prob.m, prob.n), m.SolverConfig(seed=7, max_iter=20))
assert trace.records, trace.verdict
print("scipy.optimize" in sys.modules)
print(sol.status, sol.d.tobytes().hex(), repr(sol.kkt_error), sol.iterations)
"""
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "cut.json")], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    before, after, answer = proc.stdout.splitlines()[-3:]
    assert (before, after) == ("False", "False")
    # the same answer as in this process
    model = m.QpModel(np.eye(1), np.zeros(1), [[1.0], [-1.0]], [-1.0, -2.0], np.zeros((0, 1)), np.zeros(0))
    sol = m.solve_qp(model, 1e-10)
    assert sol.status == "infeasible"
    assert answer == f"{sol.status} {sol.d.tobytes().hex()} {sol.kkt_error!r} {sol.iterations}"


def _stress_models(draws):
    # the tests' random_qp models at seed 5, H, c and b_ineq scaled by
    # 10^U(0, 250) and A_ineq by 10^U(-50, 50); draws are numbered from 0
    rng = np.random.default_rng(5)
    models = []
    for _ in range(draws):
        h, c, ai, bi, ae, be = random_qp(rng)
        k = 10.0 ** rng.uniform(0, 250)
        j = 10.0 ** rng.uniform(-50, 50)
        models.append(m.QpModel(h * k, c * k, ai * j, bi * k, ae, be))
    return models


def test_solver_failure_is_not_read_as_infeasibility():
    # a feasible stress draw (H, c and b scaled by ~1.1e6, A_ineq by
    # ~2.2e17) on which HiGHS failed the elastic phase-1 LP, which is
    # always feasible, and the failure was read as "infeasible"; the
    # active-set route certifies its unconstrained minimizer
    model = _stress_models(688)[687]
    assert model.dims == (1, 3, 0)
    sol = m.solve_qp(model, 1e-10)
    assert sol.status == "optimal" and sol.kkt_error <= 1e-10


def test_feasible_badly_scaled_models_are_never_certified_infeasible():
    # stress draws with minimum violation 0 and A_ineq scaled by 1e11-1e12:
    # a residual bound normwise in max|A_ineq| certified all three
    # infeasible, the componentwise one of _certifies_infeasible none
    models = _stress_models(2384)
    for draw in (518, 624, 2383):
        assert m.solve_qp(models[draw], 1e-10).status != "infeasible", draw


def test_solve_qp_is_deterministic():
    rng = np.random.default_rng(3)
    h, c, ai, bi, ae, be = random_qp(rng)
    model = m.QpModel(h, c, ai, bi, ae, be)
    s1 = m.solve_qp(model, 1e-10)
    s2 = m.solve_qp(model, 1e-10)
    assert np.array_equal(s1.d, s2.d)
    assert np.array_equal(s1.eta.mu, s2.eta.mu)
    assert np.array_equal(s1.eta.lam, s2.eta.lam)
    assert s1.kkt_error == s2.kkt_error
    assert s1.iterations == s2.iterations


def test_solve_qp_matches_oracle_on_random_instances():
    rng = np.random.default_rng(4)
    tol = 1e-10
    checked = 0
    for trial in range(200):
        h, c, ai, bi, ae, be = random_qp(rng)
        ref = oracle_qp(h, c, ai, bi, ae, be)
        assert ref is not None  # generator guarantees feasibility
        x_ref, mu_ref, lam_ref, val_ref = ref
        sol = m.solve_qp(m.QpModel(h, c, ai, bi, ae, be), tol)
        assert sol.status == "optimal", trial
        assert sol.kkt_error <= tol
        assert np.max(np.abs(sol.d - x_ref)) < 1e-7, trial
        if mu_ref.size:
            assert np.max(np.abs(sol.eta.mu - mu_ref)) < 1e-7, trial
            assert np.all(sol.eta.mu >= 0.0)
        if lam_ref.size:
            assert np.max(np.abs(sol.eta.lam - lam_ref)) < 1e-7, trial
        val = 0.5 * sol.d @ h @ sol.d + c @ sol.d
        assert val <= val_ref + 1e-7
        checked += 1
    assert checked == 200


def _huge_floored_step_models():
    # rotated spectrum (1e-8, 1): the unconstrained minimizer has norm ~1e8
    th = np.pi / 6.0
    q = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    h = q @ np.diag([1e-8, 1.0]) @ q.T
    h = (h + h.T) / 2.0
    c = q @ np.array([1.0, 0.3])
    free = m.QpModel(h, c, np.zeros((0, 2)), np.zeros(0), np.zeros((0, 2)), np.zeros(0))
    # same spectrum with one equality constraint pinning a mixed direction
    pinned = m.QpModel(h, c, np.zeros((0, 2)), np.zeros(0), np.array([[0.3, 1.0]]), np.array([0.7]))
    return free, pinned


def test_equality_path_certifies_huge_floored_steps():
    # a plain float64 solve-and-check cannot certify anywhere near 1e-8 at
    # a step of norm ~1e8
    free, pinned = _huge_floored_step_models()
    sol = m.solve_qp(free, 1e-8)
    assert sol.status == "optimal"
    assert np.linalg.norm(sol.d) > 1e7
    assert sol.kkt_error <= 1e-8

    sol = m.solve_qp(pinned, 1e-8)
    assert sol.status == "optimal"
    assert sol.kkt_error <= 1e-8
    assert abs(0.3 * sol.d[0] + sol.d[1] - 0.7) < 1e-8


def test_qp_model_validation():
    with pytest.raises(ValueError):
        m.QpModel(np.eye(3), np.zeros(2), np.zeros((0, 2)), np.zeros(0), np.zeros((0, 2)), np.zeros(0))


def _dense_rows_qp(rng, d=4, n_ineq=8, n_eq=2):
    # random rows and right-hand sides: mostly infeasible, decided by the
    # active-set route's ray after a few steps
    a = rng.normal(size=(d, d))
    return m.QpModel(
        a @ a.T + np.eye(d),
        rng.normal(size=d),
        rng.normal(size=(n_ineq, d)),
        rng.normal(size=n_ineq),
        rng.normal(size=(n_eq, d)),
        rng.normal(size=n_eq),
    )


def _inconsistent_rows_qp(rng):
    # a feasible random model plus the pair a.d <= t, a.d >= t + gap
    h, c, ai, bi, ae, be = random_qp(rng)
    a = rng.normal(size=c.size)
    t = rng.normal()
    gap = rng.uniform(0.1, 2.0)
    return m.QpModel(h, c, np.vstack([ai, a, -a]), np.concatenate([bi, [t, -t - gap]]), ae, be)


def _seeded_models():
    rng = np.random.default_rng(12)
    models = [m.QpModel(*random_qp(rng)) for _ in range(40)]
    models += [_dense_rows_qp(rng) for _ in range(40)]
    models += [_inconsistent_rows_qp(rng) for _ in range(40)]
    return models


def test_uncertified_feasible_model_stops_at_the_iteration_limit(monkeypatch):
    # scaled by 1e5, this feasible model's active-set point is certified
    # neither as it stands nor after the polish, so it ends undecided
    calls = []
    monkeypatch.setattr(qp, "linprog", lambda *args, **kwargs: calls.append(1))
    model = _seeded_models()[12]
    k = 1e5
    scaled = m.QpModel(k * model.H, k * model.c, model.A_ineq, k * model.b_ineq, model.A_eq, k * model.b_eq)
    sol = m.solve_qp(scaled, 1e-10)
    assert sol.status == "max_iter" and sol.iterations <= qp._AS_MAX_STEPS
    assert sol.kkt_error == m.kkt_violation(scaled, sol.d, sol.eta.mu, sol.eta.lam) > 1e-10
    assert not calls


@pytest.mark.parametrize(
    "block, m_ineq",
    [("H", 0), ("c", 0), ("A_eq", 0), ("b_eq", 0), ("H", 1), ("c", 1), ("A_ineq", 1), ("b_ineq", 1), ("A_eq", 1), ("b_eq", 1)],
)
def test_solve_qp_names_a_nonfinite_block(block, m_ineq):
    data = dict(
        H=np.eye(2),
        c=np.ones(2),
        A_ineq=np.ones((m_ineq, 2)),
        b_ineq=np.ones(m_ineq),
        A_eq=np.array([[1.0, -1.0]]),
        b_eq=np.zeros(1),
    )
    data[block].flat[0] = np.nan if block.startswith(("A", "b")) else np.inf
    with pytest.raises(ValueError, match=f"subproblem {block} has nonfinite entries"):
        m.solve_qp(m.QpModel(**data), 1e-10)


def test_zero_dimensional_subproblem():
    assert m.modify_hessian(np.zeros((0, 0)), 1e-5).shape == (0, 0)
    empty = (np.zeros((0, 0)), np.zeros(0))
    # inequality rows 0 <= 1 and 0 <= 0: the active-set route has no
    # reduced Hessian to factor
    model = m.QpModel(*empty, np.zeros((2, 0)), np.array([1.0, 0.0]), *empty)
    assert model.dims == (0, 2, 0)
    sol = m.solve_qp(model, 1e-10)
    assert sol.status == "optimal" and sol.d.shape == (0,) and sol.eta.mu.shape == (2,)
    # 0 <= -1 fails
    model = m.QpModel(*empty, np.zeros((1, 0)), np.array([-1.0]), *empty)
    assert m.solve_qp(model, 1e-10).status == "infeasible"
    # the equality route
    model = m.QpModel(*empty, *empty, np.zeros((1, 0)), np.zeros(1))
    assert m.solve_qp(model, 1e-10).status == "optimal"


def test_solve_qp_restores_the_floating_point_error_state(monkeypatch):
    model = _dense_rows_qp(np.random.default_rng(3))
    with np.errstate(over="warn", divide="raise", invalid="print", under="ignore"):
        before = np.geterr()
        m.solve_qp(model, 1e-10)
        assert np.geterr() == before

        def broken(*args, **kwargs):
            raise RuntimeError("factorization failed")

        monkeypatch.setattr(qp, "dgetrf", broken)
        with pytest.raises(RuntimeError, match="factorization failed"):
            m.solve_qp(model, 1e-10)
        assert np.geterr() == before


def _degenerate_models():
    none2 = (np.zeros((0, 2)), np.zeros(0))
    return [
        # rows near the float64 range: the first residuals overflow
        m.QpModel(np.eye(2), np.zeros(2), np.array([[1e200, 0.0], [-1e200, 0.0]]), np.array([-1e200, -1e200]), *none2),
        # a zero row with a negative right-hand side
        m.QpModel(np.eye(2), np.zeros(2), np.zeros((1, 2)), np.array([-1.0]), *none2),
        # d <= -1 and d >= 2
        m.QpModel(np.eye(1), np.zeros(1), np.array([[1.0], [-1.0]]), np.array([-1.0, -2.0]), np.zeros((0, 1)), np.zeros(0)),
        # singular and nearly zero Hessians
        m.QpModel(np.zeros((2, 2)), np.ones(2), np.array([[1.0, 0.0]]), np.array([1.0]), *none2),
        m.QpModel(1e-300 * np.eye(2), np.ones(2), np.array([[1.0, 0.0]]), np.array([1.0]), *none2),
        # inconsistent equalities next to an inequality
        m.QpModel(np.eye(2), np.zeros(2), np.array([[1.0, 0.0]]), np.array([1.0]), np.array([[0.0, 1.0], [0.0, 1.0]]), np.array([0.0, 1.0])),
    ]


def test_degenerate_models_emit_no_runtime_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for model in _degenerate_models():
            assert m.solve_qp(model, 1e-10).status in ("optimal", "infeasible", "max_iter")


def test_overflowing_centering_parameter_ends_the_path():
    # a finite, badly scaled model (H, c and b scaled by ~4e182, A_ineq by
    # ~5e42) on which an interior-point path once overflowed its centering
    # parameter: the active-set route decides it without a RuntimeWarning
    # or an OverflowError out of solve_qp
    model = _stress_models(135)[134]
    assert model.dims == (2, 1, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol = m.solve_qp(model, 1e-10)
    assert sol.status in ("infeasible", "max_iter")


def _equality_only(model):
    return m.QpModel(model.H, model.c, np.zeros((0, model.c.size)), np.zeros(0), model.A_eq, model.b_eq)


def test_saddle_solve_returns_the_cholesky_wrappers_bits(monkeypatch):
    # LAPACK's dpotrf/dpotrs called directly give what scipy's cho_factor /
    # cho_solve give, and an indefinite reduced Hessian still takes the
    # symmetric solve
    models = [_equality_only(model) for model in _seeded_models()]
    models += list(_huge_floored_step_models())
    rng = np.random.default_rng(41)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    indefinite = (q * np.array([-2.0, -1e-3, 0.5, 3.0])) @ q.T
    indefinite = (indefinite + indefinite.T) / 2.0
    for rows in (np.zeros((0, 4)), rng.normal(size=(1, 4))):
        models.append(m.QpModel(indefinite, rng.normal(size=4), np.zeros((0, 4)), np.zeros(0), rows, rng.normal(size=rows.shape[0])))
    fallback = []
    solve = scipy.linalg.solve

    def counted(*args, **kwargs):
        fallback.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(qp.scipy.linalg, "solve", counted)
    for i, model in enumerate(models):
        want = reference_saddle(model.H, model.A_eq, -model.c, model.b_eq)
        got = _saddle(model.H, model.A_eq, -model.c, model.b_eq)
        assert got[0].tobytes() == want[0].tobytes(), i
        assert got[1].tobytes() == want[1].tobytes(), i
        # and the equality route returns that point with its certificate
        sol = m.solve_qp(model, 1e-8)
        if sol.status != "infeasible":
            assert sol.d.tobytes() == got[0].tobytes() and sol.eta.lam.tobytes() == got[1].tobytes(), i
            assert sol.kkt_error == m.kkt_violation(model, got[0], np.zeros(0), got[1]), i
    assert fallback  # the indefinite models took the symmetric solve


def test_saddle_solve_rejects_nonfinite_data_like_cho_factor():
    # a nonfinite reduced Hessian, or right-hand side of the reduced
    # system, raises the ValueError of scipy's check_finite
    h = np.array([[1.0, 0.0], [0.0, np.inf]])
    rows = np.zeros((0, 2))
    for hh, r1 in ((h, np.ones(2)), (np.eye(2), np.array([1.0, np.nan]))):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError) as want:
            reference_saddle(hh, rows, r1, np.zeros(0))
        with np.errstate(invalid="ignore"), pytest.raises(ValueError) as got:
            _saddle(hh, rows, r1, np.zeros(0))
        assert str(got.value) == str(want.value) == "array must not contain infs or NaNs"
    # an overflowing but finite H: the reduced Hessian z^T H z is inf
    big = np.full((2, 2), 1e308)
    rows = np.array([[1.0, -1.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="infs or NaNs"):
            reference_saddle(big, rows, np.ones(2), np.zeros(1))
        with pytest.raises(ValueError, match="infs or NaNs"):
            _saddle(big, rows, np.ones(2), np.zeros(1))


def _dependent_row_models(draws):
    """Random models from the first ``draws`` draws of a seeded stream, each with
    a scaled copy of one of its equality rows; yields (draw, model, oracle)."""
    rng = np.random.default_rng(43)
    for draw in range(draws):
        h, c, ai, bi, ae, be = random_qp(rng, d_max=6, m_max=4, n_max=2)
        if not ai.shape[0] or not ae.shape[0] or ae.shape[0] == c.size:
            continue
        j = rng.integers(ae.shape[0])
        f = rng.choice([2.0, -1.0, 0.5, 1.0])
        model = m.QpModel(h, c, ai, bi, np.vstack([ae, f * ae[j]]), np.append(be, f * be[j]))
        yield draw, model, (h, c, ai, bi, ae, be)


def _check_dependent_row_solution(model, original, label, solve=m.solve_qp):
    sol = solve(model, 1e-10)
    ref = oracle_qp(*original)
    assert sol.status == "optimal", label
    # the minimum-norm multipliers: lam is the y(A_eq^T lam) of A_eq's factorization
    lam = sol.eta.lam
    again = qp._factor_rows(model.A_eq).multipliers(model.A_eq.T @ lam)
    assert np.max(np.abs(again - lam)) < 1e-12 * (1.0 + np.abs(lam).max()), label
    assert np.max(np.abs(sol.d - ref[0])) < 1e-6, label
    assert sol.kkt_error == m.kkt_violation(model, sol.d, sol.eta.mu, sol.eta.lam) <= 1e-10


def test_interior_point_route_runs_in_the_null_space_of_dependent_rows():
    # a repeated equality row would make a full-space system singular; the
    # active-set route runs in the null space of the rows and is certified
    # against the whole model
    model = m.QpModel(np.eye(2), np.ones(2), [[1.0, 0.0]], [1.0], [[0.0, 1.0], [0.0, 1.0]], [0.5, 0.5])
    sol = m.solve_qp(model, 1e-10)
    assert sol.status == "optimal"
    assert np.max(np.abs(sol.d - [-1.0, 0.5])) < 1e-9
    # the minimum-norm multipliers, which the equality route gives too
    assert sol.eta.lam.shape == (2,) and np.max(np.abs(sol.eta.lam + 0.75)) < 1e-9
    assert sol.kkt_error == m.kkt_violation(model, sol.d, sol.eta.mu, sol.eta.lam) <= 1e-10
    eq_sol = m.solve_qp(_equality_only(model), 1e-10)
    assert np.max(np.abs(eq_sol.eta.lam + 0.75)) < 1e-9

    # random models with a scaled copy of one of their equality rows: the
    # answer is the oracle's for the model without the copy
    checked = 0
    for draw, model, original in _dependent_row_models(60):
        _check_dependent_row_solution(model, original, draw)
        checked += 1
    assert checked >= 15


def test_dependent_equality_rows_are_found_without_a_zero_pivot():
    # in these two models rounding keeps the LU pivots of a full-space
    # system nonzero (they fall to 1e-35 and 1e-39), so only the rank of
    # A_eq's SVD shows that the copied row is dependent
    models = {draw: (model, original) for draw, model, original in _dependent_row_models(278)}
    for draw in (262, 277):
        _check_dependent_row_solution(*models[draw], draw)


def test_interior_point_route_decides_inconsistent_dependent_rows_infeasible(monkeypatch):
    # decided for both routes in one place, before any iteration and
    # without the dual certificate
    calls = []
    monkeypatch.setattr(qp, "_certifies_infeasible", lambda *args, **kwargs: calls.append(1))
    model = m.QpModel(np.eye(2), np.ones(2), [[1.0, 0.0]], [1.0], [[0.0, 1.0], [0.0, 1.0]], [0.5, 0.7])
    sol = m.solve_qp(model, 1e-10)
    assert sol.status == "infeasible"
    assert sol.eta.lam.shape == (2,)
    assert sol.iterations == 0 and not calls


def test_slack_inequality_rows_leave_the_equality_answer():
    # inequality rows that are slack at the equality route's answer: the
    # active-set route, in the null space of A_eq, finds the same point
    # and the same multipliers, dependent rows included
    rng = np.random.default_rng(44)
    checked = 0
    for _ in range(40):
        h, c, _, _, ae, be = random_qp(rng)
        if not ae.shape[0]:
            continue
        if rng.random() < 0.5:
            ae, be = np.vstack([ae, -2.0 * ae[:1]]), np.append(be, -2.0 * be[:1])
        none = (np.zeros((0, c.size)), np.zeros(0))
        ref = m.solve_qp(m.QpModel(h, c, *none, ae, be), 1e-10)
        ai = rng.normal(size=(3, c.size))
        sol = m.solve_qp(m.QpModel(h, c, ai, ai @ ref.d + rng.uniform(0.5, 2.0, size=3), ae, be), 1e-10)
        assert ref.status == sol.status == "optimal"
        assert np.max(np.abs(sol.d - ref.d)) < 1e-8
        assert np.max(np.abs(sol.eta.lam - ref.eta.lam)) < 1e-8
        assert np.max(np.abs(sol.eta.mu)) < 1e-8
        checked += 1
    assert checked >= 20


def test_solve_qp_rejects_a_tol_that_is_not_positive_and_finite():
    model = m.QpModel(np.eye(2), np.ones(2), np.zeros((0, 2)), np.zeros(0), np.zeros((0, 2)), np.zeros(0))
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            m.solve_qp(model, bad)


def test_active_set_route_keeps_the_interior_point_verdicts():
    # every model is decided, and as the oracle decides it: an optimal
    # answer is the oracle's, an infeasible model has no oracle answer
    rng = np.random.default_rng(45)
    models = _seeded_models() + [m.QpModel(*random_qp(rng)) for _ in range(500)]
    statuses = []
    for i, model in enumerate(models):
        sol = m.solve_qp(model, 1e-10)
        ref = oracle_qp(model.H, model.c, model.A_ineq, model.b_ineq, model.A_eq, model.b_eq)
        statuses.append(sol.status)
        assert sol.status == ("optimal" if ref is not None else "infeasible"), i
        if ref is None:
            continue
        assert sol.kkt_error <= 1e-10, i
        for got, want in ((sol.d, ref[0]), (sol.eta.mu, ref[1]), (sol.eta.lam, ref[2])):
            assert np.max(np.abs(got - want), initial=0.0) < 1e-7, i
    assert statuses.count("optimal") >= 540 and statuses.count("infeasible") >= 40


def test_infeasible_model_is_decided_by_the_active_set_ray(monkeypatch):
    # the rows added before a dependent row with no multiplier to drop give
    # the ray, which the dual certificate accepts
    rays = []
    certifies = qp._certifies_infeasible

    def logged(model, eq, y):
        rays.append(y)
        return certifies(model, eq, y)

    monkeypatch.setattr(qp, "_certifies_infeasible", logged)
    # d <= -1 and d >= 2: row 2 is the most violated at d = 0, and row 1
    # then depends on it with r = -1
    model = m.QpModel(np.eye(1), np.zeros(1), [[1.0], [-1.0]], [-1.0, -2.0], np.zeros((0, 1)), np.zeros(0))
    sol = m.solve_qp(model, 1e-10)
    assert sol.status == "infeasible" and sol.iterations == 2
    assert len(rays) == 1 and np.array_equal(rays[0], [1.0, 1.0])
    # and every inconsistent seeded model
    for model in _seeded_models()[80:]:
        rays.clear()
        assert m.solve_qp(model, 1e-10).status == "infeasible"
        assert len(rays) == 1


def test_active_set_route_at_its_step_limit_answers_itself(monkeypatch):
    # with one step allowed, every model is answered within it: certified,
    # "infeasible" by its equality rows, or "max_iter" at the last iterate
    monkeypatch.setattr(qp, "_AS_MAX_STEPS", 1)
    models = _seeded_models() + _degenerate_models()
    statuses = []
    for i, model in enumerate(models):
        sol = m.solve_qp(model, 1e-10)
        statuses.append(sol.status)
        assert sol.status in ("optimal", "infeasible", "max_iter") and sol.iterations <= 1, i
        assert sol.d.shape == model.c.shape and sol.eta.mu.shape == model.b_ineq.shape, i
        if np.isfinite(sol.kkt_error):  # inf only for inconsistent equality rows
            assert sol.kkt_error == m.kkt_violation(model, sol.d, sol.eta.mu, sol.eta.lam), i
    assert statuses.count("max_iter") >= 40


def test_undecided_answer_is_the_last_iterate(monkeypatch):
    # min |d - 10 e|^2 / 2 s.t. d <= 0 adds one row per step: five steps
    # and a sixth that certifies; cut at three, the answer is the iterate
    # the third step started from, and its KKT violation is taken once
    model = m.QpModel(np.eye(5), -10.0 * np.ones(5), np.eye(5), np.zeros(5), np.zeros((0, 5)), np.zeros(0))
    sol = m.solve_qp(model, 1e-10)
    assert sol.status == "optimal" and sol.iterations == 6
    calls = []
    original = qp.kkt_violation

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(qp, "_AS_MAX_STEPS", 3)
    monkeypatch.setattr(qp, "kkt_violation", counted)
    sol = m.solve_qp(model, 1e-10)
    assert sol.status == "max_iter" and sol.iterations == 3
    assert len(calls) == 1
    assert sol.kkt_error == m.kkt_violation(model, sol.d, sol.eta.mu, sol.eta.lam)
    assert np.count_nonzero(sol.eta.mu) == 2


def test_active_set_route_certifies_what_the_interior_point_leaves_uncertified():
    # a feasible stress draw (H, c and b scaled by ~2e3, A_ineq by ~2e38):
    # two active-set steps reach the optimum
    model = _stress_models(2260)[2259]
    assert model.dims == (1, 2, 0)
    sol = m.solve_qp(model, 1e-10)
    assert sol.status == "optimal" and sol.kkt_error <= 1e-10


def test_feasible_stress_draws_are_never_certified_infeasible():
    # without equality rows a stress draw keeps random_qp's feasible point
    # x_bar, scaled by k / j, so it is feasible by construction
    checked = 0
    for draw, model in enumerate(_stress_models(3378)):
        if not model.b_eq.size:
            assert m.solve_qp(model, 1e-10).status != "infeasible", draw
            checked += 1
    assert checked > 1000
