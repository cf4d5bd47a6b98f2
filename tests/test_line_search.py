"""The chunked line search against its sequential definition.

``line_search`` evaluates its trial steps a chunk at a time, each chunk as
one stacked retraction and merit.  ``sequential_search`` below is the
definition it must reproduce: test r = 0, 1, 2, ... one candidate at a
time, retracting and evaluating each with the single-point functions.  The
two are compared bit for bit on directions taken from real iterations of
the bundled families and of the analytic toys, across backtrack budgets
that end inside and at the edges of chunks, and on FixedRank rays that
drop rank inside a chunk.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

import manisqp as m
from manisqp import solver

from util import bundled_problems, curved_toy, euclidean_toy, random_tangent, sphere_tilt

BUDGETS = (0, 1, 2, 3, 6, 7, 200)


def sequential_search(prob, x, direction, quad_form, rho, cfg):
    """(alpha, backtracks, point, merit_base, merit_next, merit_reject)."""
    base = m.merit(prob, x, rho)
    reject = None
    for r in range(cfg.max_backtracks + 1):
        t = cfg.beta**r
        x_trial = m.retract(x, direction.scaled(t))
        m_trial = m.merit(prob, x_trial, rho)
        if base - m_trial >= cfg.gamma * t * quad_form:
            return t, r, x_trial, base, m_trial, reject
        reject = m_trial
    raise m.StallError(f"no acceptable step within {cfg.max_backtracks} backtracks")


def assert_matches_definition(prob, x, direction, quad_form, rho, cfg):
    """Compare one search with the definition; returns the result or None when both raise."""
    try:
        alpha, r, point, base, m_next, reject = sequential_search(prob, x, direction, quad_form, rho, cfg)
    except (m.StallError, m.RankDropError) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            m.line_search(prob, x, direction, quad_form, rho, cfg)
        return None
    res = m.line_search(prob, x, direction, quad_form, rho, cfg)
    assert (res.alpha, res.backtracks, res.merit_base, res.merit_next) == (alpha, r, base, m_next)
    assert res.merit_reject == reject
    assert type(res.alpha) is float and type(res.merit_next) is float
    assert np.array_equal(res.x_next.ambient, point.ambient)
    if point.factors is not None:
        for got, want in zip(res.x_next.factors, point.factors):
            assert np.array_equal(got, want)
    assert r + 1 <= res.merit_evals <= 2 * r + 1
    return res


def recorded_searches(monkeypatch, prob, x0, cfg):
    """The arguments of every line search of a solve."""
    calls = []
    search = solver.line_search

    def spy(*args):
        calls.append(args)
        return search(*args)

    with monkeypatch.context() as mp:
        mp.setattr(solver, "line_search", spy)
        m.solve(prob, x0, cfg=cfg)
    assert calls
    return calls


def check_all_budgets(calls):
    backtracks = []
    for prob, x, direction, quad_form, rho, cfg in calls:
        for budget in BUDGETS:
            res = assert_matches_definition(prob, x, direction, quad_form, rho, replace(cfg, max_backtracks=budget))
            if res is not None and budget == cfg.max_backtracks:
                backtracks.append(res.backtracks)
    return backtracks


def test_matches_definition_on_cut_iterations(monkeypatch):
    inst = m.gen_balanced_cut(50, 2, 0.01, seed=5)
    prob = m.cut_problem(inst)
    cfg = m.SolverConfig(delta=1e-4, qp_tol=1e-8, residual_tol=1e-8, max_iter=12, seed=5)
    backtracks = check_all_budgets(recorded_searches(monkeypatch, prob, m.random_cut_start(inst), cfg))
    # the directions exercise full steps and searches that run past several chunks
    assert min(backtracks) == 0 and max(backtracks) >= 16


def test_matches_definition_on_completion_iterations(monkeypatch):
    inst = m.gen_completion(4, 8, 2, seed=3)
    prob = m.completion_problem(inst)
    cfg = m.SolverConfig(max_iter=15, seed=3)
    calls = recorded_searches(monkeypatch, prob, m.feasible_start(inst), cfg)
    assert all(x.factors is not None for _, x, *_ in calls)
    check_all_budgets(calls)


@pytest.mark.parametrize("make", [euclidean_toy, lambda: sphere_tilt()[0], lambda: curved_toy()[0]])
def test_matches_definition_on_toys(monkeypatch, make):
    # the toy objectives are SmoothFunctions, evaluated per point by ConstraintBlock.of
    prob = make()
    x0 = m.random_point(prob.manifold, 4)
    cfg = m.SolverConfig(residual_tol=1e-10, max_iter=20)
    check_all_budgets(recorded_searches(monkeypatch, prob, x0, cfg))


def test_merit_evals_for_hand_derived_search():
    # f(x) = x^2 from x = 1 along d = -1 accepts first at r = 16 (see
    # test_line_search_backtrack_count_hand_derived), which lies in the
    # chunk of r = 15..30: 31 merits are computed
    man = m.Euclidean(1)
    obj = m.SmoothFunction(
        value=lambda x: float(x[0] ** 2),
        gradient=lambda x: 2.0 * x,
        hess_vec=lambda x, v: 2.0 * v,
    )
    prob = m.Problem(man, obj)
    x = man.point(np.array([1.0]))
    d = m.TangentVector(x, np.array([-1.0]))
    cfg = m.SolverConfig(gamma=0.9, beta=0.9)
    res = assert_matches_definition(prob, x, d, 2.0, 1.0, cfg)
    assert res.backtracks == 16
    assert res.merit_evals == 31
    # budgets that end just before, at and after r = 16 and the chunk edges
    for budget in (14, 15, 16, 29, 30, 31):
        assert_matches_definition(prob, x, d, 2.0, 1.0, replace(cfg, max_backtracks=budget))


def test_stacked_merit_matches_single_point_merit():
    # row sums of a stack must round like the sum over one point, whatever
    # the layout a block returns its values in
    for name, prob, x in bundled_problems(seed=3):
        v = random_tangent(x, 7, scale=2.0)
        ys, kept, point = m.retract_ray(x, v, np.linspace(1.0, 0.05, 37))
        assert kept.all(), name
        stacked = m.merit_stack(prob, ys, 1.3)
        single = [m.merit(prob, point(i), 1.3) for i in range(len(ys))]
        assert stacked.tolist() == single, name


def drop_ray(drop_at, accept_from):
    """A FixedRank(4, 4, 2) ray that loses rank at step beta^drop_at.

    x = U diag(s1, s2) V' and d = U diag(0, -s2 / tau) V' with tau =
    beta^drop_at, so the trial at t has singular values s1 and
    s2 |1 - t / tau|.  With f = |X|^2 / 2 the Armijo test holds exactly
    for t <= 2 tau (1 - c), c = gamma Q tau / s2^2, and Q is chosen so
    that this bound lies in [beta^accept_from, beta^(accept_from - 1)).
    """
    cfg = m.SolverConfig()
    fr = m.FixedRank(4, 4, 2)
    x = m.random_point(fr, 31)
    u, sigma, v = x.factors
    tau = cfg.beta**drop_at
    t_max = cfg.beta ** (accept_from - 0.5)
    c = 1.0 - t_max / (2.0 * tau)
    quad_form = c * sigma[1] ** 2 / (cfg.gamma * tau)
    direction = m.TangentVector(x, u @ np.diag([0.0, -sigma[1] / tau]) @ v.T)
    obj = m.SmoothFunction(value=lambda a: 0.5 * float(np.sum(a * a)), gradient=lambda a: a, hess_vec=lambda a, w: w)
    return m.Problem(fr, obj), x, direction, quad_form, cfg


def test_rank_drop_before_the_accepted_step_raises():
    # chunk r = 1..2: the drop at r = 1 comes before the acceptable r = 2
    prob, x, d, quad, cfg = drop_ray(drop_at=1, accept_from=2)
    with pytest.raises(m.RankDropError, match="sigma_p/sigma_1"):
        sequential_search(prob, x, d, quad, 1.0, cfg)
    assert assert_matches_definition(prob, x, d, quad, 1.0, cfg) is None


def test_rank_drop_after_the_accepted_step_is_ignored():
    # chunk r = 1..2: r = 1 is accepted, the drop at r = 2 is never reached
    prob, x, d, quad, cfg = drop_ray(drop_at=2, accept_from=1)
    with pytest.raises(m.RankDropError):
        m.retract(x, d.scaled(cfg.beta**2))
    res = assert_matches_definition(prob, x, d, quad, 1.0, cfg)
    assert res.backtracks == 1
    assert res.merit_evals == 3
    assert prob.manifold.point_ok(res.x_next)


def test_records_carry_merit_evals_and_qp_iterations():
    inst = m.gen_completion(4, 8, 2, seed=3)
    prob = m.completion_problem(inst)
    _, trace = m.solve(prob, m.feasible_start(inst), cfg=m.SolverConfig(max_iter=10, seed=3))
    assert trace.records
    for rec in trace.records:
        assert rec.backtracks + 1 <= rec.merit_evals <= 2 * rec.backtracks + 1
        assert rec.qp_iterations >= 1  # inequality rows: active-set steps
