"""The chunked line search against its sequential definition.

``line_search`` evaluates its trial steps a chunk at a time, each chunk as
one stacked retraction and merit, with a first chunk sized by the previous
search's depth.  ``sequential_search`` below is the definition it must
reproduce: test r = 0, 1, 2, ... one candidate at a time, retracting and
evaluating each with the single-point functions.  The two are compared bit
for bit on directions taken from real iterations of the bundled families
and of the analytic toys, at depths that put the accepted step in the
first chunk or past it, across backtrack budgets that end inside and at
the edges of chunks, and on FixedRank rays that drop rank inside a chunk.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

import manisqp as m
from manisqp import solver

from util import bundled_problems, curved_toy, euclidean_toy, random_tangent, sphere_tilt

BUDGETS = (0, 1, 2, 3, 6, 7, 200)
DEPTHS = (0, 1, 2, 5, 16, 64, 200)


def expected_merit_evals(depth, r, budget):
    """End of the chunk that holds step r: the first chunk is r = 0..floor(1.25 depth)
    after a depth of 2 or more and r = 0 alone otherwise; each later chunk doubles, up to 128."""
    size = int(1.25 * depth) + 1 if depth >= 2 else 1
    stop = size
    while stop <= r:
        size = min(2 * size, 128)
        stop += size
    return min(stop, budget + 1)


def sequential_search(prob, x, direction, quad_form, rho, cfg):
    """(alpha, backtracks, point, merit_base, merit_next, merit_reject)."""
    base = m.merit(prob, x, rho)
    reject = None
    for r in range(cfg.max_backtracks + 1):
        t = cfg.beta**r
        x_trial = m.retract(x, m.TangentVector(x, t * direction))
        m_trial = m.merit(prob, x_trial, rho)
        if base - m_trial >= cfg.gamma * t * quad_form:
            return t, r, x_trial, base, m_trial, reject
        reject = m_trial
    raise m.StallError(f"no acceptable step within {cfg.max_backtracks} backtracks")


def assert_matches_definition(prob, x, direction, quad_form, rho, cfg, depths=DEPTHS, base=None):
    """Compare the search at each depth with the definition.

    Returns the results by depth, or None when the definition raises and so
    does the search at every depth.  ``base`` is passed on as the search's
    base merit.
    """
    try:
        alpha, r, point, merit_base, m_next, reject = sequential_search(prob, x, direction, quad_form, rho, cfg)
    except (m.StallError, m.RankDropError) as exc:
        for depth in depths:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                m.line_search(prob, x, direction, quad_form, rho, cfg, base=base, depth=depth)
        return None
    results = {}
    for depth in depths:
        res = m.line_search(prob, x, direction, quad_form, rho, cfg, base=base, depth=depth)
        assert (res.alpha, res.backtracks, res.merit_base, res.merit_next) == (alpha, r, merit_base, m_next)
        assert res.merit_reject == reject
        assert type(res.alpha) is float and type(res.merit_next) is float
        assert np.array_equal(res.x_next.ambient, point.ambient)
        if point.factors is not None:
            for got, want in zip(res.x_next.factors, point.factors):
                assert np.array_equal(got, want)
        assert res.merit_evals == expected_merit_evals(depth, r, cfg.max_backtracks)
        results[depth] = res
    return results


def recorded_searches(monkeypatch, prob, x0, cfg):
    """The arguments of every line search of a solve, as (args, kwargs)."""
    calls = []
    search = solver.line_search

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return search(*args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(solver, "line_search", spy)
        m.solve(prob, x0, cfg=cfg)
    assert calls
    return calls


def check_all_budgets(calls):
    """Each recorded search, with its carried base merit, at every depth and budget and with no keywords."""
    backtracks = []
    for (prob, x, direction, quad_form, rho, cfg), kwargs in calls:
        assert set(kwargs) == {"base", "depth"}
        for budget in BUDGETS:
            capped = replace(cfg, max_backtracks=budget)
            results = assert_matches_definition(prob, x, direction, quad_form, rho, capped, base=kwargs["base"])
            assert_matches_definition(prob, x, direction, quad_form, rho, capped, depths=(0,))
            if results is not None and budget == cfg.max_backtracks:
                backtracks.append(results[0].backtracks)
    return backtracks


def test_matches_definition_on_cut_iterations(monkeypatch):
    inst = m.gen_balanced_cut(50, 2, 0.01, seed=5)
    prob = m.cut_problem(inst)
    # the fixed floor (curvature_scale 0) gives early steps of norm ~1/delta
    cfg = m.SolverConfig(delta=1e-4, qp_tol=1e-8, residual_tol=1e-8, max_iter=12, seed=5, curvature_scale=0.0)
    backtracks = check_all_budgets(recorded_searches(monkeypatch, prob, m.random_cut_start(inst), cfg))
    # the directions exercise full steps and searches that run past several chunks
    assert min(backtracks) == 0 and max(backtracks) >= 16


def test_matches_definition_on_completion_iterations(monkeypatch):
    inst = m.gen_completion(4, 8, 2, seed=3)
    prob = m.completion_problem(inst)
    cfg = m.SolverConfig(max_iter=15, seed=3)
    calls = recorded_searches(monkeypatch, prob, m.feasible_start(inst), cfg)
    assert all(x.factors is not None for (_, x, *_), _ in calls)
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
    # test_line_search_backtrack_count_hand_derived).  From depth 0 or 1 the
    # chunks are r = 0, 1..2, 3..6, 7..14, 15..30: 31 merits are computed.
    # From depth 2 they are 0..2, 3..8, 9..20; from depth 5, 0..6, 7..20;
    # from depth 16, 0..20: 21 merits.  From depth 64 the first chunk is
    # 0..80, and from depth 200 it is 0..250, cut at the budget of 200.
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
    results = assert_matches_definition(prob, x, d, 2.0, 1.0, cfg)
    assert {depth: res.backtracks for depth, res in results.items()} == dict.fromkeys(DEPTHS, 16)
    evals = {depth: res.merit_evals for depth, res in results.items()}
    assert evals == {0: 31, 1: 31, 2: 21, 5: 21, 16: 21, 64: 81, 200: 201}
    # budgets that end just before, at and after r = 16 and the chunk edges
    for budget in (14, 15, 16, 29, 30, 31):
        assert_matches_definition(prob, x, d, 2.0, 1.0, replace(cfg, max_backtracks=budget))


def test_stacked_merit_matches_single_point_merit():
    # row sums of a stack must round like the sum over one point, whatever
    # the layout a block returns its values in
    for name, prob, x in bundled_problems(seed=3):
        v = random_tangent(x, 7, scale=2.0)
        ys, kept, point = x.manifold.retract_stack(x, np.multiply.outer(np.linspace(1.0, 0.05, 37), v.data))
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
    direction = u @ np.diag([0.0, -sigma[1] / tau]) @ v.T
    obj = m.SmoothFunction(value=lambda a: 0.5 * float(np.sum(a * a)), gradient=lambda a: a, hess_vec=lambda a, w: w)
    return m.Problem(fr, obj), x, direction, quad_form, cfg


def test_rank_drop_before_the_accepted_step_raises():
    # chunk r = 1..2: the drop at r = 1 comes before the acceptable r = 2
    prob, x, d, quad, cfg = drop_ray(drop_at=1, accept_from=2)
    with pytest.raises(m.RankDropError, match="sigma_p/sigma_1"):
        sequential_search(prob, x, d, quad, 1.0, cfg)
    assert assert_matches_definition(prob, x, d, quad, 1.0, cfg) is None


def test_rank_drop_after_the_accepted_step_is_ignored():
    # from depth 0 the chunk r = 1..2 holds the accepted r = 1 and the drop
    # at r = 2, which is never reached; from depth 2 both lie in the first
    # chunk, r = 0..2, and from depth 5 in the chunk r = 0..6
    prob, x, d, quad, cfg = drop_ray(drop_at=2, accept_from=1)
    with pytest.raises(m.RankDropError):
        m.retract(x, m.TangentVector(x, cfg.beta**2 * d))
    results = assert_matches_definition(prob, x, d, quad, 1.0, cfg, depths=(0, 2, 5))
    assert {depth: res.merit_evals for depth, res in results.items()} == {0: 3, 2: 3, 5: 7}
    for res in results.values():
        assert res.backtracks == 1
        assert prob.manifold.point_ok(res.x_next)


def test_records_carry_merit_evals_and_qp_iterations():
    inst = m.gen_completion(4, 8, 2, seed=3)
    prob = m.completion_problem(inst)
    cfg = m.SolverConfig(max_iter=10, seed=3)
    _, trace = m.solve(prob, m.feasible_start(inst), cfg=cfg)
    assert trace.records
    # each search's first chunk is sized by the previous one's backtracks
    depths = [0] + [rec.backtracks for rec in trace.records[:-1]]
    assert max(depths) >= 2
    for depth, rec in zip(depths, trace.records):
        assert rec.merit_evals == expected_merit_evals(depth, rec.backtracks, cfg.max_backtracks)
        assert rec.qp_iterations >= 1  # inequality rows: active-set steps
