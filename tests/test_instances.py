"""Benchmark instance generators: counts, determinism, structural facts."""

import json
import tracemalloc

import numpy as np
import pytest

import manisqp as m
from manisqp.instances import _max_violation, instance_size
from manisqp.runner import trial_seed


def truth_point(inst):
    """The ground-truth matrix of a completion instance as a manifold point."""
    u, sv, vt = np.linalg.svd(inst.a, full_matrices=False)
    fr = inst.manifold
    return fr.from_factors(u[:, : inst.p], sv[: inst.p], vt[: inst.p].T)


def test_completion_counts_4x8():
    inst = m.gen_completion(4, 8, 2, seed=7)
    assert inst.a.shape == (4, 8)
    assert len(inst.observed) == 16  # ceil(32 / 2)
    assert len(inst.pinned) == 8  # ceil(16 / 2)
    assert len(inst.fit_set) == 8
    assert len(inst.unknown) == 16
    prob = m.completion_problem(inst)
    assert prob.m == 16
    assert prob.n == 8


def test_completion_problems_are_lean():
    # the constraints are index arrays, not one closure and one dense
    # gradient per entry; the instances are built outside the measurement
    insts = [m.gen_completion(4, 8, 2, seed=s) for s in range(200)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        probs = [m.completion_problem(inst) for inst in insts]
        per_problem = (tracemalloc.get_traced_memory()[0] - before) / len(probs)
    finally:
        tracemalloc.stop()
    assert per_problem < 8 * 1024, per_problem


def test_completion_counts_5x10():
    inst = m.gen_completion(5, 10, 2, seed=3)
    assert len(inst.observed) == 25
    assert len(inst.pinned) == 13
    assert len(inst.unknown) == 25
    assert len(inst.fit_set) == 12
    prob = m.completion_problem(inst)
    assert prob.m == 25
    assert prob.n == 13


def test_completion_index_sets_partition():
    inst = m.gen_completion(4, 8, 2, seed=5)
    observed = set(inst.observed)
    unknown = set(inst.unknown)
    pinned = set(inst.pinned)
    every = {(i, j) for i in range(4) for j in range(8)}
    assert observed | unknown == every
    assert observed & unknown == set()
    assert pinned <= observed
    assert set(inst.fit_set) == observed - pinned


def test_completion_ground_truth_properties():
    inst = m.gen_completion(4, 8, 2, seed=7)
    assert np.linalg.matrix_rank(inst.a) == 2
    assert np.all(inst.a >= 0.0)


def test_completion_generator_is_deterministic():
    a = m.gen_completion(5, 10, 2, seed=9)
    b = m.gen_completion(5, 10, 2, seed=9)
    c = m.gen_completion(5, 10, 2, seed=10)
    assert np.array_equal(a.a, b.a)
    assert a.observed == b.observed
    assert a.pinned == b.pinned
    assert not np.array_equal(a.a, c.a)


def test_completion_generator_validates_rank():
    with pytest.raises(ValueError):
        m.gen_completion(4, 8, 0, seed=1)
    with pytest.raises(ValueError):
        m.gen_completion(4, 8, 5, seed=1)


def test_completion_objective_zero_at_truth():
    inst = m.gen_completion(4, 8, 2, seed=7)
    prob = m.completion_problem(inst)
    x = truth_point(inst)
    assert abs(prob.objective.value(x.ambient)) < 1e-18
    # perturbing a fitted entry makes the residual strictly positive
    i, j = inst.fit_set[0]
    bumped = np.array(x.ambient)
    bumped[i, j] += 0.1
    assert prob.objective.value(bumped) > 1e-4


def test_completion_truth_is_feasible():
    inst = m.gen_completion(4, 8, 2, seed=7)
    prob = m.completion_problem(inst)
    x = truth_point(inst)
    g, h = m.constraint_values(prob, x)
    assert np.max(g) <= 1e-12  # -X_ij <= 0 holds since A >= 0
    assert np.max(np.abs(h)) < 1e-12


def test_cut_laplacian_structure():
    inst = m.gen_balanced_cut(50, 2, 0.1, seed=4)
    lap = inst.laplacian
    assert lap.shape == (50, 50)
    assert np.array_equal(lap, lap.T)
    assert np.max(np.abs(lap.sum(axis=1))) == 0.0
    off = lap - np.diag(np.diag(lap))
    assert set(np.unique(off)) <= {0.0, -1.0}
    assert np.min(np.linalg.eigvalsh(lap)) > -1e-10


def test_cut_problem_counts_and_gradient():
    inst = m.gen_balanced_cut(30, 2, 0.1, seed=4)
    prob = m.cut_problem(inst)
    assert prob.m == 0
    assert prob.n == 2
    rng = np.random.default_rng(17)
    for _ in range(20):
        x = inst.manifold.random_array(rng).ambient  # raw array for the callbacks
        g = prob.objective.gradient(x)
        assert np.allclose(g, -0.5 * (inst.laplacian @ x), atol=1e-14)
        v = rng.normal(size=x.shape)
        t = 1e-6
        fd = (prob.objective.value(x + t * v) - prob.objective.value(x - t * v)) / (2 * t)
        assert abs(fd - float(np.sum(g * v))) < 1e-5 * (1.0 + abs(fd))


def test_cut_column_sum_constraints():
    inst = m.gen_balanced_cut(20, 2, 0.1, seed=4)
    prob = m.cut_problem(inst)
    x = m.random_point(inst.manifold, 2)
    g, h = m.constraint_values(prob, x)
    assert g.size == 0
    assert np.allclose(h, x.ambient.sum(axis=0))
    # the constant Jacobian is one read-only array per shape
    jac = prob.eq.jacobian(x.ambient)
    assert np.array_equal(jac, np.tile(np.eye(2), (1, 20)))
    assert not jac.flags.writeable
    other = m.cut_problem(m.gen_balanced_cut(20, 2, 0.5, seed=5))
    assert other.eq.jacobian(m.random_point(inst.manifold, 3).ambient) is jac


def test_random_cut_start_on_manifold_and_deterministic():
    inst = m.gen_balanced_cut(30, 2, 0.1, seed=4)
    a = m.random_cut_start(inst)
    b = m.random_cut_start(inst)
    assert np.array_equal(a.ambient, b.ambient)
    assert inst.manifold.violation(a) < 1e-12


def test_feasible_start_meets_tolerance():
    inst = m.gen_completion(4, 8, 2, seed=7)
    prob = m.completion_problem(inst)
    x = m.feasible_start(inst, tol=1e-2)
    g, h = m.constraint_values(prob, x)
    vio = max(float(np.max(np.maximum(g, 0.0))), float(np.max(np.abs(h))))
    assert vio <= 1e-2
    assert inst.manifold.violation(x) < 1e-10


def test_feasible_start_deterministic_and_short_circuits():
    inst = m.gen_completion(4, 8, 2, seed=7)
    a = m.feasible_start(inst, tol=1e-2)
    b = m.feasible_start(inst, tol=1e-2)
    assert np.array_equal(a.ambient, b.ambient)
    # an already-feasible explicit start comes back untouched
    c = m.feasible_start(inst, tol=1e-2, x0=a)
    assert c is a


def test_feasible_start_validates_its_target_and_budget():
    inst = m.gen_completion(4, 8, 2, seed=7)
    for tol in (float("nan"), -1.0):
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            m.feasible_start(inst, tol=tol)
    for max_iter in (2.5, True):
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            m.feasible_start(inst, max_iter=max_iter)
    with pytest.raises(ValueError, match="max_iter must be nonnegative"):
        m.feasible_start(inst, max_iter=-1)
    # a zero target stays valid: the phase runs and fails on its budget
    with pytest.raises(RuntimeError, match="did not reach violation 0.0 in 0 iterations"):
        m.feasible_start(inst, tol=0.0, max_iter=0)


def test_feasible_start_names_the_attempt_cap():
    # every restart of this instance fails, and the 32nd ends the phase
    # after 34 of its 200 steps: the attempts, not the budget, ran out
    inst = m.gen_completion(6, 12, 2, trial_seed(0, 3))
    with pytest.raises(RuntimeError, match=r"did not reach violation 0.01 in 32 attempts \(34 steps\)$"):
        m.feasible_start(inst)


def test_feasible_start_rejects_a_nonfinite_start():
    inst = m.gen_completion(4, 8, 2, seed=3)
    u, sigma, v = m.feasible_start(inst).factors
    u = u.copy()
    u[0, 0] = np.nan
    x0 = inst.manifold.from_factors(u, sigma, v)
    assert np.isnan(_max_violation(*m.constraint_values(m.completion_problem(inst), x0)))
    with pytest.raises(ValueError, match="x0 has nonfinite entries"):
        m.feasible_start(inst, x0=x0)


def test_instance_dict_roundtrip_completion():
    inst = m.gen_completion(4, 8, 2, seed=7)
    d = json.loads(json.dumps(m.instance_to_dict(inst)))
    back = m.instance_from_dict(d)
    assert np.array_equal(back.a, inst.a)
    assert back.observed == inst.observed
    assert back.pinned == inst.pinned
    assert (back.q, back.s, back.p, back.seed) == (4, 8, 2, 7)


def test_instance_dict_roundtrip_cut():
    inst = m.gen_balanced_cut(30, 2, 0.1, seed=4)
    d = json.loads(json.dumps(m.instance_to_dict(inst)))
    back = m.instance_from_dict(d)
    assert np.array_equal(back.laplacian, inst.laplacian)
    assert (back.q, back.s, back.density, back.seed) == (30, 2, 0.1, 4)


def _edit(d, key, value):
    return {**d, key: value}


def _completion_dict():
    return json.loads(json.dumps(m.instance_to_dict(m.gen_completion(4, 8, 2, seed=3))))


def _cut_dict():
    return json.loads(json.dumps(m.instance_to_dict(m.gen_balanced_cut(6, 2, 0.5, seed=1))))


def _moved_entry(d):
    # (-1, 0) would index entry (3, 0), which is unobserved
    observed = [ij if ij != [0, 2] else [-1, 0] for ij in d["observed"]]
    return _edit(d, "observed", observed)


def _asymmetric(d):
    lap = [list(row) for row in d["laplacian"]]
    lap[0][1] += 1.0
    return _edit(d, "laplacian", lap)


@pytest.mark.parametrize(
    "make, match",
    [
        (lambda: _edit(_completion_dict(), "p", 7), "need 1 <= p <= min"),
        (lambda: _edit(_cut_dict(), "density", 1.5), "density must lie in"),
        (lambda: {k: v for k, v in _completion_dict().items() if k != "q"}, "misses key 'q'"),
        (lambda: _edit(_completion_dict(), "q", "4"), "q must be an integer"),
        (lambda: _edit(_cut_dict(), "density", "0.5"), "mistyped"),
        (lambda: _edit(_completion_dict(), "a", [row[:7] for row in _completion_dict()["a"]]), "a must be a finite 4 x 8 matrix"),
        (lambda: _edit(_cut_dict(), "laplacian", _cut_dict()["laplacian"][:5]), "laplacian must be a finite 6 x 6 matrix"),
        (lambda: _edit(_completion_dict(), "a", [[float("nan")] * 8] * 4), "a must be a finite 4 x 8 matrix"),
        (lambda: _asymmetric(_cut_dict()), "laplacian must be symmetric"),
        (lambda: _moved_entry(_completion_dict()), r"observed entry \(-1, 0\) lies outside a 4 x 8 matrix"),
        (lambda: _edit(_completion_dict(), "observed", [[0, 8]]), r"observed entry \(0, 8\) lies outside a 4 x 8"),
        (lambda: _edit(_completion_dict(), "observed", _completion_dict()["observed"] * 2), "observed repeats"),
        (lambda: _edit(_completion_dict(), "pinned", [[0, 0]]), r"pinned entry \(0, 0\) lies outside the observed entries"),
    ],
    ids=[
        "rank-above-shape",
        "density-above-one",
        "missing-key",
        "mistyped-size",
        "mistyped-density",
        "a-shape",
        "laplacian-shape",
        "nonfinite",
        "asymmetric-laplacian",
        "negative-index",
        "index-past-the-end",
        "duplicate-entry",
        "pinned-not-observed",
    ],
)
def test_instance_dict_rejects_invalid_input(make, match):
    with pytest.raises(ValueError, match=match):
        m.instance_from_dict(make())


def test_instance_dict_rejects_unknown_kind():
    with pytest.raises(ValueError):
        m.instance_from_dict({"problem": "knapsack"})
    with pytest.raises(TypeError):
        m.instance_to_dict(object())


def test_gen_instance_dispatches_by_family():
    a = m.gen_instance("completion", 4, 8, p=2, seed=7)
    b = m.gen_completion(4, 8, 2, seed=7)
    assert np.array_equal(a.a, b.a) and a.observed == b.observed and a.pinned == b.pinned
    c = m.gen_instance("balanced_cut", 30, 2, density=0.1, seed=4)
    assert np.array_equal(c.laplacian, m.gen_balanced_cut(30, 2, 0.1, seed=4).laplacian)
    with pytest.raises(ValueError, match="completion needs p"):
        m.gen_instance("completion", 4, 8, density=0.1)
    with pytest.raises(ValueError, match="balanced_cut needs density"):
        m.gen_instance("balanced_cut", 30, 2, p=2)
    with pytest.raises(ValueError):
        m.gen_instance("knapsack", 4, 8, p=2)
    # the other family's size argument is refused, not ignored
    for args, kwargs, message in (
        (("completion", 4, 8), dict(p=2, density=0.1), "completion takes no density"),
        (("balanced_cut", 30, 2), dict(density=0.1, p=3), "balanced_cut takes no p"),
    ):
        with pytest.raises(ValueError, match=message):
            instance_size(*args, **kwargs)
        with pytest.raises(ValueError, match=message):
            m.gen_instance(*args, **kwargs)
    # sizes are counts: a float or a bool is refused before any array is built
    bad_sizes = (
        (("balanced_cut", 5.5, 2), dict(density=0.5), "q must be an integer"),
        (("balanced_cut", 5, True), dict(density=0.5), "s must be an integer"),
        (("completion", 4, 8), dict(p=2.5), "p must be an integer"),
    )
    for args, kwargs, message in bad_sizes:
        with pytest.raises(ValueError, match=message):
            instance_size(*args, **kwargs)
        with pytest.raises(ValueError, match=message):
            m.gen_instance(*args, **kwargs)
    assert instance_size("completion", np.int64(4), 8, p=np.int64(2)) == 2


def test_problem_and_start_per_family():
    cut = m.gen_balanced_cut(30, 2, 0.1, seed=4)
    prob, x0 = m.problem_and_start(cut)
    assert prob.name == m.cut_problem(cut).name
    assert np.array_equal(x0.ambient, m.random_cut_start(cut).ambient)
    comp = m.gen_completion(4, 8, 2, seed=7)
    prob, x0 = m.problem_and_start(comp, start_tol=5e-2)
    assert prob.name == m.completion_problem(comp).name
    assert np.array_equal(x0.ambient, m.feasible_start(comp, tol=5e-2).ambient)


def test_cut_generator_validates_density():
    with pytest.raises(ValueError):
        m.gen_balanced_cut(10, 2, -0.1, seed=1)
    with pytest.raises(ValueError):
        m.gen_balanced_cut(10, 2, 1.5, seed=1)
