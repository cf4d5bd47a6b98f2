"""Geometry unit tests: projections, retractions, exp maps, tangent bases.

The finite-difference Weingarten check is the load-bearing one: the
curvature formulas feed straight into the Lagrangian Hessian, and a sign or
scaling slip there still leaves every solver smoke test superficially
working (first-order methods hide it).  The oracle used here is the
derivative of the projection-operator field,

    W_x(v, n) = P_x( d/dt P_{c(t)}(n) |_{t=0} ),   c(t) = R_x(t v),

approximated by a forward difference, which shares no code with the
closed-form implementations under test.
"""

import re

import numpy as np
import pytest

import manisqp as m

from util import random_tangent


def all_manifolds():
    return [
        m.Euclidean(5),
        m.Sphere(4),
        m.Oblique(6, 3),
        m.FixedRank(5, 4, 2),
    ]


def test_random_points_satisfy_invariants():
    for man in all_manifolds():
        for seed in range(5):
            x = m.random_point(man, seed)
            assert man.violation(x) <= 1e-12
            assert man.point_ok(x)


def test_point_shape_validation():
    with pytest.raises(ValueError):
        m.Euclidean(3).point(np.zeros(4))
    with pytest.raises(ValueError):
        m.Sphere(3).point(np.zeros((3, 1)))
    with pytest.raises(TypeError):
        m.FixedRank(4, 3, 2).point(np.zeros((4, 3)))


def test_manifold_sizes_are_validated_at_construction():
    bad = (
        (lambda: m.Oblique(3, 0), "s must be at least 1"),
        (lambda: m.Oblique(0, 3), "q must be at least 1"),
        (lambda: m.Oblique(2.5, 2), "q must be an integer"),
        (lambda: m.Oblique(True, 2), "q must be an integer"),
        (lambda: m.Sphere(0), "ambient_dim must be at least 1"),
        (lambda: m.Sphere(3.0), "ambient_dim must be an integer"),
        (lambda: m.FixedRank(4, 8, 0), "p must be at least 1"),
        (lambda: m.FixedRank(2, 2, 3), "need p <= min(q, s)"),
        (lambda: m.FixedRank(4, 8.0, 2), "s must be an integer"),
    )
    for make, message in bad:
        with pytest.raises(ValueError, match=re.escape(message)):
            make()
    assert m.Oblique(3, 1).dim == 0
    assert m.FixedRank(np.int64(4), np.int64(8), np.int64(2)).dim == 20


def test_off_manifold_points_are_flagged():
    bad_sphere = m.Sphere(3).point(np.array([2.0, 0.0, 0.0]))
    assert m.Sphere(3).violation(bad_sphere) > 0.5
    assert not m.Sphere(3).point_ok(bad_sphere)

    rows = np.ones((4, 2))
    bad_oblique = m.Oblique(4, 2).point(rows)
    assert m.Oblique(4, 2).violation(bad_oblique) > 0.1


def test_projection_is_idempotent_and_self_adjoint():
    for man in all_manifolds():
        x = m.random_point(man, 11)
        rng = np.random.default_rng(12)
        for _ in range(10):
            a = rng.normal(size=man.ambient_shape)
            b = rng.normal(size=man.ambient_shape)
            pa = man.project_array(x, a)
            pb = man.project_array(x, b)
            ppa = man.project_array(x, pa)
            assert np.max(np.abs(ppa - pa)) < 1e-12
            lhs = np.dot(pa.ravel(), b.ravel())
            rhs = np.dot(a.ravel(), pb.ravel())
            assert abs(lhs - rhs) < 1e-10 * (1.0 + abs(lhs))


def test_projection_tangency_conditions():
    rng = np.random.default_rng(21)

    sph = m.Sphere(4)
    x = m.random_point(sph, 22)
    v = sph.project_array(x, rng.normal(size=4))
    assert abs(np.dot(x.ambient, v)) < 1e-13

    obl = m.Oblique(5, 3)
    y = m.random_point(obl, 23)
    w = obl.project_array(y, rng.normal(size=(5, 3)))
    row_dots = np.sum(y.ambient * w, axis=1)
    assert np.max(np.abs(row_dots)) < 1e-13

    # fixed rank: tangency is exactly invariance under the projector
    fr = m.FixedRank(6, 5, 2)
    z = m.random_point(fr, 24)
    t = fr.project_array(z, rng.normal(size=(6, 5)))
    assert np.max(np.abs(fr.project_array(z, t) - t)) < 1e-12


def test_fixed_rank_projection_matches_factor_formula():
    fr = m.FixedRank(6, 4, 2)
    x = m.random_point(fr, 31)
    u, _, v = x.factors
    rng = np.random.default_rng(32)
    z = rng.normal(size=(6, 4))
    pu = u @ u.T
    pv = v @ v.T
    expected = pu @ z + z @ pv - pu @ z @ pv
    assert np.max(np.abs(fr.project_array(x, z) - expected)) < 1e-12


def test_retraction_at_zero_is_identity():
    for man in all_manifolds():
        x = m.random_point(man, 41)
        zero = m.project_tangent(x, np.zeros(man.ambient_shape))
        y = m.retract(x, zero)
        assert np.max(np.abs(y.ambient - x.ambient)) < 1e-14


def test_retraction_first_order_rigidity():
    # || R_x(t v) - (x + t v) || must shrink like t^2
    for man in all_manifolds():
        x = m.random_point(man, 51)
        v = random_tangent(x, 52)
        errs = []
        for t in (1e-2, 1e-3, 1e-4):
            y = m.retract(x, v.scaled(t))
            errs.append(np.linalg.norm(y.ambient - (x.ambient + t * v.data)))
        if errs[0] < 1e-14:  # flat space: exact agreement
            assert all(e < 1e-14 for e in errs)
            continue
        assert errs[1] < errs[0] / 50.0
        assert errs[2] < errs[1] / 50.0


def test_retracted_points_stay_on_manifold():
    for man in all_manifolds():
        x = m.random_point(man, 61)
        for seed in range(3):
            v = random_tangent(x, 62 + seed, scale=2.0)
            y = m.retract(x, v)
            assert man.violation(y) <= 1e-12


def test_sphere_exp_follows_great_circles():
    sph = m.Sphere(4)
    x = m.random_point(sph, 71)
    v = random_tangent(x, 72)  # unit speed
    for t in (0.1, 0.7, 2.0):
        y = m.exp_map(x, v.scaled(t))
        assert abs(np.linalg.norm(y.ambient) - 1.0) < 1e-13
        assert abs(np.dot(x.ambient, y.ambient) - np.cos(t)) < 1e-12
        expected = np.cos(t) * x.ambient + np.sin(t) * v.data
        assert np.max(np.abs(y.ambient - expected)) < 1e-12


def test_oblique_exp_is_rowwise_great_circle():
    obl = m.Oblique(5, 3)
    x = m.random_point(obl, 81)
    v = random_tangent(x, 82, scale=1.7)
    y = m.exp_map(x, v)
    for i in range(5):
        xi = x.ambient[i]
        vi = v.data[i]
        speed = np.linalg.norm(vi)
        if speed < 1e-15:
            expected = xi
        else:
            expected = np.cos(speed) * xi + np.sin(speed) * vi / speed
        assert np.max(np.abs(y.ambient[i] - expected)) < 1e-12
    assert obl.violation(y) <= 1e-12


def test_exp_zero_is_identity_and_fixed_rank_has_none():
    for man in all_manifolds():
        x = m.random_point(man, 91)
        zero = m.project_tangent(x, np.zeros(man.ambient_shape))
        if man.supports_exp:
            y = m.exp_map(x, zero)
            assert np.max(np.abs(y.ambient - x.ambient)) < 1e-14
        else:
            with pytest.raises(NotImplementedError):
                m.exp_map(x, zero)
    assert m.FixedRank(3, 3, 1).supports_exp is False


def test_exp_agrees_with_retraction_to_second_order():
    for man in all_manifolds():
        if not man.supports_exp:
            continue
        x = m.random_point(man, 101)
        v = random_tangent(x, 102)
        errs = []
        for t in (1e-1, 1e-2):
            d = m.exp_map(x, v.scaled(t)).ambient - m.retract(x, v.scaled(t)).ambient
            errs.append(np.linalg.norm(d))
        # both curves are second-order, so the gap is O(t^3)
        assert errs[1] < errs[0] / 100.0 + 1e-15


def test_fixed_rank_retraction_rank_drop():
    fr = m.FixedRank(4, 4, 2)
    x = m.random_point(fr, 111)
    u, sigma, v_fac = x.factors
    # kill the trailing singular value while leaving the leading one alone:
    # the target U diag(sigma_1, 0) V' is exactly rank deficient
    drop = u @ np.diag([0.0, -sigma[1]]) @ v_fac.T
    v = m.project_tangent(x, drop)
    assert np.max(np.abs(v.data - drop)) < 1e-12  # U M V' is tangent already
    with pytest.raises(m.RankDropError):
        m.retract(x, v)


def test_weingarten_matches_projector_derivative():
    for man in all_manifolds():
        x = m.random_point(man, 121)
        rng = np.random.default_rng(122)
        for trial in range(4):
            v = random_tangent(x, 123 + trial)
            a = rng.normal(size=man.ambient_shape)
            normal = a - man.project_array(x, a)
            w = man.weingarten(x, v.data, normal)
            if isinstance(man, m.Euclidean):
                assert np.max(np.abs(w)) == 0.0
                continue
            t = 1e-6
            y = m.retract(x, v.scaled(t))
            fd = (man.project_array(y, normal) - man.project_array(x, normal)) / t
            fd_tan = man.project_array(x, fd)
            scale = 1.0 + np.max(np.abs(w))
            assert np.max(np.abs(w - fd_tan)) < 2e-4 * scale
            # the correction is itself a tangent vector
            assert np.max(np.abs(man.project_array(x, w) - w)) < 1e-10


def test_array_geometry_acts_on_stacks():
    # leading axes are a batch: a (k, *shape) stack maps slice by slice
    for man in all_manifolds():
        x = m.random_point(man, 151)
        rng = np.random.default_rng(152)
        stack = rng.normal(size=(3, *man.ambient_shape))
        g = rng.normal(size=man.ambient_shape)
        tangent = man.project_array(x, stack)
        w = man.weingarten(x, tangent, g)
        assert tangent.shape == w.shape == stack.shape
        for k in range(3):
            assert np.max(np.abs(tangent[k] - man.project_array(x, stack[k]))) < 1e-14
            assert np.max(np.abs(w[k] - man.weingarten(x, tangent[k], g))) < 1e-14


def test_sphere_is_the_one_row_oblique():
    # a Sphere(n) point is the one row of an Oblique(1, n) point, and every
    # formula gives that row's result bit for bit
    sph, obl = m.Sphere(5), m.Oblique(1, 5)
    assert (sph.dim, sph.ambient_shape) == (4, (5,))
    x, y = m.random_point(sph, 11), m.random_point(obl, 11)
    assert np.array_equal(x.ambient, y.ambient[0])
    rng = np.random.default_rng(12)
    a = rng.normal(size=(3, 5))
    ta = sph.project_array(x, a)
    assert np.array_equal(ta, obl.project_array(y, a[:, None])[:, 0])
    g = rng.normal(size=5)
    assert np.array_equal(sph.weingarten(x, ta, g), obl.weingarten(y, ta[:, None], g[None])[:, 0])
    ys, kept, point = sph.retract_stack(x, ta)
    yo, kept_o, _ = obl.retract_stack(y, ta[:, None])
    assert np.array_equal(ys, yo[:, 0]) and kept.all() and kept_o.all()
    assert point(1).ambient.shape == (5,)
    assert np.array_equal(sph.exp_array(x, ta[0]).ambient, obl.exp_array(y, ta[:1]).ambient[0])
    bad = sph.point(np.array([2.0, 0.0, 0.0, 0.0, 0.0]))
    assert sph.violation(bad) == obl.violation(obl.point(bad.ambient[None])) == 3.0


def test_sphere_weingarten_closed_form():
    sph = m.Sphere(5)
    x = m.random_point(sph, 131)
    v = random_tangent(x, 132)
    rng = np.random.default_rng(133)
    g = rng.normal(size=5)
    w = sph.weingarten(x, v.data, g)
    expected = -np.dot(x.ambient, g) * v.data
    assert np.max(np.abs(w - expected)) < 1e-13


def test_orthonormal_basis_properties():
    for man in all_manifolds():
        x = m.random_point(man, 141)
        basis = m.orthonormal_basis(x, 142)
        assert basis.shape == (man.dim, x.ambient.size)
        assert not basis.flags.writeable
        gram = basis @ basis.T
        assert np.max(np.abs(gram - np.eye(man.dim))) < 1e-12
        for row in basis:
            vec = row.reshape(man.ambient_shape)
            p = man.project_array(x, vec)
            assert np.max(np.abs(p - vec)) < 1e-12


def test_qr_basis_is_gram_schmidt_of_the_draws():
    # B C^T upper triangular with a positive diagonal holds exactly when the
    # rows of B are Gram-Schmidt of the candidate rows of C in draw order
    for man in all_manifolds():
        x = m.random_point(man, 191)
        for seed in (192, 193, 194):
            rng = np.random.default_rng(seed)
            cands = np.array(
                [man.project_array(x, rng.standard_normal(man.ambient_shape)).ravel() for _ in range(man.dim)]
            )
            r = m.qr_basis(x, seed) @ cands.T
            assert np.max(np.abs(np.tril(r, -1))) <= 1e-10
            assert np.all(np.diag(r) > 0.0)


def test_qr_basis_redraws_a_degenerate_block():
    # random_point draws x from the same seed, so the first candidate is x
    # itself, which projects to ~1e-16 and forces a redraw
    for man in (m.Sphere(6), m.Oblique(6, 3)):
        x = m.random_point(man, 1)
        basis = m.qr_basis(x, 1)
        gram = basis @ basis.T
        assert np.max(np.abs(gram - np.eye(man.dim))) < 1e-12
        for row in basis:
            vec = row.reshape(man.ambient_shape)
            assert np.max(np.abs(man.project_array(x, vec) - vec)) < 1e-12


def _householder_reference(x, seed):
    # per row: columns 2..s of I - 2 v v^T / (v^T v), v = x_i + sign(x_i1) e_1,
    # turned by the Q factor (positive diagonal in R) of that row's draw
    man = x.manifold
    q, s = man.q, man.s
    xs = x.ambient.reshape(q, s)
    draws = np.random.default_rng(seed).standard_normal((q, s - 1, s - 1))
    out = np.zeros((q, s - 1, q, s))
    for i in range(q):
        v = xs[i].copy()
        v[0] += 1.0 if v[0] >= 0.0 else -1.0
        h = np.eye(s) - 2.0 * np.outer(v, v) / (v @ v)
        rot, r = np.linalg.qr(draws[i])
        out[i, :, i, :] = (rot * np.sign(np.diag(r))) @ h[:, 1:].T
    return out.reshape(man.dim, q * s)


OBLIQUE_FAMILY = [m.Sphere(2), m.Sphere(3), m.Sphere(6), m.Oblique(7, 2), m.Oblique(5, 3), m.Oblique(4, 9)]


def test_oblique_basis_is_the_per_row_householder_completion():
    for man in OBLIQUE_FAMILY:
        for seed in (201, 202):
            x = m.random_point(man, seed)
            basis = m.orthonormal_basis(x, seed + 10)
            assert basis.shape == (man.dim, x.ambient.size)
            assert not basis.flags.writeable
            assert np.max(np.abs(basis - _householder_reference(x, seed + 10))) < 1e-14


def test_oblique_basis_is_orthonormal_tangent_and_row_local():
    for man in OBLIQUE_FAMILY:
        x = m.random_point(man, 211)
        basis = m.orthonormal_basis(x, 212)
        gram = basis @ basis.T
        assert np.max(np.abs(gram - np.eye(man.dim))) <= 1e-14
        for j, row in enumerate(basis):
            vec = row.reshape(man.ambient_shape)
            assert np.max(np.abs(man.project_array(x, vec) - vec)) <= 1e-14
            # vector j lives in row j // (s - 1) of the q x s point only
            support = np.flatnonzero(np.any(row.reshape(man.q, man.s) != 0.0, axis=1))
            assert support.tolist() == [j // (man.s - 1)]


def test_oblique_basis_handles_rows_on_the_axes():
    # rows +-e_1 and rows with a zero or negative zero first entry
    man = m.Oblique(5, 3)
    x = man.point([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-0.0, 0.0, -1.0], [0.0, 0.6, 0.8]])
    basis = m.orthonormal_basis(x, 221)
    assert np.max(np.abs(basis @ basis.T - np.eye(man.dim))) <= 1e-14
    tangent = np.stack([man.project_array(x, r.reshape(5, 3)).ravel() for r in basis])
    assert np.max(np.abs(tangent - basis)) <= 1e-14


def test_oblique_basis_is_seeded():
    x = m.random_point(m.Sphere(3), 21)
    b0 = m.orthonormal_basis(x, m.iteration_seed(7, 0))
    assert np.array_equal(b0, m.orthonormal_basis(x, m.iteration_seed(7, 0)))
    # the seed picks a rotation in O(2), not only signs: every iteration differs
    mats = [m.orthonormal_basis(x, m.iteration_seed(7, k)) for k in range(20)]
    assert all(not np.array_equal(a, b) for i, a in enumerate(mats) for b in mats[i + 1 :])
    y = m.random_point(m.Oblique(6, 2), 22)
    signs = {m.orthonormal_basis(y, seed).tobytes() for seed in range(12)}
    assert len(signs) > 1


def test_oblique_basis_of_a_zero_dimensional_tangent_space():
    man = m.Oblique(3, 1)
    x = m.random_point(man, 231)
    basis = m.orthonormal_basis(x, 232)
    assert basis.shape == (0, 3)
    assert (np.zeros(0) @ basis).reshape(x.ambient.shape).shape == (3, 1)


def test_qr_basis_is_kept_for_euclidean_and_fixed_rank():
    for man in (m.Euclidean(5), m.FixedRank(5, 4, 2)):
        x = m.random_point(man, 241)
        assert np.array_equal(m.orthonormal_basis(x, 242), m.qr_basis(x, 242))


def test_orthonormal_basis_determinism():
    x = m.random_point(m.Oblique(6, 3), 151)
    b1 = m.orthonormal_basis(x, 152)
    b2 = m.orthonormal_basis(x, 152)
    assert np.array_equal(b1, b2)
    b3 = m.orthonormal_basis(x, 153)
    assert not np.array_equal(b1, b3)


def test_basis_coordinates_are_isometric():
    for man in all_manifolds():
        x = m.random_point(man, 161)
        basis = m.orthonormal_basis(x, 162)
        for seed in range(3):
            v = random_tangent(x, 163 + seed, scale=1.0 + seed)
            q = basis @ v.data.ravel()
            assert abs(np.linalg.norm(q) - v.norm()) < 1e-12
            back = (q @ basis).reshape(x.ambient.shape)
            assert np.max(np.abs(back - v.data)) < 1e-12


def test_basis_from_coords_roundtrip():
    x = m.random_point(m.Sphere(6), 171)
    basis = m.orthonormal_basis(x, 172)
    rng = np.random.default_rng(173)
    coeffs = rng.normal(size=basis.shape[0])
    v = m.TangentVector(x, (coeffs @ basis).reshape(x.ambient.shape))
    assert np.max(np.abs(basis @ v.data.ravel() - coeffs)) < 1e-12
    with pytest.raises(ValueError):
        np.zeros(basis.shape[0] + 1) @ basis


def test_tangent_vector_arithmetic_and_anchoring():
    x = m.random_point(m.Sphere(4), 181)
    y = m.random_point(m.Sphere(4), 182)
    u = random_tangent(x, 183)
    v = random_tangent(x, 184)
    w = u + v
    assert np.max(np.abs(w.data - (u.data + v.data))) < 1e-15
    assert abs(u.scaled(2.5).norm() - 2.5 * u.norm()) < 1e-13
    assert abs(m.inner(u, v) - np.dot(u.data, v.data)) < 1e-15

    z = random_tangent(y, 185)
    with pytest.raises(ValueError):
        _ = u + z
    with pytest.raises(ValueError):
        m.inner(u, z)
    with pytest.raises(ValueError):
        m.retract(y, u)


def test_project_tangent_shape_check():
    x = m.random_point(m.Oblique(4, 2), 191)
    with pytest.raises(ValueError):
        m.project_tangent(x, np.zeros((2, 4)))



def _special_stacks(shape, rng):
    """Arrays of the given shape whose sums test signed zeros, inf, NaN, overflow and subnormals."""
    tiny = np.finfo(float).smallest_subnormal
    yield np.full(shape, -0.0)
    yield np.where(rng.random(shape) < 0.5, -0.0, 0.0)
    for special in (np.inf, -np.inf, np.nan, 1e308, -1e308):
        a = rng.normal(size=shape)
        a[..., rng.integers(shape[-1])] = special
        yield a
    yield np.full(shape, 1e308)
    yield np.where(rng.random(shape) < 0.5, np.inf, -np.inf)
    yield rng.integers(-3, 4, size=shape) * tiny
    yield rng.normal(size=shape) * 1e-300 * 1e-10


def test_row_sum_is_numpys_sum_bit_for_bit():
    # rows shorter than 8 are added as column slices in numpy's sequential
    # order from +0.0, so a row of -0.0 sums to +0.0; longer rows go to
    # np.sum itself.  1-D Sphere points and (k, q, s) stacks both occur.
    rng = np.random.default_rng(161)
    for s in range(1, 13):
        for shape in ((s,), (5, s), (4, 50, s)):
            wide = rng.normal(size=shape) * np.exp(rng.uniform(-30.0, 30.0, size=shape))
            for a in (wide, *_special_stacks(shape, rng)):
                with np.errstate(over="ignore", invalid="ignore"):
                    got = m.manifolds._row_sum(a)
                    want = np.sum(a, axis=-1, keepdims=True)
                assert got.shape == want.shape, (s, shape)
                assert got.tobytes() == want.tobytes(), (s, shape, a)


def test_oblique_formulas_match_the_numpy_reductions_bit_for_bit():
    # the reductions written out with np.sum and np.linalg.norm are the oracle
    def project(x, a):
        return a - np.sum(x * a, axis=-1, keepdims=True) * x

    def retract(x, a):
        z = x + a
        return z / np.linalg.norm(z, axis=-1, keepdims=True)

    def weingarten(x, z, g):
        return -np.sum(x * g, axis=-1, keepdims=True) * z

    def violation(x):
        return float(np.linalg.norm(np.sum(x * x, axis=-1) - 1.0))

    mans = [m.Oblique(5, s) for s in range(1, 10)] + [m.Sphere(n) for n in (2, 3, 7, 8, 12)]
    for i, man in enumerate(mans):
        rng = np.random.default_rng(170 + i)
        x = m.random_point(man, 171 + i)
        stack = rng.normal(size=(6, *man.ambient_shape))
        g = rng.normal(size=man.ambient_shape)
        tangent = man.project_array(x, stack)
        assert np.array_equal(tangent, project(x.ambient, stack)), man
        assert np.array_equal(man.project_array(x, stack[0]), project(x.ambient, stack[0])), man
        ts = np.array([1.0, 0.5, 1e-3, 1e3])
        ys, kept, _ = man.retract_stack(x, np.multiply.outer(ts, tangent[0]))
        assert kept.all()
        assert np.array_equal(ys, retract(x.ambient, np.multiply.outer(ts, tangent[0]))), man
        assert np.array_equal(man.weingarten(x, tangent, g), weingarten(x.ambient, tangent, g)), man
        off = man.point(x.ambient * rng.uniform(0.5, 1.5, size=man.ambient_shape))
        for pt in (x, off):
            assert man.violation(pt) == violation(pt.ambient), man
