"""Embedded Riemannian manifolds: points, tangent vectors, tangent bases.

Four manifolds are supported, all embedded in a Euclidean vector or matrix
space and carrying the metric induced by the ambient inner product:

* ``Euclidean(dim)``: flat space, used for reductions and toy problems.
* ``Oblique(q, s)``: q x s matrices whose rows are unit vectors in R^s,
  i.e. diag(X X^T) = e; dimension q (s - 1).
* ``Sphere(n)``: unit vectors in R^n, dimension n - 1; the one-row
  Oblique(1, n) with its point stored as a length-n vector.
* ``FixedRank(q, s, p)``: q x s matrices of rank exactly p, stored as a
  factored triple (U, sigma, V) with U, V column-orthonormal and sigma > 0.

Oblique, Sphere and FixedRank raise ValueError at construction unless every
size is an integer of at least 1 and, for FixedRank, p <= min(q, s).

Tangent vectors are stored in the ambient shape for every manifold,
including FixedRank.  That keeps inner products, the dense tangent basis
and basis coordinate arithmetic uniform across manifolds at the matrix
sizes this package targets.

Each manifold builds its own seeded orthonormal tangent basis
(``Manifold.tangent_basis``): Oblique and Sphere take, row by row, the
Householder completion of the row to an orthonormal basis of R^s, turned by
a random orthogonal factor per row; Euclidean and FixedRank QR-factor
projected Gaussian draws (``qr_basis``).  The basis is a read-only (dim, N)
array of the raveled basis vectors, N the ambient size: a tangent array v
has coordinates ``basis @ v.ravel()``, and coefficients c give the tangent
array ``(c @ basis).reshape(x.ambient.shape)``.  A ray of retractions is
one ``Manifold.retract_stack`` call.

Oblique and Sphere reduce along rows.  A row shorter than 8 entries is
summed by ``_row_sum`` as column slices added in numpy's own sequential
order, which gives ``np.sum``'s and ``np.linalg.norm``'s bits at a few
whole-array additions instead of one reduction call per row; longer rows,
which numpy sums pairwise, use ``np.sum``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Euclidean",
    "Sphere",
    "Oblique",
    "FixedRank",
    "ManifoldPoint",
    "TangentVector",
    "RankDropError",
    "inner",
    "project_tangent",
    "retract",
    "exp_map",
    "orthonormal_basis",
    "qr_basis",
    "random_point",
]

# A block of candidate tangent directions is redrawn when one of them keeps
# less than this norm after orthogonalization against the ones before it.
GRAM_SCHMIDT_REJECT = 1e-8

# Largest ``Manifold.violation`` of a point that ``point_ok`` accepts.
POINT_TOL = 1e-10

# Retraction onto FixedRank fails when the p-th singular value falls below
# this fraction of the largest one.
RANK_DROP_RATIO = 1e-12


class RankDropError(RuntimeError):
    """Retraction target left the rank-p stratum."""


# From this many terms on, numpy sums a contiguous axis pairwise in unrolled
# blocks, an order column slices do not reproduce; below it, numpy adds the
# terms one after the other, starting from +0.0.
_PAIRWISE_SUM_MIN = 8


def _row_sum(a: np.ndarray) -> np.ndarray:
    """``np.sum(a, axis=-1, keepdims=True)``, bit for bit.

    Short rows are added as column slices in numpy's own order, which costs
    a few whole-array additions instead of one reduction call per row.
    """
    s = a.shape[-1]
    if not 0 < s < _PAIRWISE_SUM_MIN:
        return np.sum(a, axis=-1, keepdims=True)
    out = 0.0 + a[..., 0:1]
    for j in range(1, s):
        out += a[..., j : j + 1]
    return out


def require_integers(**counts) -> None:
    """Raise ValueError naming the first value that is not an integer (a bool is not one)."""
    for name, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer")


def _require_sizes(**sizes) -> None:
    """Raise ValueError naming the first size that is not an integer of at least 1."""
    require_integers(**sizes)
    for name, value in sizes.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1")


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False, slots=True)
class ManifoldPoint:
    """A point on a manifold.

    ``ambient`` is always the dense embedding.  For FixedRank the factored
    representation is kept in ``factors`` as (U, sigma, V) and ``ambient``
    is the assembled product U diag(sigma) V^T.
    """

    manifold: "Manifold"
    ambient: np.ndarray
    factors: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


@dataclass(frozen=True, eq=False)
class TangentVector:
    """An ambient-shaped tangent vector anchored at a point."""

    point: ManifoldPoint
    data: np.ndarray

    def __post_init__(self):
        if np.shape(self.data) != self.point.ambient.shape:
            raise ValueError(
                f"tangent data of shape {np.shape(self.data)} at a point of shape {self.point.ambient.shape}"
            )

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def scaled(self, alpha: float) -> "TangentVector":
        return TangentVector(self.point, _readonly(alpha * self.data))

    def __add__(self, other: "TangentVector") -> "TangentVector":
        _check_anchor(self, other)
        return TangentVector(self.point, _readonly(self.data + other.data))


def _same_point(a: ManifoldPoint, b: ManifoldPoint) -> bool:
    if a is b:
        return True
    return a.manifold == b.manifold and np.array_equal(a.ambient, b.ambient)


def _check_anchor(u: TangentVector, v: TangentVector) -> None:
    if not _same_point(u.point, v.point):
        raise ValueError("tangent vectors are anchored at different points")


def inner(u: TangentVector, v: TangentVector) -> float:
    """Riemannian inner product (the ambient one, restricted)."""
    _check_anchor(u, v)
    return float(np.dot(u.data.ravel(), v.data.ravel()))


class Manifold:
    """Shared interface.  Subclasses fill in the array-level geometry.

    ``project_array`` and the direction ``z`` of ``weingarten`` may carry
    leading batch axes in front of the ambient shape: a stack of k arrays
    maps to the stack of the k results.  ``retract_stack`` takes a stack
    with one leading axis and is the only retraction formula; a single
    retraction is its stack of one.
    """

    dim: int
    ambient_shape: tuple[int, ...]
    supports_exp: bool = True

    def point(self, data: np.ndarray) -> ManifoldPoint:
        data = np.asarray(data, dtype=float)
        if data.shape != self.ambient_shape:
            raise ValueError(
                f"expected shape {self.ambient_shape}, got {data.shape}"
            )
        return ManifoldPoint(self, _readonly(data))

    # -- array-level geometry ------------------------------------------

    def project_array(self, x: ManifoldPoint, a: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def retract_stack(self, x: ManifoldPoint, a: np.ndarray):
        """Retractions at x of the tangent arrays stacked in a.

        Returns (ys, kept, point): the stack of retracted ambient arrays, a
        boolean array marking the candidates that stayed on the manifold,
        and a function that gives candidate i as a ManifoldPoint, raising
        RankDropError for a candidate that did not.
        """
        ys = self._retract_ambient(x.ambient + a)
        return ys, np.ones(len(ys), dtype=bool), lambda i: ManifoldPoint(self, _readonly(ys[i]))

    def _retract_ambient(self, z: np.ndarray) -> np.ndarray:
        """Metric projection of the stacked ambient arrays z onto the manifold."""
        raise NotImplementedError

    def retract_array(self, x: ManifoldPoint, a: np.ndarray) -> ManifoldPoint:
        _, _, point = self.retract_stack(x, np.asarray(a, dtype=float)[None])
        return point(0)

    def exp_array(self, x: ManifoldPoint, a: np.ndarray) -> ManifoldPoint:
        raise NotImplementedError(f"{type(self).__name__} has no exponential map")

    def tangent_basis(self, x: ManifoldPoint, seed) -> np.ndarray:
        """An orthonormal basis of T_x, deterministic for a fixed seed: the QR draw."""
        return qr_basis(x, seed)

    def weingarten(self, x: ManifoldPoint, z: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Curvature correction W_x(z, g) entering embedded Hessians.

        ``z`` is tangent at ``x`` and ``g`` an arbitrary ambient vector; only
        the normal component of ``g`` contributes.
        """
        raise NotImplementedError

    def random_array(self, rng: np.random.Generator) -> ManifoldPoint:
        raise NotImplementedError

    def violation(self, x: ManifoldPoint) -> float:
        """Defect of the point invariants, 0.0 on an exact representation."""
        raise NotImplementedError

    def point_ok(self, x: ManifoldPoint) -> bool:
        return bool(self.violation(x) <= POINT_TOL)  # NaN fails the test too


@dataclass(frozen=True)
class Euclidean(Manifold):
    """Flat space R^dim; every operation is the identity-like one."""

    ambient_dim: int

    @property
    def dim(self) -> int:
        return self.ambient_dim

    @property
    def ambient_shape(self) -> tuple[int, ...]:
        return (self.ambient_dim,)

    def project_array(self, x, a):
        return np.array(a, dtype=float)

    def _retract_ambient(self, z):
        return z

    def exp_array(self, x, a):
        return self.retract_array(x, a)

    def weingarten(self, x, z, g):
        return np.zeros_like(z)

    def random_array(self, rng):
        return ManifoldPoint(self, _readonly(rng.standard_normal(self.ambient_dim)))

    def violation(self, x):
        return 0.0


@dataclass(frozen=True)
class Oblique(Manifold):
    """Matrices in R^{q x s} with unit rows: diag(X X^T) = e.

    A product of q spheres S^{s-1}; all operations act row-wise, along the
    last axis.
    """

    q: int
    s: int

    def __post_init__(self):
        _require_sizes(q=self.q, s=self.s)

    @property
    def dim(self) -> int:
        return self.q * (self.s - 1)

    @property
    def ambient_shape(self) -> tuple[int, ...]:
        return (self.q, self.s)

    def project_array(self, x, a):
        a = np.asarray(a, dtype=float)
        return a - _row_sum(x.ambient * a) * x.ambient

    def _retract_ambient(self, z):
        # np.linalg.norm(z, axis=-1) is this square root of the row sums
        return z / np.sqrt(_row_sum(z * z))

    def exp_array(self, x, a):
        a = np.asarray(a, dtype=float)
        t = np.linalg.norm(a, axis=-1, keepdims=True)
        # rows with a zero tangent component stay put
        safe = np.where(t > 0.0, t, 1.0)
        z = np.cos(t) * x.ambient + np.sin(t) * (a / safe)
        z = np.where(t > 0.0, z, x.ambient)
        return ManifoldPoint(self, _readonly(z))

    def weingarten(self, x, z, g):
        return -_row_sum(x.ambient * g) * z

    def tangent_basis(self, x, seed):
        """Per-row Householder basis, each row's block turned by a seeded rotation.

        For row x_i the reflector H_i = I - 2 v v^T / (v^T v), with
        v = x_i + sign(x_i1) e_1, maps x_i to -sign(x_i1) e_1, so its columns
        2..s are s - 1 orthonormal vectors orthogonal to x_i.  They are
        tangent vectors nonzero in row i only.  Each row's block is multiplied
        by the Q factor (positive diagonal in R) of a Gaussian
        (s - 1) x (s - 1) draw, all q drawn as one array from ``seed``; for
        s = 2 that factor is the draw's sign.
        """
        q, s = self.q, self.s
        k = s - 1
        out = np.zeros((q, k, q, s))
        if k:
            v = x.ambient.reshape(q, s).copy()
            v[:, 0] += np.copysign(1.0, v[:, 0])
            # rows e_j - (2 / v^T v) v_j v of H_i, j = 2..s
            t = (-2.0 / _row_sum(v * v))[:, :, None] * v[:, 1:, None] * v[:, None, :]
            t[:, :, 1:] += np.eye(k)
            g = np.random.default_rng(seed).standard_normal((q, k, k))
            if k == 1:  # a 1 x 1 QR is Q = 1, R = g
                rot = np.where(g < 0.0, -1.0, 1.0)
            else:
                rot, r = np.linalg.qr(g)
                rot *= np.where(np.diagonal(r, axis1=1, axis2=2) < 0.0, -1.0, 1.0)[:, None, :]
            rows = np.arange(q)
            out[rows, :, rows, :] = rot @ t
        basis = out.reshape(q * k, q * s)  # a view: no copy of the dense basis
        basis.setflags(write=False)
        return basis

    def random_array(self, rng):
        z = rng.standard_normal(self.ambient_shape)
        z /= np.linalg.norm(z, axis=-1, keepdims=True)
        return ManifoldPoint(self, _readonly(z))

    def violation(self, x):
        row_sq = _row_sum(x.ambient * x.ambient)[..., 0]
        return float(np.linalg.norm(row_sq - 1.0))


class Sphere(Oblique):
    """Unit sphere in R^n with the induced metric: the one-row Oblique(1, n).

    Points and tangent vectors are length-n vectors; the row-wise formulas
    of Oblique act on them unchanged.
    """

    def __init__(self, ambient_dim: int):
        _require_sizes(ambient_dim=ambient_dim)
        super().__init__(1, ambient_dim)

    @property
    def ambient_shape(self) -> tuple[int, ...]:
        return (self.s,)


@dataclass(frozen=True)
class FixedRank(Manifold):
    """Matrices in R^{q x s} of rank exactly p, stored factored.

    Points carry (U, sigma, V) with U in St(q, p), V in St(s, p) and
    sigma > 0; the dense embedding U diag(sigma) V^T is kept alongside.
    Tangent vectors are dense q x s arrays in the tangent space

        T_X = {U M V^T + U_p V^T + U V_p^T : U^T U_p = 0, V^T V_p = 0}.

    The retraction is metric projection: truncated SVD of X + xi back to
    rank p.  There is no exponential map here.
    """

    q: int
    s: int
    p: int
    supports_exp = False

    def __post_init__(self):
        _require_sizes(q=self.q, s=self.s, p=self.p)
        if self.p > min(self.q, self.s):
            raise ValueError("need p <= min(q, s)")

    @property
    def dim(self) -> int:
        return self.p * (self.q + self.s - self.p)

    @property
    def ambient_shape(self) -> tuple[int, ...]:
        return (self.q, self.s)

    def from_factors(self, u: np.ndarray, sigma: np.ndarray, v: np.ndarray) -> ManifoldPoint:
        u = _readonly(u)
        sigma = _readonly(sigma)
        v = _readonly(v)
        if u.shape != (self.q, self.p) or v.shape != (self.s, self.p):
            raise ValueError("factor shapes do not match the manifold")
        if sigma.shape != (self.p,):
            raise ValueError("sigma must be a length-p vector")
        dense = (u * sigma) @ v.T
        return ManifoldPoint(self, _readonly(dense), factors=(u, sigma, v))

    def point(self, data):
        raise TypeError("FixedRank points are built from factors; use from_factors")

    def project_array(self, x, a):
        a = np.asarray(a, dtype=float)
        u, _, v = x.factors
        uta = u.T @ a
        av = a @ v
        return u @ uta + (av - u @ (uta @ v)) @ v.T

    def retract_stack(self, x, a):
        """One stacked SVD; a candidate whose p-th singular value is too small is not kept."""
        uu, ss, vvt = np.linalg.svd(x.ambient + a, full_matrices=False)
        p = self.p
        u, sigma, vt = uu[..., :p], ss[..., :p], vvt[..., :p, :]
        ys = (u * sigma[..., None, :]) @ vt
        kept = ~(ss[:, p - 1] <= RANK_DROP_RATIO * ss[:, 0])

        def point(i):
            if not kept[i]:
                raise RankDropError(
                    f"retraction target is numerically rank-deficient: "
                    f"sigma_p/sigma_1 = {ss[i, p - 1] / ss[i, 0]:.3e}"
                )
            # from_factors copies, so the point keeps no view of the stack
            return self.from_factors(u[i], sigma[i], vt[i].T)

        return ys, kept, point

    def weingarten(self, x, z, g):
        u, sigma, v = x.factors
        zv = z @ v
        up = zv - u @ (u.T @ zv)
        ztu = np.swapaxes(z, -1, -2) @ u
        vp = ztu - v @ (v.T @ ztu)
        gv = g @ (vp / sigma)
        term1 = (gv - u @ (u.T @ gv)) @ v.T
        gu = g.T @ (up / sigma)
        term2 = u @ np.swapaxes(gu - v @ (v.T @ gu), -1, -2)
        return term1 + term2

    def random_array(self, rng):
        u, _ = np.linalg.qr(rng.standard_normal((self.q, self.p)))
        v, _ = np.linalg.qr(rng.standard_normal((self.s, self.p)))
        sigma = np.sort(rng.uniform(0.5, 1.5, self.p))[::-1]
        return self.from_factors(u, sigma, v)

    def violation(self, x):
        u, sigma, v = x.factors
        if np.any(sigma <= 0.0):
            return float("inf")
        du = np.linalg.norm(u.T @ u - np.eye(self.p))
        dv = np.linalg.norm(v.T @ v - np.eye(self.p))
        return float(max(du, dv))


# -- free-function API ----------------------------------------------------


def project_tangent(x: ManifoldPoint, a: np.ndarray) -> TangentVector:
    """Orthogonal projection of an ambient array onto the tangent space."""
    a = np.asarray(a, dtype=float)
    if a.shape != x.manifold.ambient_shape:
        raise ValueError(
            f"expected shape {x.manifold.ambient_shape}, got {a.shape}"
        )
    return TangentVector(x, _readonly(x.manifold.project_array(x, a)))


def retract(x: ManifoldPoint, xi: TangentVector) -> ManifoldPoint:
    if not _same_point(xi.point, x):
        raise ValueError("tangent vector is not anchored at the given point")
    return x.manifold.retract_array(x, xi.data)


def exp_map(x: ManifoldPoint, xi: TangentVector) -> ManifoldPoint:
    if not _same_point(xi.point, x):
        raise ValueError("tangent vector is not anchored at the given point")
    return x.manifold.exp_array(x, xi.data)


def random_point(manifold: Manifold, seed) -> ManifoldPoint:
    rng = np.random.default_rng(seed)
    return manifold.random_array(rng)


def orthonormal_basis(x: ManifoldPoint, seed) -> np.ndarray:
    """A random orthonormal basis of T_x, deterministic for a fixed seed.

    The basis vectors are the rows of a read-only (dim, N) array, raveled.
    Built by the manifold (``Manifold.tangent_basis``): on Oblique and
    Sphere the per-row Householder basis, whose per-row rotation the seed
    picks; elsewhere the QR draw of ``qr_basis``.
    """
    return x.manifold.tangent_basis(x, seed)


def qr_basis(x: ManifoldPoint, seed) -> np.ndarray:
    """Draw a random orthonormal basis of T_x by QR.

    ``dim`` Gaussian ambient candidates are projected to the tangent space
    and QR-factored with a positive diagonal in R, which is Gram-Schmidt on
    the candidates in draw order.  If a candidate's norm after
    orthogonalization against the ones before it (|r_ii|) falls below
    ``GRAM_SCHMIDT_REJECT``, the whole block is redrawn.  Deterministic for a
    fixed seed.
    """
    man = x.manifold
    rng = np.random.default_rng(seed)
    for _ in range(50):
        draws = rng.standard_normal((man.dim, *man.ambient_shape))
        cands = man.project_array(x, draws).reshape(man.dim, x.ambient.size)
        q, r = np.linalg.qr(cands.T)
        diag = np.diag(r)
        if np.all(np.abs(diag) >= GRAM_SCHMIDT_REJECT):
            return _readonly((q * np.sign(diag)).T)
    raise RuntimeError("orthonormal basis generation failed to converge")
