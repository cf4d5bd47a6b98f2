"""Benchmark problem families: low-rank matrix completion and balanced cut.

Completion: a rank-p matrix A >= 0 is sampled, half of its entries are
declared observed, half of the observed ones are pinned to exact equality,
and the remaining unobserved entries carry nonnegativity constraints.  The
variable lives on the rank-p manifold:

    min 0.5 * || P_fit(X - A) ||_F^2
    s.t. X_ij >= 0 on the unobserved set, X_ij = A_ij on the pinned set.

Balanced cut: given the Laplacian L of a random graph, columns of X on the
oblique manifold relax the indicator vectors of a vertex partition:

    min -1/4 tr(X^T L X)   s.t.  X^T e = 0,   diag(X X^T) = e.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .manifolds import FixedRank, ManifoldPoint, Oblique, RankDropError, _readonly
from .problem import ConstraintBlock, Multipliers, Problem, constraint_values
from .solver import IterateState, QpInfeasibleError, SolverConfig, StallError, require_integers, step

__all__ = [
    "FAMILIES",
    "START_TOL",
    "CompletionInstance",
    "CutInstance",
    "instance_size",
    "gen_instance",
    "problem_and_start",
    "gen_completion",
    "gen_balanced_cut",
    "completion_problem",
    "cut_problem",
    "feasible_start",
    "random_cut_start",
    "instance_to_dict",
    "instance_from_dict",
]

_SALT_INSTANCE = 0x1A
_SALT_START = 0x2B
_SALT_FEAS = 0x3C

FAMILIES = ("completion", "balanced_cut")

# Largest constraint violation a completion start may have.
START_TOL = 1e-2


def _instance_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed), _SALT_INSTANCE)))


@dataclass(frozen=True, eq=False, slots=True)
class CompletionInstance:
    q: int
    s: int
    p: int
    seed: int
    a: np.ndarray
    observed: tuple[tuple[int, int], ...]
    pinned: tuple[tuple[int, int], ...]

    @property
    def manifold(self) -> FixedRank:
        # one per shape: every start point of an instance refers to it
        return _fixed_rank(self.q, self.s, self.p)

    @property
    def fit_set(self) -> tuple[tuple[int, int], ...]:
        pinned = set(self.pinned)
        return tuple(ij for ij in self.observed if ij not in pinned)

    @property
    def unknown(self) -> tuple[tuple[int, int], ...]:
        observed = set(self.observed)
        return tuple(
            (i, j) for i in range(self.q) for j in range(self.s) if (i, j) not in observed
        )


_fixed_rank = functools.lru_cache(maxsize=32)(FixedRank)


@functools.lru_cache(maxsize=32)
def _entry_table(q: int, s: int) -> tuple[tuple[int, int], ...]:
    """The (i, j) of every entry of a q x s matrix in row-major order, one
    table per shape, so that the instances of a shape share their tuples."""
    return tuple((f // s, f % s) for f in range(q * s))


def gen_completion(q: int, s: int, p: int, seed: int) -> CompletionInstance:
    """Sample a completion instance; deterministic in (q, s, p, seed).

    A is a product of two uniform[0, 1) factors, resampled until its rank
    is exactly p.  |observed| = ceil(qs / 2) and |pinned| = ceil(|observed| / 2).
    """
    instance_size("completion", q, s, p=p)
    rng = _instance_rng(seed)
    while True:
        a = rng.random((q, p)) @ rng.random((p, s))
        if np.linalg.matrix_rank(a) == p:
            break
    total = q * s
    n_obs = math.ceil(total / 2)
    flat = rng.permutation(total)[:n_obs]
    table = _entry_table(q, s)
    observed = tuple(table[f] for f in sorted(flat.tolist()))
    n_pin = math.ceil(n_obs / 2)
    pick = rng.permutation(n_obs)[:n_pin]
    pinned = tuple(sorted(observed[int(i)] for i in pick))
    return CompletionInstance(q=q, s=s, p=p, seed=seed, a=_readonly(a), observed=observed, pinned=pinned)


class _Entries:
    """The affine constraints sign * X_ij + offset on a list of entries.

    Entries are flat indices: values (at every point of a stack) are a
    gather, and the Jacobian, built per call, holds sign at entry k of row
    k.  The block's callbacks are bound methods of one slotted object,
    which holds a fraction of what a closure per callback would.
    """

    __slots__ = ("flat", "sign", "offset")

    def __init__(self, shape: tuple[int, int], entries, sign: float, offset):
        self.flat = np.array([i * shape[1] + j for i, j in entries], dtype=np.intp)
        self.sign = sign
        self.offset = offset

    def values(self, xs):
        return self.sign * xs.reshape(len(xs), -1)[:, self.flat] + self.offset

    def jacobian(self, x):
        k = self.flat.size
        jac = np.zeros(k * x.size)
        jac[self.flat + x.size * np.arange(k)] = self.sign
        return jac.reshape(k, x.size)

    def block(self) -> ConstraintBlock:
        return ConstraintBlock(size=self.flat.size, values=self.values, jacobian=self.jacobian)


class _Fit:
    """The objective block of 0.5 * ||mask * (X - a)||_F^2, held like ``_Entries``."""

    __slots__ = ("mask", "a")

    def __init__(self, mask: np.ndarray, a: np.ndarray):
        self.mask = mask
        self.a = a

    def values(self, xs):
        return (0.5 * (self.mask * (xs - self.a) ** 2).reshape(len(xs), -1).sum(axis=1))[:, None]

    def jacobian(self, x):
        return (self.mask * (x - self.a)).reshape(1, -1)

    def weighted_hessian(self, x, w, vs):
        return w[0] * (self.mask * vs)

    def block(self) -> ConstraintBlock:
        return ConstraintBlock(size=1, values=self.values, jacobian=self.jacobian, weighted_hessian=self.weighted_hessian)


def completion_problem(inst: CompletionInstance) -> Problem:
    mask = np.zeros((inst.q, inst.s))
    for i, j in inst.fit_set:
        mask[i, j] = 1.0
    a = inst.a
    shape, pinned = (inst.q, inst.s), inst.pinned
    return Problem(
        manifold=inst.manifold,
        objective=_Fit(_readonly(mask), a).block(),
        inequalities=_Entries(shape, inst.unknown, -1.0, 0.0).block(),
        equalities=_Entries(shape, pinned, 1.0, np.array([-float(a[i, j]) for i, j in pinned])).block(),
        name=f"completion-q{inst.q}-s{inst.s}-p{inst.p}-seed{inst.seed}",
    )


@dataclass(frozen=True, eq=False)
class CutInstance:
    q: int
    s: int
    density: float
    seed: int
    laplacian: np.ndarray

    @property
    def manifold(self) -> Oblique:
        return Oblique(self.q, self.s)


def gen_balanced_cut(q: int, s: int, density: float, seed: int) -> CutInstance:
    """Laplacian of a random graph with independent edge probability `density`."""
    instance_size("balanced_cut", q, s, density=density)
    rng = _instance_rng(seed)
    w = np.zeros((q, q))
    upper = np.triu(rng.random((q, q)) < density, k=1)
    w[upper] = 1.0
    w = w + w.T
    lap = np.diag(w.sum(axis=1)) - w
    return CutInstance(q=q, s=s, density=density, seed=seed, laplacian=_readonly(lap))


@functools.lru_cache(maxsize=32)
def _column_sum_jacobian(q: int, s: int) -> np.ndarray:
    """The constant (s, qs) Jacobian of X^T e on q x s matrices, one read-only
    array per shape, so that a pool of problems shares it."""
    return _readonly(np.tile(np.eye(s), (1, q)))


def cut_problem(inst: CutInstance) -> Problem:
    lap = inst.laplacian
    q, s = inst.q, inst.s

    objective = ConstraintBlock(
        size=1,
        # a row sum of each flattened product adds in the order np.sum does
        values=lambda xs: (-0.25 * (xs * (lap @ xs)).reshape(len(xs), -1).sum(axis=1))[:, None],
        jacobian=lambda x: (-0.5 * (lap @ x)).reshape(1, -1),
        weighted_hessian=lambda x, w, vs: w[0] * (-0.5 * (lap @ vs)),
    )

    jac = _column_sum_jacobian(q, s)
    column_sums = ConstraintBlock(
        size=s,
        # a contiguous row sum adds in the same order as a sum over one
        # strided column; xs.sum(axis=-2) rounds differently
        values=lambda xs: np.ascontiguousarray(np.swapaxes(xs, -1, -2)).sum(axis=-1),
        jacobian=lambda x: jac,
    )
    return Problem(
        manifold=inst.manifold,
        objective=objective,
        equalities=column_sums,
        name=f"balanced-cut-q{q}-s{s}-d{inst.density}-seed{inst.seed}",
    )


def random_cut_start(inst: CutInstance) -> ManifoldPoint:
    rng = np.random.default_rng(np.random.SeedSequence((int(inst.seed), _SALT_START)))
    return inst.manifold.random_array(rng)


def instance_to_dict(inst) -> dict:
    """JSON-ready dict with dense matrices as nested lists, index sets explicit."""
    if isinstance(inst, CompletionInstance):
        return {
            "problem": "completion",
            "q": inst.q,
            "s": inst.s,
            "p": inst.p,
            "seed": inst.seed,
            "a": inst.a.tolist(),
            "observed": [list(ij) for ij in inst.observed],
            "pinned": [list(ij) for ij in inst.pinned],
        }
    if isinstance(inst, CutInstance):
        return {
            "problem": "balanced_cut",
            "q": inst.q,
            "s": inst.s,
            "density": inst.density,
            "seed": inst.seed,
            "laplacian": inst.laplacian.tolist(),
        }
    raise TypeError(f"unknown instance type: {type(inst).__name__}")


def _dense(rows, shape: tuple[int, int], name: str) -> np.ndarray:
    a = np.array(rows, dtype=float)
    if a.shape != shape or not np.isfinite(a).all():
        raise ValueError(f"{name} must be a finite {shape[0]} x {shape[1]} matrix")
    return _readonly(a)


def _entries(pairs, allowed: set, name: str, where: str) -> tuple[tuple[int, int], ...]:
    out = tuple(sorted((i, j) for i, j in pairs))
    for i, j in out:
        require_integers(i=i, j=j)
        if (i, j) not in allowed:
            raise ValueError(f"{name} entry ({i}, {j}) lies outside {where}")
    if len(set(out)) < len(out):
        raise ValueError(f"{name} repeats an entry")
    return out


def instance_from_dict(d: dict):
    """The instance an ``instance_to_dict`` dict describes.

    Raises ValueError for an unknown kind, a missing or mistyped key, sizes
    that ``instance_size`` rejects, a matrix of another shape or with
    nonfinite entries, a Laplacian that is not symmetric, and an entry that
    lies outside the matrix, is listed twice, or is pinned but not observed.
    """
    kind = d.get("problem")
    if kind not in FAMILIES:
        raise ValueError(f"unknown problem kind: {kind!r}")
    try:
        q, s, seed = d["q"], d["s"], d["seed"]
        require_integers(seed=seed)
        if kind == "completion":
            p = instance_size(kind, q, s, p=d["p"])
            observed = _entries(d["observed"], set(_entry_table(q, s)), "observed", f"a {q} x {s} matrix")
            pinned = _entries(d["pinned"], set(observed), "pinned", "the observed entries")
            a = _dense(d["a"], (q, s), "a")
            return CompletionInstance(q=q, s=s, p=p, seed=seed, a=a, observed=observed, pinned=pinned)
        density = float(instance_size(kind, q, s, density=d["density"]))
        lap = _dense(d["laplacian"], (q, q), "laplacian")
        if not np.array_equal(lap, lap.T):
            raise ValueError("laplacian must be symmetric")
        return CutInstance(q=q, s=s, density=density, seed=seed, laplacian=lap)
    except KeyError as exc:
        raise ValueError(f"instance misses key {exc.args[0]!r}") from None
    except TypeError as exc:
        raise ValueError(f"instance has a mistyped entry: {exc}") from None


_ZERO = ConstraintBlock(size=1, values=lambda xs: np.zeros((len(xs), 1)), jacobian=lambda x: np.zeros((1, x.size)))


def _max_violation(g: np.ndarray, h: np.ndarray) -> float:
    return float(np.max(np.concatenate([g, np.abs(h)]), initial=0.0))  # NaN propagates


def feasible_start(
    inst: CompletionInstance,
    tol: float = START_TOL,
    x0: ManifoldPoint | None = None,
    max_iter: int = 200,
) -> ManifoldPoint:
    """A rank-p point whose constraint violation is at most tol.

    Runs the SQP iteration on the pure feasibility problem (zero objective,
    same constraints) from a random rank-p start, stopping as soon as the
    largest violation drops to tol.  It keeps the fixed eigenvalue floor
    (``curvature_scale`` 0), so its start points do not depend on the
    solve phase's cap on negative curvature.  A start that already meets tol, an
    explicit ``x0`` or the first random one, is returned untouched, even
    at ``max_iter`` = 0.  A random start can linearize the constraints
    infeasibly or stall; the phase then restarts from a fresh seeded point,
    with at most 32 attempts sharing the ``max_iter`` step budget.  Raises
    RuntimeError, naming the limit and the steps used, when the budget or
    the attempts run out before reaching tol, and ValueError for a tol
    that is NaN or negative, a ``max_iter`` that is not a nonnegative
    integer or an ``x0`` with nonfinite entries or on another manifold.
    """
    if not tol >= 0.0:  # written so that NaN is rejected too
        raise ValueError("tol must be nonnegative")
    require_integers(max_iter=max_iter)
    if max_iter < 0:
        raise ValueError("max_iter must be nonnegative")
    if x0 is not None and not np.isfinite(x0.ambient).all():
        raise ValueError("x0 has nonfinite entries")
    if x0 is not None and x0.manifold != inst.manifold:
        raise ValueError("x0 does not lie on the instance's manifold")
    man = inst.manifold
    prob = completion_problem(inst)
    feas = Problem(manifold=man, objective=_ZERO, inequalities=prob.ineq, equalities=prob.eq)

    budget = max_iter
    attempt = 0
    # the first start is tested before any of the budget is spent
    while attempt == 0 or (budget > 0 and attempt < 32):
        if x0 is None:
            rng = np.random.default_rng(
                np.random.SeedSequence((int(inst.seed), _SALT_FEAS, attempt))
            )
            x0 = man.random_array(rng)
        if _max_violation(*constraint_values(feas, x0)) <= tol:
            return x0
        seed_int = int(
            np.random.SeedSequence((int(inst.seed), _SALT_FEAS, attempt, 1)).generate_state(1)[0]
        )
        cfg = SolverConfig(residual_tol=0.0, seed=seed_int, curvature_scale=0.0)
        state = IterateState(x=x0, eta=Multipliers.zeros(feas.m, feas.n), rho=cfg.rho_init, k=0)
        try:
            while budget > 0:
                state, _ = step(feas, state, cfg)
                budget -= 1
                if _max_violation(state.evaluation.g, state.evaluation.h) <= tol:
                    return state.x
        except (QpInfeasibleError, RankDropError, StallError):
            pass  # restart from a fresh random point
        x0 = None
        attempt += 1
    # with budget left, every attempt ended on a step that raised
    steps = max_iter - budget + attempt
    limit = f"{max_iter} iterations" if budget == 0 else f"{attempt} attempts ({steps} steps)"
    raise RuntimeError(f"feasibility phase did not reach violation {tol} in {limit}")


def instance_size(problem: str, q: int, s: int, p: int | None = None, density: float | None = None):
    """The size argument of a family: p for completion, density for balanced cut.

    Raises ValueError for an unknown family, a missing size argument, the
    other family's size argument or a shape the family cannot have: q, s
    and (completion) p are integers, completion needs 1 <= p <= min(q, s),
    balanced cut needs q >= 1, s >= 2 and density in [0, 1].
    """
    if problem not in FAMILIES:
        raise ValueError(f"problem must be one of {FAMILIES}")
    if problem == "completion":
        (name, size), (other, extra) = ("p", p), ("density", density)
    else:
        (name, size), (other, extra) = ("density", density), ("p", p)
    if size is None:
        raise ValueError(f"{problem} needs {name}")
    if extra is not None:
        raise ValueError(f"{problem} takes no {other}")
    require_integers(q=q, s=s, **({"p": p} if problem == "completion" else {}))
    if problem == "completion":
        if not 1 <= p <= min(q, s):
            raise ValueError("need 1 <= p <= min(q, s)")
    elif q < 1:
        raise ValueError("need q >= 1")
    elif s < 2:
        raise ValueError("need s >= 2")
    elif not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    return size


def gen_instance(problem: str, q: int, s: int, p: int | None = None, density: float | None = None, seed: int = 0):
    """Generate an instance of the named family; see ``instance_size`` for the errors."""
    size = instance_size(problem, q, s, p, density)
    gen = gen_completion if problem == "completion" else gen_balanced_cut
    return gen(q, s, size, seed)


def problem_and_start(inst, start_tol: float = START_TOL) -> tuple[Problem, ManifoldPoint]:
    """The Problem of an instance and the point a solve starts from.

    Completion starts come from ``feasible_start`` at violation ``start_tol``
    and raise its RuntimeError; cut starts are random.
    """
    if isinstance(inst, CompletionInstance):
        return completion_problem(inst), feasible_start(inst, tol=start_tol)
    return cut_problem(inst), random_cut_start(inst)
