"""Brute-force reference solver for small strictly convex QPs.

Solves min 1/2 d'Hd + c'd  s.t.  A_ineq d <= b_ineq, A_eq d = b_eq by
enumerating every subset of the inequalities as a candidate active set,
solving the resulting equality-constrained KKT system directly, and keeping
the best candidate that is primal feasible with nonnegative active-set
multipliers.  For strictly convex H this visits the (unique) optimum, so it
is a trustworthy oracle for anything the production solver returns.  Cost is
exponential in m; keep m small.

``reference_saddle`` is the equality route's saddle solve as it reads with
scipy's ``cho_factor``/``cho_solve``, against which the LAPACK-direct one is
checked bit for bit.
"""

import itertools

import numpy as np


def oracle_qp(H, c, A_ineq, b_ineq, A_eq, b_eq, feas_tol=1e-9):
    """Return (d, mu, lam, value) or None when the constraints are infeasible."""
    H = np.asarray(H, dtype=float)
    c = np.asarray(c, dtype=float)
    A_ineq = np.asarray(A_ineq, dtype=float).reshape(-1, c.size)
    b_ineq = np.asarray(b_ineq, dtype=float).reshape(A_ineq.shape[0])
    A_eq = np.asarray(A_eq, dtype=float).reshape(-1, c.size)
    b_eq = np.asarray(b_eq, dtype=float).reshape(A_eq.shape[0])
    d = c.size
    m = A_ineq.shape[0]
    n = A_eq.shape[0]

    best = None
    for size in range(m + 1):
        for active in itertools.combinations(range(m), size):
            rows = [A_ineq[i] for i in active] + [A_eq[j] for j in range(n)]
            rhs_rows = [b_ineq[i] for i in active] + list(b_eq)
            k = len(rows)
            kkt = np.zeros((d + k, d + k))
            kkt[:d, :d] = H
            if k:
                a_act = np.array(rows)
                kkt[:d, d:] = a_act.T
                kkt[d:, :d] = a_act
            rhs = np.concatenate([-c, np.array(rhs_rows)])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            # reject spurious solutions of near-singular working sets
            if not np.all(np.isfinite(sol)):
                continue
            scale = 1.0 + np.abs(rhs).max() + np.abs(sol).max()
            if np.abs(kkt @ sol - rhs).max() > 1e-8 * scale:
                continue
            x = sol[:d]
            nu = sol[d : d + len(active)]
            lam = sol[d + len(active) :]
            if m and np.max(A_ineq @ x - b_ineq) > feas_tol:
                continue
            if n and np.max(np.abs(A_eq @ x - b_eq)) > feas_tol:
                continue
            if len(active) and np.min(nu) < -feas_tol:
                continue
            val = 0.5 * x @ H @ x + c @ x
            if best is None or val < best[3] - 1e-12:
                mu = np.zeros(m)
                if len(active):
                    mu[list(active)] = np.maximum(nu, 0.0)
                best = (x, mu, lam, val)
    return best


def random_qp(rng, d_max=6, m_max=4, n_max=2):
    """One random strictly convex QP with a known strictly feasible point.

    Inequality right-hand sides are padded above A x_bar, so the feasible
    set always has an interior; equalities pass through x_bar exactly.
    """
    d = int(rng.integers(1, d_max + 1))
    m = int(rng.integers(0, m_max + 1))
    n = int(rng.integers(0, min(n_max, d) + 1))
    mroot = rng.normal(size=(d, d))
    H = mroot @ mroot.T + (0.1 + rng.random()) * np.eye(d)
    c = rng.normal(size=d) * (1.0 + 2.0 * rng.random())
    x_bar = rng.normal(size=d)
    A_ineq = rng.normal(size=(m, d))
    b_ineq = A_ineq @ x_bar + 0.1 + rng.random(size=m)
    A_eq = rng.normal(size=(n, d))
    b_eq = A_eq @ x_bar
    return H, c, A_ineq, b_ineq, A_eq, b_eq


def reference_saddle(H, Ae, r1, r2, passes=6):
    """Null-space saddle solve through scipy's validating Cholesky wrappers.

    The formulas of ``manisqp.qp._solve_saddle``, with the reduced Hessian
    factored by ``scipy.linalg.cho_factor`` and solved by ``cho_solve``
    (``scipy.linalg.solve`` when it is indefinite); ``passes`` is the number
    of extended-precision refinement passes.  Returns (x, y).
    """
    import scipy.linalg

    d = r1.size
    n = Ae.shape[0]
    u, sv, vt = np.linalg.svd(Ae, full_matrices=True)
    rank = int(np.sum(sv > max(Ae.shape) * np.finfo(float).eps * (sv[0] if sv.size else 0.0)))
    ur = u[:, :rank]
    vr = vt[:rank].T
    z = vt[rank:].T
    if z.shape[1]:
        red = z.T @ H @ z
        try:
            red_cf = scipy.linalg.cho_factor(red)

            def solve_red(rhs):
                return scipy.linalg.cho_solve(red_cf, rhs)
        except scipy.linalg.LinAlgError:
            def solve_red(rhs):
                return scipy.linalg.solve(red, rhs, assume_a="sym")

    def direct(r1_, r2_):
        x = vr @ ((ur.T @ r2_) / sv[:rank])
        if z.shape[1]:
            x = x + z @ solve_red(z.T @ (r1_ - H @ x))
        lam = ur @ ((vr.T @ (r1_ - H @ x)) / sv[:rank])
        return x, lam

    ld = np.longdouble
    hl, al, r1l, r2l = (a.astype(ld) for a in (H, Ae, r1, r2))
    x, lam = direct(r1, r2)
    best = None
    for sweep in range(passes + 1):
        res1 = np.asarray(r1l - hl @ x.astype(ld) - al.T @ lam.astype(ld), dtype=float)
        res2 = np.asarray(r2l - al @ x.astype(ld), dtype=float)
        size = max(
            float(np.max(np.abs(res1))) if d else 0.0,
            float(np.max(np.abs(res2))) if n else 0.0,
        )
        if best is None or size < best[0]:
            best = (size, x, lam)
        else:
            break
        if sweep == passes:
            break
        dx, dlam = direct(res1, res2)
        x = x + dx
        lam = lam + dlam
    return best[1], best[2]
