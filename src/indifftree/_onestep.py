"""One batched damped-Newton kernel for the two one-step problems.

Both problems minimise a log-sum-exp over a node's children, solved
simultaneously for a batch of m rows of k children each:

* entropic tilt — minimize sum_i q_i (log(q_i / p_i) + cost_i) over
  strictly positive martingale kernels q.  The optimizer is the tilt
  q_i ∝ p_i exp(-cost_i + lam . ds_i), where lam minimises
  lse(log p - cost + ds . lam) and the value is -lse.

* exponential hedge — minimize (1/a) log sum_i q_i exp(a (cont_i -
  theta . ds_i)) over holdings theta.  This is the same problem with
  offsets log q + a cont, multiplier lam = -a theta and value lse / a,
  so the risk aversion is per-row data the kernel never sees.

The kernel, :func:`lse_newton_t`, takes children-major arrays (a (k, m),
ds (d, k, m), lam (d, m)), so sums and maxima over children run along a
leading axis, adding one child after the other.  A sweep takes ds and the
per-row inputs it fixes (scales, degenerate flags) from the tree's cached
slice layouts; :func:`lse_newton` derives them for rows-major callers.
Every Newton iteration steps all rows: converged and stalled rows take a
zero step, which re-evaluates to their own bits, and only rows whose full
step fails are gathered for step halving.  All exponentials run through
log-sum-exp with max shifts.

Singular Newton systems fall back to pseudo-inverse steps.  Those invert
rounding noise in the null direction, so rank-deficient rows drop the
part of lam off the increments' row space once Newton is done and return
the minimal-norm multiplier / holdings.  Rows where a damped step makes
no progress (the tilted covariance can collapse to a lower rank while
the softmax saturates en route) switch to Levenberg ridge steps, bending
toward steepest descent until progress resumes.  A row that still stalls
is accepted only on a duality-gap certificate.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NewtonConvergenceError, NoArbitrageViolated
from .tolerances import NEWTON_MAX_ITER

_MAX_HALVINGS = 60
_EPS32 = 32 * np.finfo(np.float64).eps  # float-noise envelope

# every weight of a certified kernel exceeds this (the LP accepts 1e-11)
WITNESS_FLOOR = 1e-9


@dataclass
class BatchResult:
    q: np.ndarray          # (m, k) optimal kernels / final softmax weights
    multiplier: np.ndarray  # (m, d) lam or theta
    value: np.ndarray      # (m,) optimal objective value
    iterations: np.ndarray  # (m,)
    residual: np.ndarray   # (m,) final constraint / scaled-gradient norm
    degenerate: np.ndarray | None = None  # (m,) bool, increments rank deficient


@dataclass
class LseSolution:
    """Row-wise minimisers of lse(a + ds . lam), see :func:`lse_newton_t`."""

    w: np.ndarray          # (m, k) softmax weights at the optimum
    lam: np.ndarray        # (m, d) multipliers
    lse: np.ndarray        # (m,) minimal log-sum-exp
    iterations: np.ndarray  # (m,) Newton steps taken
    residual: np.ndarray   # (m,) |E_w[ds]|_inf, the gradient norm
    failed: np.ndarray     # (m,) bool, residual above tolerance
    degenerate: np.ndarray  # (m,) bool, increments rank deficient


def _child_sum(x):
    """Sum over the children axis -2, one child after the other: numpy adds
    up to 7 terms in order (from +0.0), but a lone column of 8 or more
    pairwise, which would tie a row's bits to its batch."""
    if x.shape[-2] < 8:
        return np.add.reduce(x, axis=-2)
    s = x[..., 0, :].copy()
    for i in range(1, x.shape[-2]):
        s += x[..., i, :]
    return s


def _evaluate(a, ds, lam):
    """lam with the softmax weights (k, m), lse, weighted increments w ds
    (d, k, m), their mean E_w[ds] (d, m) and its sup norm, children-major."""
    logits = ds[0] * lam[0]
    for j in range(1, lam.shape[0]):
        logits += ds[j] * lam[j]
    logits += a
    mx = np.maximum.reduce(logits, axis=0)
    logits -= mx
    w = np.exp(logits, out=logits)
    z = _child_sum(w)
    w /= z
    wds = w * ds
    mean = _child_sum(wds)
    resid = np.abs(mean[0]) if mean.shape[0] == 1 else np.maximum.reduce(np.abs(mean), axis=0)
    return lam, w, np.log(z) + mx, wds, mean, resid


def _newton_step(wds, ds, mean, mu, active):
    """-pinv(cov + mu I) @ mean on the active rows, zero on the others, with
    cov = E_w[ds ds^T] - mean mean^T and ``mu`` the per-row Levenberg ridge or None."""
    d = mean.shape[0]
    if d == 1:
        c = _child_sum(wds[0] * ds[0]) - mean[0] * mean[0]
        if mu is not None:
            c += mu
        return np.divide(-mean, c, out=np.zeros(mean.shape), where=active & (c > 0))
    cov = _child_sum(wds[:, None] * ds) - mean[:, None] * mean  # (d, d, m)
    rows = active.nonzero()[0]
    ridge = 0.0 if mu is None else mu[rows, None, None]
    ev, u = np.linalg.eigh(cov[:, :, rows].transpose(2, 0, 1) + ridge * np.eye(d))
    keep = np.abs(ev) > 1e-15 * np.abs(ev).max(axis=1, keepdims=True)  # pinv's cut
    c = np.divide((u * mean[:, rows].T[:, :, None]).sum(axis=1), ev,
                  out=np.zeros(ev.shape), where=keep)
    step = np.zeros(mean.shape)
    step[:, rows] = -(u * c[:, None, :]).sum(axis=2).T
    return step


def _better(t_lse, t_resid, lse, resid):
    """Acceptance: lse drops, or stays in its float noise while the residual drops."""
    return (t_lse < lse) | ((t_lse <= lse + _EPS32 * np.maximum(1.0, np.abs(lse)))
                            & (t_resid < resid))


def _halve(a, ds, state, rows, step):
    """Halve the step of the ``rows`` whose full step failed, writing accepted
    trials into ``state``; returns the rows no damping scale helped."""
    a, ds, step, t = a[:, rows], ds[:, :, rows], step[:, rows], 1.0
    for _ in range(1, _MAX_HALVINGS):
        t *= 0.5
        trial = _evaluate(a, ds, state[0][:, rows] + t * step)
        ok = _better(trial[2], trial[5], state[2][rows], state[5][rows])
        for x, y in zip(state, trial):
            x[..., rows[ok]] = y[..., ok]
        rows, step, a, ds = (x[..., ~ok] for x in (rows, step, a, ds))
        if not rows.size:
            break
    return rows


def _counts(a):
    """Real children per row of children-major offsets (padded ones are -inf)."""
    return a.shape[0] - np.count_nonzero(np.isneginf(a), axis=0)


def _widths(counts, rows):
    """[(k, the ``rows`` whose ``counts`` is k)]: SVDs see no padded child."""
    return [(k, rows[counts == k]) for k in np.flatnonzero(np.bincount(counts))]


def row_inputs(ds, counts):
    """Per-row inputs fixed by children-major increments ds (d, k, m): scales
    max(1, |ds|_inf) and flags of the rows whose ``counts`` real children do
    not span the asset space (d = 1: all zero; else one SVD per width)."""
    scale = np.maximum(1.0, np.maximum.reduce(np.abs(ds), axis=(0, 1)))
    if ds.shape[0] == 1:
        return scale, ~ds[0].any(axis=0)
    deg = np.zeros(scale.size, dtype=bool)
    for k, rows in _widths(counts, np.arange(scale.size)):
        sv = np.linalg.svd(ds[:, :k, rows].T, compute_uv=False)
        deg[rows] = sv[:, -1] <= 1e-12 * np.maximum(sv[:, 0], 1e-300)
    return scale, deg


def relint_witness(ds_row):
    """Strictly positive kernel q with q @ ds = 0, or None: the one LP.

    max eps  s.t.  q >= eps, sum q = 1, ds' q = 0  on the increments
    scaled by max(1, |ds|_inf); ``scipy.optimize`` loads on first use.
    """
    from scipy.optimize import linprog

    k, d = ds_row.shape
    scale = max(1.0, float(np.abs(ds_row).max()))
    a_eq = np.zeros((d + 1, k + 1))
    a_eq[:d, :k], a_eq[d, :k] = (ds_row / scale).T, 1.0
    a_ub = np.hstack([-np.eye(k), np.ones((k, 1))])  # eps - q_i <= 0
    res = linprog(-np.eye(k + 1)[k], A_ub=a_ub, b_ub=np.zeros(k), A_eq=a_eq,
                  b_eq=np.eye(d + 1)[d], bounds=[(None, None)] * (k + 1), method="highs")
    if not res.success or res.x[-1] <= 1e-11:
        return None
    # HiGHS meets the equalities only to 1e-7; keep kernels that are exact
    q, drift = martingale_part(res.x[None, :k], ds_row[None] / scale)
    return q[0] if drift[0] <= 1e-12 and q.min() > 0.0 else None


def lse_newton(a, ds, lam0=None, **options) -> LseSolution:
    """:func:`lse_newton_t` (and its ``newton_tol``, ``max_iter``) on rows-major
    offsets a (m, k), increments ds (m, k, d) and start lam0 (m, d)."""
    a = np.ascontiguousarray(np.asarray(a, dtype=np.float64).T)
    ds = np.ascontiguousarray(np.asarray(ds, dtype=np.float64).T)
    lam = None if lam0 is None else np.array(np.transpose(lam0), dtype=np.float64, order="C")
    return lse_newton_t(a, ds, *row_inputs(ds, _counts(a)), lam, **options)


def lse_newton_t(a, ds, scale, deg, lam=None, *, newton_tol=1e-12,
                 max_iter=NEWTON_MAX_ITER) -> LseSolution:
    """Minimise lse(a + ds . lam) over lam, row by row, by damped Newton.

    Parameters
    ----------
    a : (k, m) offsets; a padded child has offset -inf and zero increments.
    ds, scale, deg : (d, k, m) increments and their (m,) :func:`row_inputs`, read only.
    lam : optional (d, m) start.
    newton_tol : tolerance on the gradient E_w[ds], scaled per row by
        ``scale``, and on the relative duality gap of a stalled row.

    A damped step is accepted when it lowers lse, or, inside the
    float-noise envelope of lse, when it lowers the residual, so iterates
    can polish the root without ever jumping to a saturated region.
    Rows left above tolerance pass only if :func:`_certify` does.  Rows
    are independent, bit for bit; unsolved ones are flagged, not raised,
    so the caller can name them.  The solution is rows-major.
    """
    d, _, m = ds.shape
    lam = np.zeros((d, m)) if lam is None else lam
    tol_row = newton_tol * scale
    state = _evaluate(a, ds, lam)  # lam, w, lse, wds, mean, resid
    iters = np.zeros(m, dtype=np.int64)
    mu = None  # Levenberg ridge, in curvature units, allocated on first use

    for _ in range(max_iter):
        lam, _, lse, wds, mean, resid = state
        active = resid > tol_row
        if mu is not None:
            active &= mu <= 1e8 * scale ** 2  # rows past this ridge have stalled
        if not np.count_nonzero(active):
            break
        step = _newton_step(wds, ds, mean, mu, active)
        trial = _evaluate(a, ds, lam + step)
        # every row takes its full step, the rows it fails keep their iterate;
        # a zero step (converged, stalled rows) re-evaluates to the same bits
        rows = (active > _better(trial[2], trial[5], lse, resid)).nonzero()[0]
        if rows.size:
            for x, y in zip(trial, state):
                x[..., rows] = y[..., rows]
            rows = _halve(a, ds, trial, rows, step)
        state = trial
        if mu is not None:
            mu_hard = mu[rows]
            np.multiply(mu, 0.25, out=mu, where=active)
        elif rows.size:
            mu, mu_hard = np.zeros(m), 0.0
        if rows.size:
            # rows no damping scale helped: raise the ridge and try again,
            # giving up only deep in the steepest-descent regime
            mu[rows] = np.where(mu_hard == 0.0, 1e-8 * scale[rows] ** 2, mu_hard * 10.0)
        iters += active

    lam, w, lse, _, _, resid = (x.T for x in state)  # back to rows first
    above = (resid > tol_row).nonzero()[0]
    if above.size:  # martingale_part costs ~75 us even on zero rows
        a_r, ds_r = np.ascontiguousarray(a.T), np.ascontiguousarray(ds.T)
        for kk, rows in _widths(_counts(a[:, above]), above):
            rows, *cert = _certify(a_r[:, :kk], ds_r[:, :kk], w[:, :kk], rows, tol_row, newton_tol)
            w[rows, :kk], lam[rows], lse[rows], resid[rows] = cert
    _minimal_norm(a, ds, lam, deg)
    return LseSolution(w, lam, lse, iters, resid, resid > tol_row, deg)


def _minimal_norm(a, ds, lam, deg):
    """Drop, in place, the part of the ``deg`` rows' lam (rows-major) off
    their increments' row space: the pseudo-inverse Newton steps invert
    rounding noise there.  The SVDs run per width, on a row's real children."""
    rows = deg.nonzero()[0]
    if ds.shape[0] == 1 or not rows.size:
        lam[rows] = 0.0
        return
    for k, rows in _widths(_counts(a[:, rows]), rows):
        _, sv, vt = np.linalg.svd(ds[:, :k, rows].T, full_matrices=False)
        basis = vt * (sv > 1e-12 * np.maximum(sv[:, :1], 1e-300))[:, :, None]
        coef = (basis * lam[rows][:, None, :]).sum(axis=2)
        lam[rows] = (basis * coef[:, :, None]).sum(axis=1)


def _certify(a, ds, w, rows, tol_row, newton_tol):
    """(rows, q, lam, lse, drift) of the stalled ``rows`` a duality gap certifies.

    lse(a + ds . lam) >= -sum q (log q - a) for every strictly positive
    martingale kernel q.  The weights move onto the exact martingale
    kernels; one with drift <= ``tol_row`` and weights > ``WITNESS_FLOOR``
    re-solves lam and lse from log q - a = ds . lam - lse.  A row passes
    when lse, the primal at lam and the dual at q span <= newton_tol *
    max(1, |lse|), or no more than the logits' rounding, 32 eps sum |ds lam|.
    """
    q, drift = martingale_part(w[rows], ds[rows])
    keep = (drift <= tol_row[rows]) & (q.min(axis=1) > WITNESS_FLOOR)
    rows, q, drift = rows[keep], q[keep], drift[keep]
    a, ds = a[rows], ds[rows]
    logq_a = np.log(q) - a
    aug = np.concatenate([ds, -np.ones_like(ds[:, :, :1])], axis=2)
    x = np.einsum("mjk,mk->mj", np.linalg.pinv(aug), logq_a)
    lam, lse = x[:, :-1], x[:, -1]
    primal = _evaluate(a.T, ds.T, lam.T)[2]
    dual = -np.einsum("mk,mk->m", q, logq_a)
    gap = np.maximum(primal, lse) - np.minimum(dual, lse)
    noise = _EPS32 * np.einsum("mkd,md->mk", np.abs(ds), np.abs(lam)).max(axis=1)
    ok = gap <= np.maximum(newton_tol * np.maximum(1.0, np.abs(lse)), noise)
    return rows[ok], q[ok], lam[ok], lse[ok], drift[ok]


def martingale_part(w, ds):
    """Rows of w moved onto {q : sum q = 1, q . ds = 0} by the minimal-norm
    step, and the sup norm of q . ds left (the set may be empty).  A weight
    that must vanish but hid inside a residual tolerance shows as q <= 0."""
    aug = np.concatenate([ds, np.ones_like(ds[:, :, :1])], axis=2)
    gap = np.einsum("mk,mkj->mj", w, aug)
    gap[:, -1] -= 1.0  # sum w - 1
    # pinv of the increments themselves: their Gram matrix would square
    # the condition number and drop increments below ~3e-8
    q = w - np.einsum("mjk,mj->mk", np.linalg.pinv(aug), gap)
    return q, np.abs(np.einsum("mk,mkd->md", q, ds)).max(axis=1)


def unsolved_error(route, sol, a, ds, where):
    """The error for the first row ``sol`` left unsolved; ``where(r)``
    names row r in the message.

    On the entropic route a row whose real children carry no strictly
    positive martingale kernel is an arbitrage, not a solver failure.
    """
    r = int(np.flatnonzero(sol.failed)[0])
    if route == "entropic" and relint_witness(ds[r][~np.isneginf(a[r])]) is None:
        return NoArbitrageViolated(
            f"no strictly positive martingale kernel exists at {where(r)}")
    return NewtonConvergenceError(
        f"{route} Newton stalled at residual {sol.residual[r]:.3e} at {where(r)}")


def sweep_error(route, sol, a, ds, nodes, t, alphas=None):
    """The error for the first unsolved row of a sweep's slice call.

    Rows are batch-major over the slice's ``nodes``; the message names
    the tree node, the time slice and, when known, the row's alpha.
    """
    def where(r):
        b, j = divmod(r, nodes.size)
        alpha = "" if alphas is None else f", alpha={float(alphas[b])!r}"
        return f"node {int(nodes[j])} (slice {t}{alpha})"

    return unsolved_error(route, sol, a, ds, where)


def entropic_projection_batch(logp, ds, cost, *, newton_tol=1e-12) -> BatchResult:
    """Solve the entropic tilt problem for a batch of nodes.

    Parameters
    ----------
    logp : (m, k) log reference probabilities.
    ds : (m, k, d) price increments to the children.
    cost : (m, k) continuation costs added inside the relative entropy.
    newton_tol : absolute tolerance on the tilted increment mean
        (scaled by max(1, |ds|_inf) per row).

    Returns the optimal kernels, multipliers lam, and the value
    -log sum_i p_i exp(-cost_i + lam . ds_i).
    """
    ds = np.asarray(ds, dtype=np.float64)
    a = np.asarray(logp, dtype=np.float64) - np.asarray(cost, dtype=np.float64)
    sol = lse_newton(a, ds, newton_tol=newton_tol)
    if sol.failed.any():
        raise unsolved_error("entropic", sol, a, ds, lambda r: f"batch row {r}")
    return BatchResult(sol.w, sol.lam, -sol.lse, sol.iterations, sol.residual,
                       sol.degenerate)


def exp_min_batch(logq, ds, cont, alpha, *, newton_tol=1e-12) -> BatchResult:
    """Minimize (1/a) log sum_i q_i exp(a (cont_i - theta . ds_i)) per row.

    Stationarity is measured by the softmax-tilted increment mean (the
    gradient divided by alpha), so the achieved hedge accuracy is
    uniform in alpha.
    """
    alpha = float(alpha)
    a = np.asarray(logq, dtype=np.float64) + alpha * np.asarray(cont, dtype=np.float64)
    sol = lse_newton(a, ds, newton_tol=newton_tol)
    if sol.failed.any():
        raise unsolved_error("primal", sol, a, ds, lambda r: f"batch row {r} (alpha={alpha})")
    return BatchResult(sol.w, -sol.lam / alpha, sol.lse / alpha, sol.iterations,
                       sol.residual)


def gkw_batch(q, ds, v):
    """One-step orthogonal projection of child values on the increments.

    Returns (mean, psi, dl): the kernel mean of v, the least-squares
    hedge solving  E_q[ds ds^T] psi = E_q[(v - mean) ds]  (pseudo-inverse
    on rank-deficient increments, hence minimal-norm), and the residuals
    dl_i = v_i - mean - psi . ds_i with E_q[dl ds] = 0.
    """
    q = np.asarray(q, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    ds = np.asarray(ds, dtype=np.float64)
    mean = np.einsum("mk,mk->m", q, v)
    centered = v - mean[:, None]
    rhs = np.einsum("mk,mk,mkd->md", q, centered, ds)
    m2 = np.einsum("mk,mki,mkj->mij", q, ds, ds)
    d = ds.shape[2]
    if d == 1:
        c = m2[:, 0, 0]
        psi = np.zeros((ds.shape[0], 1))
        ok = c > 0
        psi[ok, 0] = rhs[ok, 0] / c[ok]
    else:
        psi = np.einsum("mij,mj->mi", np.linalg.pinv(m2, hermitian=True), rhs)
    dl = centered - np.einsum("mkd,md->mk", ds, psi)
    return mean, psi, dl
