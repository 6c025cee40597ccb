"""Backward decompositions of the indifference value process.

Under the entropy-optimal martingale measure the value surface Y of a
claim decomposes edge by edge into

    Y_child = Y_node - dA_node + psi_node . dS + dL_child,

with psi the one-step orthogonal projection (least-squares hedge) of the
child values on the increments, dL the projection residuals
(E[dL | node] = 0, E[dL dS | node] = 0), and dA_node >= 0 a predictable
compensator increment.  Two routes are provided:

* ``exact_decomposition`` splits the exact primal surface; its
  compensator is the Doob decomposition of the value supermartingale.
  Every term is one-step: the split is one pass over all edges.
* ``bsde_scheme`` runs the explicit quadratic recursion
  Y = E[Y'] + (a/2) E[dL^2], whose compensator increment is exactly
  (a/2) times the one-step residual bracket; it coincides with the
  exact surface on attainable claims and differs at third order
  otherwise.  It runs one pass per time slice.

Both take a batch of value rows, so an alpha grid is one call.

The module also provides discrete BMO-type norms of the two martingale
parts, a node-wise comparison check between ordered claims, the
stochastic-exponential diagnostic of the orthogonal part, and fast dense
sweeps on the recombining two-factor basis-risk lattice for
step-refinement studies.
"""

from dataclasses import dataclass, fields

import numpy as np

from ._onestep import exp_min_batch, gkw_batch
from .errors import TreeStructureError
from .lattice import BasisRiskLattice, ClaimSpec, EventTree
from .measures import MeasureProcess, entropic_projection, minimal_entropy_measure
from .tolerances import DEFAULT, Tolerances
from .valuation import ValuationResult, _surfaces

__all__ = [
    "BsdeSolution",
    "BmoReport",
    "ComparisonReport",
    "gkw_step",
    "bsde_scheme",
    "exact_decomposition",
    "bmo_norms",
    "comparison_check",
    "orthogonal_exponential",
    "lattice_kernel",
    "lattice_scheme_value",
    "lattice_exact_value",
    "lattice_self_convergence",
]


@dataclass
class BsdeSolution:
    """Edge-wise decomposition of a value surface.

    values : (n,) value at each node (terminal = claim).
    psi : (n, d) per-node hedge (orthogonal projection coefficients).
    d_orth : (n,) orthogonal residual on the incoming edge (0 at root).
    step_bracket : (n,) E[d_orth^2 | node] per non-terminal node.
    compensator_step : (n,) predictable decrement dA at each node.
    bracket_orth : (n,) cumulative predictable bracket of the orthogonal
        part along the path to the node.
    bracket_orth_optional : (n,) cumulative realized square sum of
        d_orth along the path.
    compensator : (n,) cumulative sum of dA along the path (A_root = 0).
    alpha : risk aversion used.
    route : "exact" or "scheme".
    """

    values: np.ndarray
    psi: np.ndarray
    d_orth: np.ndarray
    step_bracket: np.ndarray
    compensator_step: np.ndarray
    bracket_orth: np.ndarray
    bracket_orth_optional: np.ndarray
    compensator: np.ndarray
    alpha: float
    route: str


@dataclass
class BmoReport:
    """Square roots of the worst conditional remaining square sums."""

    bmo_psi: float
    bmo_orth: float
    alpha: float
    route: str


@dataclass
class ComparisonReport:
    """Node-wise ordering margins for two claims with B_hi >= B_lo."""

    exact_margin: float
    scheme_margin: float
    alpha: float

    def ok(self, tol: float = DEFAULT.equality) -> bool:
        return self.exact_margin >= -tol and self.scheme_margin >= -tol


def gkw_step(q, ds, v):
    """One-step orthogonal projection of child values on increments.

    Returns ``(mean, psi, dl)`` with ``v_i = mean + psi . ds_i + dl_i``,
    ``E_q[dl ds] = 0`` exactly (normal equations), and minimal-norm psi
    on rank-deficient increments.
    """
    q = np.asarray(q, dtype=np.float64)
    ds = np.atleast_2d(np.asarray(ds, dtype=np.float64))
    v = np.asarray(v, dtype=np.float64)
    mean, psi, dl = gkw_batch(q[None, :], ds[None, :, :], v[None, :])
    return float(mean[0]), psi[0], dl[0]


def bracket_weights(tree: EventTree, measure: MeasureProcess) -> np.ndarray:
    """Per-node conditional increment covariance E[dS dS^T | node]."""
    ds = tree.dprice
    edge = np.einsum("n,ni,nj->nij", measure.edge_prob, ds, ds)
    return tree.reduce_children(np.add, edge)


def _decompose(tree: EventTree, measure: MeasureProcess, values, alphas,
               scheme: bool) -> BsdeSolution:
    """Decompositions of the rows ``values`` (B, n) at ``alphas`` (B,), every
    array and ``alpha`` of the :class:`BsdeSolution` leading with the batch
    axis.  A pass is ``gkw_batch`` at a contiguous range of nodes, the sums
    over their children taken by reduceat over the edges."""
    v = np.array(values, dtype=np.float64).T  # node axis first
    n, nb = v.shape
    alphas = np.asarray(alphas, dtype=np.float64)
    q = measure.edge_prob[:, None]
    bracket = bracket_weights(tree, measure)
    psi = np.zeros((n, nb, tree.n_assets))
    d_orth, step_bracket, comp_step = np.zeros((3, n, nb))
    # a node's predictable steps, read on the edges leaving it
    lag_bracket, lag_comp = np.zeros((2, n, nb))
    b = np.searchsorted(tree.times, np.arange(tree.horizon + 2))
    if scheme:  # the recursion: slice t reads the values just set at t + 1
        passes = [(slice(b[t], b[t + 1]), slice(b[t + 1], b[t + 2]))
                  for t in reversed(range(tree.horizon))]
    else:  # given surfaces: every non-terminal node over the edges 1..n-1
        passes = [(slice(0, b[tree.horizon]), slice(1, n))]
    for nodes, edges in passes:
        at = tree.child_start[nodes] - edges.start
        up = tree.parent[edges] - nodes.start
        ds, m2 = tree.dprice[edges], bracket[nodes]
        mean = np.add.reduceat(q[edges] * v[edges], at)
        centered = v[edges] - np.take(mean, up, axis=0)
        rhs = np.add.reduceat((q[edges] * centered)[..., None] * ds[:, None], at)
        if tree.n_assets == 1:
            psi[nodes] = np.divide(rhs, m2, out=np.zeros_like(rhs), where=m2 > 0)
        else:
            psi[nodes] = np.einsum("mij,mbj->mbi", np.linalg.pinv(m2, hermitian=True), rhs)
        d_orth[edges] = centered - np.einsum("ed,ebd->eb", ds,
                                             np.take(psi[nodes], up, axis=0))
        step_bracket[nodes] = np.add.reduceat(q[edges] * d_orth[edges] ** 2, at)
        comp_step[nodes] = 0.5 * alphas * step_bracket[nodes] if scheme else v[nodes] - mean
        if scheme:
            v[nodes] = mean + comp_step[nodes]
        lag_bracket[edges] = np.take(step_bracket[nodes], up, axis=0)
        lag_comp[edges] = np.take(comp_step[nodes], up, axis=0)
    path_sums = (tree.forward(np.add, x).T for x in (lag_bracket, d_orth ** 2, lag_comp))
    return BsdeSolution(v.T, psi.transpose(1, 0, 2), d_orth.T, step_bracket.T,
                        comp_step.T, *path_sums, alphas, "scheme" if scheme else "exact")


def _row(sol: BsdeSolution, b: int) -> BsdeSolution:
    """Row ``b`` of a batched decomposition as a single-row solution."""
    arrays = (getattr(sol, f.name)[b] for f in fields(sol) if f.type is np.ndarray)
    return BsdeSolution(*arrays, float(sol.alpha[b]), sol.route)


def bsde_scheme(tree: EventTree, claim: ClaimSpec, alpha: float,
                measure: MeasureProcess | None = None, *,
                tol: Tolerances = DEFAULT) -> BsdeSolution:
    """Explicit quadratic backward recursion for the value process.

    Per node: project the child values on the increments, then
    ``Y = E[Y'] + (alpha/2) E[dL^2]``.  Exact (to machine precision) on
    attainable claims, third-order accurate per step otherwise.
    """
    if measure is None:
        measure = minimal_entropy_measure(tree, tol=tol).measure
    return _row(_decompose(tree, measure, claim.full_surface(tree)[None],
                           [float(alpha)], scheme=True), 0)


def exact_decomposition(tree: EventTree, result: ValuationResult | np.ndarray,
                        measure: MeasureProcess,
                        alpha: float | None = None) -> BsdeSolution:
    """Edge-wise decomposition of an exact value surface.

    Accepts the output of :func:`indifference_surface` (or a raw value
    surface plus ``alpha``).  The compensator increments are
    ``dA = Y_node - E[Y_child]`` (nonnegative: the value process is a
    supermartingale under the valuation measure), so the Doob split is
    exact and telescoping gives
    ``Y_t - E[B | node] = E[A_T - A_t | node]`` identically.
    """
    if isinstance(result, ValuationResult):
        values = result.surface.values
        alpha = result.surface.alpha
    else:
        values = np.asarray(result, dtype=np.float64)
        if alpha is None:
            raise ValueError("alpha required with a raw value surface")
    return _row(_decompose(tree, measure, values[None], [float(alpha)],
                           scheme=False), 0)


def bmo_norms(tree: EventTree, sol: BsdeSolution, measure: MeasureProcess, *,
              up_to: int | None = None) -> BmoReport:
    """Discrete BMO norms of the hedge and orthogonal martingale parts.

    ``bmo_X = sqrt(max over nodes of E[ sum of remaining one-step square
    increments of X | node ])``.  ``up_to`` truncates the remaining sums
    at a time slice (norms are monotone in the truncation horizon).
    """
    psi_sq, orth_sq = _bmo_sq(tree, measure, sol.psi[None], sol.d_orth[None], up_to)
    return BmoReport(float(np.sqrt(psi_sq[0])), float(np.sqrt(orth_sq[0])),
                     sol.alpha, sol.route)


def _bmo_sq(tree: EventTree, measure: MeasureProcess, psi: np.ndarray,
            d_orth: np.ndarray, up_to: int | None = None):
    """Squared BMO norms, (B,) each, of the hedge parts with holdings
    ``psi`` (B, n, d) and of the orthogonal parts with edge increments
    ``d_orth`` (B, n): the max over nodes of the conditional remaining
    sums of squared one-step increments, the steps from slice ``up_to``
    on dropped."""
    q = measure.edge_prob
    gain = np.zeros((tree.n_nodes, psi.shape[0]))
    gain[1:] = np.einsum("nd,bnd->nb", tree.dprice[1:], psi[:, tree.parent[1:]])
    late = tree.times >= (tree.horizon if up_to is None else up_to)
    out = []
    for inc in (gain, d_orth.T):
        step = tree.reduce_children(np.add, q[:, None] * inc * inc)
        step[late] = 0.0
        out.append(tree.backward(q, step).max(axis=0))
    return tuple(out)


def comparison_check(tree: EventTree, claim_hi: ClaimSpec, claim_lo: ClaimSpec,
                     alpha: float, measure: MeasureProcess | None = None, *,
                     tol: Tolerances = DEFAULT) -> ComparisonReport:
    """Node-wise ordering of the value surfaces of two ordered claims.

    Requires ``claim_hi >= claim_lo``.  The exact route preserves the
    order structurally (the one-step operator is monotone); the explicit
    scheme's quadratic term is not monotone, so its margin is reported
    and asserted only by the callers that control the regime.
    """
    if np.any(claim_hi.values < claim_lo.values - 1e-15):
        raise TreeStructureError("claims are not ordered")
    if measure is None:
        measure = minimal_entropy_measure(tree, tol=tol).measure
    pair = (claim_hi, claim_lo)
    exact = _surfaces(tree, measure, [(c.values, alpha) for c in pair], tol)
    scheme = _decompose(tree, measure, [c.full_surface(tree) for c in pair],
                        [alpha, alpha], scheme=True).values
    return ComparisonReport(float(np.min(exact[0] - exact[1])),
                            float(np.min(scheme[0] - scheme[1])), float(alpha))


def orthogonal_exponential(tree: EventTree, sol: BsdeSolution) -> np.ndarray:
    """Discrete stochastic exponential of ``-alpha`` times the orthogonal part.

    Returns the surface ``E_t = prod over path (1 - alpha * dL)``.
    Diagnostic only: in discrete time the factors may hit zero or change
    sign, which is exactly why the multiplicative density representation
    of the optimal measure is not asserted on trees.
    """
    factor = 1.0 - sol.alpha * sol.d_orth
    factor[0] = 1.0
    return tree.forward(np.multiply, factor)


# ---------------------------------------------------------------------------
# recombining basis-risk lattice sweeps


def lattice_kernel(lat: BasisRiskLattice, *, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Entropy-optimal one-step kernel of the lattice (node independent).

    The martingale constraint involves only the traded factor's relative
    move, identical at every node, and zero terminal cost keeps the
    per-node tilt costs constant across each slice, so a single kernel
    drives the whole lattice.
    """
    ds = lat.step_moves[:, None]
    return entropic_projection(lat.joint_prob, ds, tol=tol).q


def _lattice_children(y_next: np.ndarray):
    """Child grids (uu, ud, du, dd) of a dense (t+2, t+2) slice."""
    return (y_next[1:, 1:], y_next[1:, :-1], y_next[:-1, 1:], y_next[:-1, :-1])


def lattice_scheme_value(lat: BasisRiskLattice, payoff, alpha: float, *,
                         tol: Tolerances = DEFAULT) -> float:
    """Root value of the explicit quadratic recursion on the lattice.

    ``payoff`` maps the terminal non-traded factor levels (array) to
    claim values.  The sweep is dense array code: slice t is a
    (t+1) x (t+1) grid over (traded up-moves, non-traded up-moves).
    """
    q = lattice_kernel(lat, tol=tol)
    g = lat.step_moves
    m2g = float(np.dot(q, g * g))
    n = lat.steps
    y = np.broadcast_to(np.asarray(payoff(lat.v_values(n)), dtype=np.float64)[None, :],
                        (n + 1, n + 1)).copy()
    half_alpha = 0.5 * float(alpha)
    for t in range(n - 1, -1, -1):
        kids = _lattice_children(y)
        mean = sum(qc * kid for qc, kid in zip(q, kids))
        wsum = sum(qc * gc * kid for qc, gc, kid in zip(q, g, kids))
        bracket = sum(qc * (kid - mean - wsum * gc / m2g) ** 2
                      for qc, gc, kid in zip(q, g, kids))
        y = mean + half_alpha * bracket
    return float(y[0, 0])


def lattice_exact_value(lat: BasisRiskLattice, payoff, alpha: float, *,
                        tol: Tolerances = DEFAULT) -> float:
    """Root value of the exact exponential recursion on the lattice."""
    q = lattice_kernel(lat, tol=tol)
    logq = np.log(q)
    g = lat.step_moves
    n = lat.steps
    y = np.broadcast_to(np.asarray(payoff(lat.v_values(n)), dtype=np.float64)[None, :],
                        (n + 1, n + 1)).copy()
    for t in range(n - 1, -1, -1):
        kids = np.stack(_lattice_children(y), axis=-1)  # (t+1, t+1, 4)
        m = (t + 1) * (t + 1)
        cont = kids.reshape(m, 4)
        s = lat.s_values(t)  # varies along axis 0
        ds = (np.broadcast_to(s[:, None, None], (t + 1, t + 1, 4)) *
              g[None, None, :]).reshape(m, 4, 1)
        res = exp_min_batch(np.broadcast_to(logq, (m, 4)), ds, cont, float(alpha),
                            newton_tol=tol.newton)
        y = res.value.reshape(t + 1, t + 1)
    return float(y[0, 0])


def lattice_self_convergence(step_counts, payoff, alpha: float, *,
                             sigma_s=0.2, sigma_v=0.3, rho=0.6, maturity=1.0,
                             s0=1.0, v0=1.0, tol: Tolerances = DEFAULT) -> dict:
    """Scheme values across step refinements plus successive differences.

    Returns ``{"steps": [...], "values": [...], "diffs": [...]}`` where
    ``diffs[i] = |value[i] - value[i+1]|`` (one fewer entry).
    """
    from .lattice import basis_risk_lattice

    values = []
    for n in step_counts:
        lat = basis_risk_lattice(int(n), sigma_s=sigma_s, sigma_v=sigma_v,
                                 rho=rho, maturity=maturity, s0=s0, v0=v0)
        values.append(lattice_scheme_value(lat, payoff, alpha, tol=tol))
    diffs = [abs(values[i] - values[i + 1]) for i in range(len(values) - 1)]
    return {"steps": list(step_counts), "values": values, "diffs": diffs}
