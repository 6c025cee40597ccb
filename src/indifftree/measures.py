"""Entropy-optimal martingale measures on event trees.

The central object is the backward recursion that, at every node,
replaces the reference kernel by its entropic tilt subject to the
one-step martingale constraint, with the children's optimal
cost-to-go entering as tilt costs.  With zero terminal cost this yields
the minimal relative entropy martingale measure; with terminal cost
``-alpha * B`` it yields the claim-tilted measure used by the dual
valuation route.

The optimal terminal density has the exponential-of-gains form
``log Z_T = J_root - cost(omega) + sum_t lam_t . dS_t`` along every
path (a telescoping identity verified by :func:`verify_entropy_structure`),
so the recursion's multipliers double as a self-financing strategy.
"""

from dataclasses import dataclass

import numpy as np

from ._onestep import entropic_projection_batch, lse_newton_t, sweep_error
from .errors import NonMartingaleKernel, TreeStructureError
from .lattice import ClaimSpec, EventTree, gains
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "MeasureProcess",
    "DensitySurface",
    "EntropyResult",
    "OneStepProjection",
    "entropic_projection",
    "minimal_entropy_measure",
    "claim_tilted_measure",
    "density_process",
    "relative_entropy",
    "verify_entropy_structure",
    "node_probabilities",
    "conditional_expectation",
    "expected_remaining",
]


@dataclass
class MeasureProcess:
    """One-step kernels of a measure, stored per edge.

    ``edge_prob[i]`` is the conditional probability of the edge into node
    ``i`` (1 at the root).  Kernels are strictly positive and sum to one
    over each node's children; ``martingale`` records whether the tilted
    increment means vanish (checked at construction).
    """

    edge_prob: np.ndarray
    martingale: bool

    @classmethod
    def from_edges(cls, tree: EventTree, edge_prob: np.ndarray, *,
                   require_martingale: bool = True,
                   tol: Tolerances = DEFAULT) -> "MeasureProcess":
        q = np.asarray(edge_prob, dtype=np.float64).copy()
        if q.shape != (tree.n_nodes,):
            raise TreeStructureError("edge probability array has wrong length")
        q[0] = 1.0
        if np.any(q[1:] <= 0.0):
            raise TreeStructureError("measure kernels must be strictly positive")
        mass = tree.reduce_children(np.add, q)
        interior = tree.times < tree.horizon
        if np.any(np.abs(mass[interior] - 1.0) > tol.kernel_sum):
            raise TreeStructureError("measure kernels must sum to one")
        drift = tree.reduce_children(np.add, q[:, None] * tree.dprice)
        scale = max(1.0, float(np.abs(tree.dprice).max()))
        mart = not np.any(np.abs(drift[interior]) > tol.constraint * scale)
        if require_martingale and not mart:
            raise NonMartingaleKernel("kernels do not make the price a martingale")
        q.setflags(write=False)
        return cls(q, mart)


@dataclass
class DensitySurface:
    """Running density of a measure against a reference, node by node."""

    z: np.ndarray          # (n,) density at each node, z[root] = 1
    log_z: np.ndarray      # (n,) its logarithm
    edge_ratio: np.ndarray  # (n,) one-step ratio q/r along the incoming edge


@dataclass(frozen=True)
class EntropyResult:
    """Output of the entropic backward recursion.

    value_surface[i] is the optimal remaining cost
    ``min E_Q[ log(Z_{t,T}) + cost(omega) | node i ]``; multipliers holds
    the per-node tilt vectors (a predictable strategy surface);
    scale_constant is ``exp(value_surface[root])``, the constant in the
    exponential-of-gains form of the terminal density.
    """

    measure: MeasureProcess
    value_surface: np.ndarray
    multipliers: np.ndarray
    scale_constant: float
    terminal_cost: np.ndarray
    iterations: int
    max_residual: float
    degenerate_nodes: int

    @property
    def strategy(self) -> np.ndarray:
        """The multipliers read as a self-financing holdings surface."""
        return self.multipliers


@dataclass
class OneStepProjection:
    q: np.ndarray
    multiplier: np.ndarray
    value: float
    iterations: int
    residual: float
    degenerate: bool


def entropic_projection(p, ds, cost=None, *, tol: Tolerances = DEFAULT) -> OneStepProjection:
    """Single-node entropic tilt onto the martingale constraint.

    Minimizes ``sum_i q_i (log(q_i / p_i) + cost_i)`` over strictly
    positive kernels with ``sum_i q_i ds_i = 0``.  The optimum is
    ``q_i ∝ p_i exp(-cost_i + lam . ds_i)`` with value
    ``-log sum_i p_i exp(-cost_i + lam . ds_i)``.

    Parameters
    ----------
    p : (k,) strictly positive reference kernel.
    ds : (k, d) price increments.
    cost : (k,) continuation costs (defaults to zero).

    Raises ``NoArbitrageViolated`` when no strictly positive martingale
    kernel exists; rank-deficient increments are not an error — the
    reported multiplier is then the minimal-norm root.
    """
    p = np.asarray(p, dtype=np.float64)
    if np.any(p <= 0.0):
        raise TreeStructureError("reference kernel must be strictly positive")
    ds = np.atleast_2d(np.asarray(ds, dtype=np.float64))
    if ds.ndim != 2:
        raise TreeStructureError("ds must have shape (k, d)")
    k = p.shape[0]
    cost = np.zeros(k) if cost is None else np.asarray(cost, dtype=np.float64)
    res = entropic_projection_batch(np.log(p)[None, :], ds[None, :, :], cost[None, :],
                                    newton_tol=tol.newton)
    return OneStepProjection(res.q[0], res.multiplier[0], float(res.value[0]),
                             int(res.iterations[0]), float(res.residual[0]),
                             bool(res.degenerate[0]))


def _entropic_sweep(tree: EventTree, costs: np.ndarray, tol: Tolerances,
                    alphas=None, *, logp=None, lam0=None, route="entropic"):
    """Backward entropic recursion for a batch of terminal-cost rows, the
    package's one Newton backward sweep.

    ``costs`` is (B, n_term); every slice of the tree is one kernel call over
    its B * m rows, ``J = -min_lam lse(logp - J_child + lam . dS)`` with
    ``logp`` the reference log-kernels (default: the tree's) and ``lam0`` an
    optional (B, n, d) warm start.  The primal hedge is this recursion under
    Q^E with cost ``-alpha B`` (J = -alpha C, lam = -alpha theta).  ``route``
    and ``alphas`` (B,), when given, only label rows in errors: every route
    accepts rows as :func:`lse_newton_t` does.  A mixed slice is padded
    (:meth:`EventTree.layouts`): a padded child has offset -inf and zero
    increments.  Returns ``(J (B, n), lam (B, n, d), q_edge (B, n), diag)``,
    diag holding ``iterations`` and ``max_residual`` (B,).
    """
    costs = np.atleast_2d(np.asarray(costs, dtype=np.float64))
    nb = costs.shape[0]
    if costs.shape != (nb, tree.terminal_nodes.size):
        raise TreeStructureError("terminal cost must align with the terminal slice")
    n, d = tree.n_nodes, tree.n_assets
    value = np.zeros((nb, n))
    value[:, tree.terminal_nodes] = costs
    lam = np.zeros((nb, n, d))
    q_edge = np.zeros((nb, n))
    iterations = np.zeros(nb, dtype=np.int64)
    max_resid = np.zeros(nb)
    logp = np.log(tree.edge_prob) if logp is None else logp
    for t in range(tree.horizon - 1, -1, -1):
        lay = tree.layouts()[t]
        nodes, ch = lay.nodes, lay.children
        k, m = ch.shape
        a = logp[ch] - value[:, ch]  # (nb, k, m)
        if lay.pad is not None:
            a[:, lay.pad] = -np.inf
        a = a.swapaxes(0, 1).reshape(k, nb * m)  # batch-major rows
        fixed = lay[3:] if nb == 1 else [np.tile(x, nb) for x in lay[3:]]  # ds, scale, deg
        start = None if lam0 is None else lam0[:, nodes].reshape(nb * m, d).T
        sol = lse_newton_t(a, *fixed, start, newton_tol=tol.newton)
        if sol.failed.any():
            raise sweep_error(route, sol, a.T, fixed[0].T, nodes, t, alphas)
        value[:, nodes] = -sol.lse.reshape(nb, m)
        lam[:, nodes] = sol.lam.reshape(nb, m, d)
        q_edge[:, ch] = sol.w.reshape(nb, m, k).transpose(0, 2, 1)
        iterations += sol.iterations.reshape(nb, m).sum(axis=1)
        np.maximum(max_resid, sol.residual.reshape(nb, m).max(axis=1), out=max_resid)
    q_edge[:, 0] = 1.0  # after the sweep: padded children write the root's slot
    diag = {"iterations": iterations, "max_residual": max_resid}
    return value, lam, q_edge, diag


def _entropy_result(tree, cost, value, lam, q_edge, diag, row, tol):
    """Row ``row`` of an entropic sweep as an :class:`EntropyResult`."""
    measure = MeasureProcess.from_edges(tree, q_edge[row], tol=tol)
    return EntropyResult(measure, value[row], lam[row], float(np.exp(value[row, 0])),
                         cost, int(diag["iterations"][row]),
                         float(diag["max_residual"][row]), tree.degenerate_nodes)


def minimal_entropy_measure(tree: EventTree, terminal_cost=None, *,
                            tol: Tolerances = DEFAULT) -> EntropyResult:
    """Entropy-optimal martingale measure of an event tree.

    With ``terminal_cost=None`` this is the measure minimizing relative
    entropy to the tree's reference kernels among all martingale
    measures.  A terminal cost array (aligned with the terminal slice)
    tilts the optimization toward claim-adjusted measures: the recursion
    minimizes ``E_Q[log(dQ/dP) + cost(omega)]``.

    Returns an :class:`EntropyResult`; its ``value_surface`` is the
    optimal conditional cost-to-go and satisfies the exponential-of-gains
    structure of the terminal density exactly (see
    :func:`verify_entropy_structure`).  The zero-cost result depends only
    on the tree and ``tol``, so it is swept once per pair and returned
    read-only on every later call; an explicit ``terminal_cost`` always
    runs a fresh sweep.
    """
    zero = terminal_cost is None
    if zero and tol in tree._zero_legs:
        return tree._zero_legs[tol]
    cost = np.zeros(tree.terminal_nodes.size) if zero else \
        np.asarray(terminal_cost, dtype=np.float64)
    if cost.ndim != 1:
        raise TreeStructureError("terminal cost must align with the terminal slice")
    result = _entropy_result(tree, cost, *_entropic_sweep(tree, cost, tol), 0, tol)
    if not zero:
        return result
    # every later call returns this object, so no caller may write to it
    for a in (result.value_surface, result.multipliers, result.terminal_cost):
        a.setflags(write=False)
    return tree._zero_legs.setdefault(tol, result)


def claim_tilted_measure(tree: EventTree, claim: ClaimSpec, alpha: float, *,
                         tol: Tolerances = DEFAULT) -> EntropyResult:
    """Entropy-optimal measure tilted by ``-alpha * claim`` at the horizon."""
    return minimal_entropy_measure(tree, -float(alpha) * claim.values, tol=tol)


# ---------------------------------------------------------------------------
# densities, entropies, expectations


def density_process(tree: EventTree, measure: MeasureProcess,
                    reference: MeasureProcess | None = None) -> DensitySurface:
    """Running density of ``measure`` against ``reference`` (default: the
    tree's kernels), computed in log domain."""
    ref = tree.edge_prob if reference is None else reference.edge_prob
    ratio = np.ones(tree.n_nodes)
    ratio[1:] = measure.edge_prob[1:] / ref[1:]
    log_z = tree.forward(np.add, np.log(ratio))
    return DensitySurface(np.exp(log_z), log_z, ratio)


def node_probabilities(tree: EventTree, measure: MeasureProcess) -> np.ndarray:
    """Unconditional probability of each node under the measure."""
    return tree.forward(np.multiply, np.r_[1.0, measure.edge_prob[1:]])


def relative_entropy(tree: EventTree, measure: MeasureProcess,
                     reference: MeasureProcess | None = None) -> float:
    """H(Q | R) summed over terminal atoms."""
    dens = density_process(tree, measure, reference)
    prob = node_probabilities(tree, measure)
    term = tree.terminal_nodes
    return float(np.dot(prob[term], dens.log_z[term]))


def conditional_expectation(tree: EventTree, measure: MeasureProcess,
                            terminal_values: np.ndarray) -> np.ndarray:
    """Surface of conditional expectations of a terminal payoff."""
    x = np.zeros(tree.n_nodes)
    x[tree.terminal_nodes] = np.asarray(terminal_values, dtype=np.float64)
    return tree.backward(measure.edge_prob, x)


def expected_remaining(tree: EventTree, measure: MeasureProcess,
                       step_values: np.ndarray) -> np.ndarray:
    """Surface R with R[i] = E[ sum of step_values over nodes visited from
    i (inclusive) to the horizon (exclusive) | node i ].

    ``step_values`` is read at non-terminal nodes only.
    """
    step = np.array(step_values, dtype=np.float64)
    step[tree.terminal_nodes] = 0.0
    return tree.backward(measure.edge_prob, step)


def verify_entropy_structure(tree: EventTree, result: EntropyResult) -> float:
    """Max deviation of the terminal log-density from its structural form.

    Checks, along every terminal path,
    ``log Z_T = J_root - cost(omega) + sum_t lam_t . dS_t``;
    with zero terminal cost this is the exponential-of-gains form of the
    optimal density with constant ``scale_constant``.
    """
    dens = density_process(tree, result.measure)
    g = gains(tree, result.multipliers)
    term = tree.terminal_nodes
    predicted = result.value_surface[0] - result.terminal_cost + g[term]
    return float(np.max(np.abs(dens.log_z[term] - predicted)))
