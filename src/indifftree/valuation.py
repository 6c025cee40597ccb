"""Dynamic exponential-utility indifference values on event trees.

Two independent routes compute the same surface:

* primal — a backward sweep where each node solves the one-step
  exponential hedging problem under the entropy-optimal martingale
  measure Q^E:  C_t = (1/a) log min_theta E[ exp(a (C_{t+1} - theta . dS)) ].
  With J = -a C and lam = -a theta this is the entropic recursion with
  Q^E as reference kernels and terminal cost ``-a B``, so it runs on the
  one sweep engine of :mod:`measures` and reads back C = -J / a.

* dual — the difference of two entropic recursions under the reference
  measure, one with terminal cost ``-a B`` and one with zero cost,
  divided by a.

Exact one-step convex duality makes the two surfaces agree to solver
tolerance; the acceptance suite gates on that agreement.  The module
also houses the structural property checks of the value map (bounds,
monotonicity, convexity, translation, volume/risk-aversion scaling),
arbitrage-bound and attainability checks, time consistency of the dynamic
values (C_sigma(C_tau(B)) = C_sigma(B) for stopping times sigma <= tau),
and the one-step martingale optimality certificate.
"""

from dataclasses import dataclass, field

import numpy as np

from ._onestep import exp_min_batch
from .errors import NonMartingaleKernel, StoppingRuleError, TreeStructureError
from .lattice import (ClaimSpec, EventTree, _strictly_after, gains, random_strategy,
                      stopping_precedes)
from .measures import (EntropyResult, MeasureProcess, _entropic_sweep, _entropy_result,
                       minimal_entropy_measure)
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "ValuationSurface",
    "ValuationResult",
    "DualResult",
    "PropertyReport",
    "BoundsReport",
    "CertificateReport",
    "one_step_primal",
    "indifference_surface",
    "dual_surface",
    "property_checks",
    "arbitrage_bounds_check",
    "time_consistency_check",
    "optimality_certificate",
]


@dataclass
class ValuationSurface:
    """Indifference value at every node for one claim and one risk aversion."""

    values: np.ndarray
    alpha: float
    route: str  # "primal" | "dual"


@dataclass
class ValuationResult:
    surface: ValuationSurface
    strategy: np.ndarray      # (n, d) per-node optimal holdings
    iterations: int
    max_residual: float


@dataclass
class DualResult:
    """The dual surface and its two legs.  ``zero_leg`` is the tree's
    shared :func:`minimal_entropy_measure` result: its ``iterations``
    count the sweep that built it, not work done by this call."""

    surface: ValuationSurface
    zero_leg: EntropyResult
    claim_leg: EntropyResult


def _check_risk_aversion(alphas):
    if not np.all(np.isfinite(alphas) & np.greater(alphas, 0)):
        raise ValueError("risk aversion must be positive and finite")


def one_step_primal(q, ds, cont, alpha, *, tol: Tolerances = DEFAULT):
    """Single-node exponential hedging step.

    Returns ``(value, theta)`` with
    ``value = (1/alpha) log min_theta sum_i q_i exp(alpha (cont_i - theta . ds_i))``.

    ``q`` must be a martingale kernel for the increments (otherwise the
    objective has no minimizer and ``NonMartingaleKernel`` is raised).
    Rank-deficient increments give the minimal-norm minimizer.
    """
    q = np.asarray(q, dtype=np.float64)
    ds = np.atleast_2d(np.asarray(ds, dtype=np.float64))
    cont = np.asarray(cont, dtype=np.float64)
    if np.any(q <= 0.0):
        raise TreeStructureError("kernel must be strictly positive")
    _check_risk_aversion(alpha)
    drift = q @ ds
    if np.abs(drift).max() > 1e-8 * max(1.0, np.abs(ds).max()):
        raise NonMartingaleKernel(
            f"one-step kernel drift {np.abs(drift).max():.3e}; the hedging "
            "objective is unbounded below")
    res = exp_min_batch(np.log(q)[None, :], ds[None, :, :], cont[None, :],
                        float(alpha), newton_tol=tol.newton)
    return float(res.value[0]), res.multiplier[0]


def _primal_sweep(tree: EventTree, measure: MeasureProcess, claims: np.ndarray,
                  alphas, *, theta0=None, tol: Tolerances = DEFAULT):
    """Exponential-hedging sweep of a batch of claims under the martingale
    measure ``measure``: the entropic recursion with ``measure`` as
    reference kernels and cost ``-alpha B``, read back as C = -J / alpha
    and theta = -lam / alpha.

    ``claims`` is (B, n_term) terminal values, ``alphas`` (B,) the positive
    and finite per-row risk aversions and ``theta0`` an optional (B, n, d)
    warm start.  The claims are written back exactly at the horizon.
    Returns ``(values (B, n), theta (B, n, d), iterations (B,),
    max_residual (B,))``.
    """
    claims = np.atleast_2d(np.asarray(claims, dtype=np.float64))
    nb = claims.shape[0]
    alphas = np.broadcast_to(np.asarray(alphas, dtype=np.float64), (nb,))
    _check_risk_aversion(alphas)
    if not measure.martingale:
        raise NonMartingaleKernel("the valuation measure must be a martingale measure")
    scale = -alphas[:, None]
    j, lam, _, diag = _entropic_sweep(
        tree, scale * claims, tol, alphas, logp=np.log(measure.edge_prob),
        lam0=None if theta0 is None else scale[:, :, None] * theta0, route="primal")
    values = j / scale
    # the claims stay exact: -(-alpha B) / alpha can miss B by an ulp
    values[:, tree.terminal_nodes] = claims
    return values, lam / scale[:, :, None], diag["iterations"], diag["max_residual"]


def indifference_surface(tree: EventTree, claim: ClaimSpec, alpha: float,
                         measure: MeasureProcess | None = None, *,
                         tol: Tolerances = DEFAULT) -> ValuationResult:
    """Primal indifference value surface under the entropy-optimal measure.

    Parameters
    ----------
    tree : event tree.
    claim : terminal payoff.
    alpha : risk aversion, > 0.
    measure : entropy-optimal martingale kernels; when omitted, the
        tree's :func:`minimal_entropy_measure` (swept once per tree).

    Returns the value surface, the per-node optimal holdings, and Newton
    diagnostics.
    """
    alpha = float(alpha)
    _check_risk_aversion(alpha)  # before the measure is built, not after
    if measure is None:
        measure = minimal_entropy_measure(tree, tol=tol).measure
    values, theta, iters, resid = _primal_sweep(tree, measure, claim.values, alpha, tol=tol)
    return ValuationResult(ValuationSurface(values[0], alpha, "primal"),
                           theta[0], int(iters[0]), float(resid[0]))


def dual_surface(tree: EventTree, claim: ClaimSpec, alpha: float, *,
                 tol: Tolerances = DEFAULT) -> DualResult:
    """Dual indifference value surface from two entropic recursions.

    The claim leg runs with terminal cost ``-alpha * B`` (its optimal
    kernels form the claim-tilted measure), the zero leg with zero cost
    (minimal entropy measure); the surface is their scaled difference.
    The zero leg depends on neither the claim nor alpha: it is the
    tree's :func:`minimal_entropy_measure`, swept once per tree and
    tolerance set, so a call sweeps only the claim leg.
    """
    alpha = float(alpha)
    _check_risk_aversion(alpha)
    zero_leg = minimal_entropy_measure(tree, tol=tol)
    cost = -alpha * claim.values
    sweep = _entropic_sweep(tree, cost, tol, alphas=(alpha,))
    claim_leg = _entropy_result(tree, cost, *sweep, 0, tol)
    values = (zero_leg.value_surface - claim_leg.value_surface) / alpha
    return DualResult(ValuationSurface(values, alpha, "dual"), zero_leg, claim_leg)


# ---------------------------------------------------------------------------
# structural property checks


@dataclass
class PropertyReport:
    """Worst margins of the structural value-map properties.

    Every entry is a margin: inequality checks report the smallest slack,
    equality checks report minus the largest deviation.  A margin above
    ``-tol`` passes.
    """

    margins: dict = field(default_factory=dict)
    alpha: float = 1.0

    def worst(self) -> float:
        return min(self.margins.values()) if self.margins else 0.0

    def all_ok(self, tol: float = DEFAULT.equality) -> bool:
        return self.worst() >= -tol


def _surfaces(tree, measure, rows, tol=DEFAULT):
    """Value surfaces (B, n) of ``rows``, a list of (terminal values,
    alpha) pairs, priced in one batched primal sweep."""
    claims, alphas = zip(*rows)
    return _primal_sweep(tree, measure, np.stack(claims), alphas, tol=tol)[0]


def _time_measurable(tree: EventTree, t: int, rng, low=0.0, high=1.0):
    """A random variable known at time t, extended to the terminal slice."""
    x = np.zeros(tree.n_nodes)
    nodes = tree.slice_nodes(t)
    x[nodes] = rng.uniform(low, high, size=nodes.size)
    return tree.forward(np.add, x)


def property_checks(tree: EventTree, claim: ClaimSpec, alpha: float,
                    measure: MeasureProcess | None = None, *, seed: int = 0,
                    n_convexity: int = 3, tol: Tolerances = DEFAULT) -> PropertyReport:
    """Verify the structural properties of the indifference value map.

    Margins returned (all should be >= -tol.equality):

    - ``bounds``: |C_t(B)| <= |B|_inf at every non-terminal node (C_T = B).
    - ``monotone_claim``: B <= B' node-wise implies C(B) <= C(B').
    - ``convexity``: for random (B', t, lambda_t) with lambda_t known at
      time t, C(mix) <= lambda C(B) + (1-lambda) C(B') from time t on.
    - ``translation``: adding a time-t payment x_t shifts C by x_t from
      time t on (capital independence is the t=0 case).
    - ``volume_scaling``: C(beta B; alpha) = beta C(B; beta alpha).
    - ``monotone_alpha``: C is nondecreasing in risk aversion.
    - ``gamma_transfer``: C(g B; a) <= g C(B; a) for g in (0,1],
      reversed for g >= 1 (equality at g = 1).
    """
    rng = np.random.default_rng(seed + 2_024)
    if measure is None:
        measure = minimal_entropy_measure(tree, tol=tol).measure
    term = tree.terminal_nodes
    b = claim.values
    # every random input is drawn before the one batched sweep
    bump = rng.uniform(0.0, 0.8, size=term.size)
    mixes = []
    for _ in range(n_convexity):
        other = rng.uniform(-1.0, 1.0, size=term.size) * max(1.0, claim.sup_norm)
        t_mix = int(rng.integers(0, tree.horizon))
        mixes.append((other, t_mix, _time_measurable(tree, t_mix, rng)))
    t_pay = int(rng.integers(0, tree.horizon + 1))
    x = _time_measurable(tree, t_pay, rng, -1.0, 1.0)
    beta = float(rng.uniform(0.3, 2.5))
    alpha_hi = alpha * float(rng.uniform(1.5, 4.0))
    g_lo = float(rng.uniform(0.2, 0.9))
    g_hi = float(rng.uniform(1.1, 3.0))

    rows = [(b, alpha), (b + bump, alpha)]
    for other, _, lam_surface in mixes:
        lam_term = lam_surface[term]
        rows += [(other, alpha), (lam_term * b + (1 - lam_term) * other, alpha)]
    rows += [(b + x[term], alpha), (beta * b, alpha), (b, beta * alpha),
             (b, alpha_hi), (g_lo * b, alpha), (g_hi * b, alpha)]
    c = _surfaces(tree, measure, rows, tol)
    c_base, c_up = c[0], c[1]
    c_shift, lhs, c_beta, c_hi, c_glo, c_ghi = c[2 + 2 * n_convexity:]

    rep = PropertyReport(alpha=float(alpha))
    interior = tree.times < tree.horizon
    rep.margins["bounds"] = float(np.min((claim.sup_norm - np.abs(c_base))[interior]))
    rep.margins["monotone_claim"] = float(np.min(c_up - c_base))
    # node-wise convexity with time-measurable weights
    worst = np.inf
    for j, (_, t_mix, lam_surface) in enumerate(mixes):
        c_other, c_mix = c[2 + 2 * j], c[3 + 2 * j]
        from_t = tree.times >= t_mix
        gap = (lam_surface * c_base + (1 - lam_surface) * c_other - c_mix)[from_t]
        worst = min(worst, float(np.min(gap)))
    rep.margins["convexity"] = worst
    # translation by a time-t payment
    from_t = tree.times >= t_pay
    rep.margins["translation"] = -float(
        np.max(np.abs((c_shift - c_base - x)[from_t])))
    # volume scaling against risk aversion
    rep.margins["volume_scaling"] = -float(np.max(np.abs(lhs - beta * c_beta)))
    rep.margins["monotone_alpha"] = float(np.min(c_hi - c_base))
    # transfer of a fraction of the claim
    rep.margins["gamma_transfer"] = float(min(
        np.min(g_lo * c_base - c_glo), np.min(c_ghi - g_hi * c_base)))
    return rep


@dataclass
class BoundsReport:
    """Arbitrage bounds and attainability margins."""

    lower_margin: float
    upper_margin: float
    annihilation_residual: float
    attainable_residual: float

    def all_ok(self, tol: float = DEFAULT.equality) -> bool:
        return (min(self.lower_margin, self.upper_margin,
                    -self.annihilation_residual, -self.attainable_residual) >= -tol)


def arbitrage_bounds_check(tree: EventTree, claim: ClaimSpec, alpha: float,
                           measure: MeasureProcess | None = None, *,
                           seed: int = 0, n_strategies: int = 3,
                           tol: Tolerances = DEFAULT) -> BoundsReport:
    """Check the arbitrage-price sandwich and attainability annihilation.

    The indifference surface must lie between the sub- and
    super-replication surfaces; adding any self-financing gains
    ``G_T(theta)`` to the claim must shift the surface by the running
    gains exactly, and gains alone must price to the running gains.
    """
    from .superrep import subrep_surface, superrep_surface  # local import avoids a cycle

    if measure is None:
        measure = minimal_entropy_measure(tree, tol=tol).measure
    rng = np.random.default_rng(seed + 4_242)
    term = tree.terminal_nodes
    strategy_gains = [gains(tree, random_strategy(
        tree, int(rng.integers(0, 2 ** 31)), scale=0.7)) for _ in range(n_strategies)]
    rows = [(claim.values, alpha)]
    for g in strategy_gains:
        rows += [(g[term], alpha), (claim.values + g[term], alpha)]
    surfaces = _surfaces(tree, measure, rows, tol)
    c = surfaces[0]
    upper = superrep_surface(tree, claim).values
    lower = subrep_surface(tree, claim)
    lower_margin = float(np.min(c - lower))
    upper_margin = float(np.min(upper - c))

    worst_ann = 0.0
    worst_att = 0.0
    for j, g in enumerate(strategy_gains):
        c_gain, c_shift = surfaces[1 + 2 * j], surfaces[2 + 2 * j]
        worst_att = max(worst_att, float(np.max(np.abs(c_gain - g))))
        worst_ann = max(worst_ann, float(np.max(np.abs(c_shift - c - g))))
    return BoundsReport(lower_margin, upper_margin, worst_ann, worst_att)


def time_consistency_check(tree: EventTree, claim: ClaimSpec, alpha: float,
                           earlier, later,
                           measure: MeasureProcess | None = None, *,
                           tol: Tolerances = DEFAULT) -> float:
    """Residual of C_sigma(C_tau(B)) = C_sigma(B) for stopping times sigma
    = ``earlier`` <= tau = ``later`` (else ``StoppingRuleError``).

    C_tau(B), carried unchanged to the horizon (each path meets the cut
    once), is priced as a claim; returns its surface's max deviation from
    B's at or before ``earlier``.  At small alpha this carries the primal
    sweep's eps / alpha rounding (about 1e-10 at alpha = 1e-6).
    """
    if not stopping_precedes(tree, earlier, later):  # also validates both cuts
        raise StoppingRuleError("cut `earlier` comes after cut `later` on some path")
    if measure is None:
        measure = minimal_entropy_measure(tree, tol=tol).measure
    full = _surfaces(tree, measure, [(claim.values, alpha)], tol)[0]
    paid = np.zeros(tree.n_nodes)
    paid[later] = full[later]
    stopped_claim = tree.forward(np.add, paid)[tree.terminal_nodes]
    stopped = _surfaces(tree, measure, [(stopped_claim, alpha)], tol)[0]
    at_or_before = ~_strictly_after(tree, earlier)
    return float(np.max(np.abs(stopped - full)[at_or_before]))


@dataclass
class CertificateReport:
    """Martingale-optimality certificate margins (value units).

    submartingale_margin: min over random strategies and nodes of the
    one-step certificate slack (must be >= -tol).
    optimal_residual: max |slack| at the optimal strategy (= 0 ideally).
    curvature_ratio: slack growth factor under doubling of a hedge
    perturbation (= 4 for a second-order optimum).
    """

    submartingale_margin: float
    optimal_residual: float
    curvature_ratio: float


def _certificate_slack(tree: EventTree, measure: MeasureProcess,
                       values: np.ndarray, theta: np.ndarray, alpha: float):
    """Per-node slack (1/a)(log E[exp(a(C_child - theta dS))] - a C_node).

    The exponent is shifted by its max over each node's children, so the
    exponential cannot overflow at large alpha.
    """
    hedge = np.zeros(tree.n_nodes)
    hedge[1:] = np.einsum("nd,nd->n", tree.dprice[1:], theta[tree.parent[1:]])
    expo = np.log(measure.edge_prob) + alpha * (values - hedge)
    mx = tree.reduce_children(np.maximum, expo)
    shifted = np.exp(expo[1:] - mx[tree.parent[1:]])
    inner = tree.times < tree.horizon
    lse = np.log(tree.reduce_children(np.add, np.r_[0.0, shifted])[inner]) + mx[inner]
    slack = np.zeros(tree.n_nodes)
    slack[inner] = lse / alpha - values[inner]
    return slack


def optimality_certificate(tree: EventTree, claim: ClaimSpec, alpha: float,
                           result: ValuationResult,
                           measure: MeasureProcess | None = None, *,
                           seed: int = 0, n_strategies: int = 10,
                           perturbation: float = 1e-2,
                           tol: Tolerances = DEFAULT) -> CertificateReport:
    """One-step certificate that the computed surface is the optimum.

    For every strategy theta the process exp(a (C_t - G_t(theta))) is a
    submartingale under the valuation measure, with equality exactly at
    the optimal hedge; node-wise this reads
    ``(1/a) log E[exp(a (C_{t+1} - theta . dS)) | node] >= C_t``.
    Slacks are reported in value units.  A small hedge perturbation must
    grow the slack quadratically; the report carries the measured growth
    factor under doubling.
    """
    if measure is None:
        measure = minimal_entropy_measure(tree, tol=tol).measure
    values = result.surface.values
    alpha = float(alpha)
    rng = np.random.default_rng(seed + 11_000)
    interior = tree.times < tree.horizon

    worst = np.inf
    for _ in range(n_strategies):
        theta = random_strategy(tree, int(rng.integers(0, 2 ** 31)), scale=0.8)
        slack = _certificate_slack(tree, measure, values, theta, alpha)
        worst = min(worst, float(np.min(slack[interior])))

    opt_slack = _certificate_slack(tree, measure, values, result.strategy, alpha)
    optimal_residual = float(np.max(np.abs(opt_slack[interior])))

    bump = np.zeros_like(result.strategy)
    bump[:, 0] = perturbation
    s1 = _certificate_slack(tree, measure, values, result.strategy + bump, alpha)
    s2 = _certificate_slack(tree, measure, values, result.strategy + 2 * bump, alpha)
    tot1 = float(np.max(s1[interior]))
    tot2 = float(np.max(s2[interior]))
    ratio = tot2 / tot1 if tot1 > 0 else np.nan
    return CertificateReport(worst, optimal_residual, ratio)
