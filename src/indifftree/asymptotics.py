"""Risk-aversion sweeps: small-a and large-a behaviour of the valuation.

The exponential indifference value C_t(B; a) interpolates between two
classical objects as the risk-aversion parameter a moves:

* a -> 0: C converges to the martingale expectation E[B | F_t] under
  the entropy-optimal measure, at first order in a, with hedge and
  orthogonal parts converging to the projection decomposition of B
  itself.  On a finite tree the first-order structure is exact: the
  gap C_t - E[B | F_t] equals the conditionally expected remaining
  compensator of the value process, node by node, at machine precision.

* a -> infinity: C increases to the superreplication price C*, the
  value compensator approaches the superhedging consumption K*, and the
  hedge approaches a superhedging strategy in a weighted-L1 sense.  On
  a finite tree the value converges at rate 1/a: by the entropic dual
  representation C_t = max_Q (E_Q[B | F_t] - H_t(Q | Q^E)/a), and with
  Q* the measure built from the superhedging argmax kernels,

      0 <= C*_t - C_t <= H_t(Q* | Q^E) / a     at every node.

  The one-step orthogonal residual is an L2(q) contraction of the child
  values, so the orthogonal part converges to that of C* (not to 0) at
  the same rate: a ||L - L*||_BMO <= sqrt(T) max_t H_t(Q* | Q^E).

Distances that sit at the floating-point floor (attainable claims,
locally complete trees) are flagged trivial instead of being fed to a
log-log fit; fitting noise would report meaningless exponents.
"""

from dataclasses import dataclass, field

import numpy as np

from .bsde import (_bmo_sq, _decompose, bracket_weights, bsde_scheme,
                   exact_decomposition)
from .errors import ConfigError
from .lattice import ClaimSpec, EventTree, gains, random_stopping_rule
from .measures import (MeasureProcess, conditional_expectation,
                       expected_remaining, minimal_entropy_measure,
                       node_probabilities)
from .superrep import superrep_surface
from .tolerances import DEFAULT, Tolerances
from .valuation import _primal_sweep, _surfaces, indifference_surface

__all__ = [
    "SlopeFit",
    "SweepReport",
    "claim_projection",
    "bracket_weights",
    "weighted_norm_identity",
    "fit_loglog_slope",
    "compensator_identity_residual",
    "small_alpha_sweep",
    "strategy_convergence_small_alpha",
    "large_alpha_sweep",
    "lipschitz_in_alpha",
    "continuity_in_B",
]


@dataclass
class SlopeFit:
    slope: float
    stderr: float
    trivial: bool = False  # series at the float floor; fit skipped

    def within(self, lo: float, hi: float) -> bool:
        return self.trivial or (lo <= self.slope <= hi)

    def at_least(self, lo: float) -> bool:
        return self.trivial or self.slope >= lo


@dataclass
class SweepReport:
    """Per-alpha diagnostics plus fitted log-log rates.

    ``columns`` maps column name -> list aligned with ``alphas``; the
    first seven columns are the stable CSV schema (alpha, dist_sup,
    dist_psi_sq, dist_L_sq, bmo_psi, bmo_L, comp_dist), extra columns
    follow.  ``slopes`` holds log-log fits, ``extras`` anything scalar
    worth keeping (monotonicity flags, final gaps, bound margins).
    """

    alphas: list
    columns: dict
    slopes: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def rows(self):
        names = list(self.columns)
        out = []
        for j, a in enumerate(self.alphas):
            row = {"alpha": a}
            row.update({c: self.columns[c][j] for c in names})
            out.append(row)
        return out

    def summary(self):
        return {
            "alphas": list(self.alphas),
            "slopes": {k: {"slope": v.slope, "stderr": v.stderr,
                           "trivial": v.trivial} for k, v in self.slopes.items()},
            "extras": dict(self.extras),
        }


def claim_projection(tree: EventTree, claim: ClaimSpec,
                     measure: MeasureProcess | None = None, *,
                     tol: Tolerances = DEFAULT):
    """Projection decomposition of the claim under the valuation measure.

    Returns a decomposition whose value surface is the martingale
    E[B | F_t], with hedge psi_e and orthogonal increments L_e — the
    a -> 0 targets of the sweeps.  (The quadratic recursion at a = 0 is
    exactly this projection; the compensator vanishes.)
    """
    if measure is None:
        measure = minimal_entropy_measure(tree, tol=tol).measure
    return bsde_scheme(tree, claim, 0.0, measure, tol=tol)


def weighted_norm_identity(tree: EventTree, measure: MeasureProcess,
                           theta: np.ndarray):
    """Both sides of the discrete energy identity for a strategy.

    ``E[(sum theta . dS)^2] = sum_nodes Q(node) theta^T w theta`` with w
    the one-step bracket weights; the left side is computed pathwise
    from terminal gains, the right from :func:`bracket_weights`.  Exact
    because cross terms vanish under the martingale property.
    """
    probs = node_probabilities(tree, measure)
    g = gains(tree, theta)
    lhs = float(probs[tree.terminal_nodes] @ g[tree.terminal_nodes] ** 2)
    w = bracket_weights(tree, measure)
    quad = np.einsum("nd,nde,ne->n", theta, w, theta)
    nonterm = tree.times < tree.horizon
    rhs = float(probs[nonterm] @ quad[nonterm])
    return lhs, rhs


def fit_loglog_slope(x, y, *, floor: float = 0.0) -> SlopeFit:
    """Least-squares slope of log y against log x with its standard error.

    A series whose maximum is at or below ``floor`` is numerically zero
    across the grid; it is flagged trivial and not fitted.  Points at or
    below the floor are excluded from mixed series (they carry no rate
    information); fewer than three surviving points is also trivial.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y.max() <= floor:
        return SlopeFit(np.nan, np.nan, trivial=True)
    keep = y > max(floor, 0.0)
    if keep.sum() < 3:
        return SlopeFit(np.nan, np.nan, trivial=True)
    lx, ly = np.log(x[keep]), np.log(y[keep])
    (slope, _), cov = np.polyfit(lx, ly, 1, cov=True)
    return SlopeFit(float(slope), float(np.sqrt(cov[0, 0])))


def _check_grid(grid, lo, hi, name):
    g = [float(a) for a in grid]
    if len(g) < 2 or any(b <= a for a, b in zip(g, g[1:])):
        raise ConfigError(f"{name} grid must be strictly increasing")
    if g[0] < lo or g[-1] > hi:
        raise ConfigError(f"{name} grid must lie in [{lo}, {hi}]")
    return g


def compensator_identity_residual(tree: EventTree, claim: ClaimSpec,
                                  alpha: float,
                                  measure: MeasureProcess | None = None, *,
                                  tol: Tolerances = DEFAULT) -> float:
    """Max node-wise residual of the exact first-order identity.

    ``C_t - E[B | F_t] = E[A_T - A_t | F_t]`` with A the value-process
    compensator: the sharpest cross-module self-check, exact in discrete
    time at every risk aversion (not only small a).
    """
    if measure is None:
        measure = minimal_entropy_measure(tree, tol=tol).measure
    res = indifference_surface(tree, claim, alpha, measure, tol=tol)
    remaining = expected_remaining(
        tree, measure, exact_decomposition(tree, res, measure).compensator_step)
    ve = conditional_expectation(tree, measure, claim.values)
    return float(np.abs(res.surface.values - ve - remaining).max())


def _conditional_entropy(tree: EventTree, edge_prob: np.ndarray,
                         ref_edge_prob: np.ndarray) -> np.ndarray:
    """Surface H with H[i] = H_i(Q | R), the relative entropy of the
    kernels ``edge_prob`` against ``ref_edge_prob`` from node i to the
    horizon.  Zero kernel entries contribute 0 (0 log 0 = 0), so Q may
    sit on the boundary of the simplex; R must be strictly positive.
    """
    pos = edge_prob > 0.0
    q = np.where(pos, edge_prob, 0.0)
    log_ratio = np.log(np.where(pos, edge_prob, 1.0) / ref_edge_prob)
    return tree.backward(q, tree.reduce_children(np.add, q * log_ratio))


def small_alpha_sweep(tree: EventTree, claim: ClaimSpec, grid,
                      measure: MeasureProcess | None = None, *,
                      tol: Tolerances = DEFAULT) -> SweepReport:
    """Sweep a geometric grid in (0, 1] toward the projection limit.

    Columns: dist_sup = max node |C - E[B|.]|; dist_psi_sq / dist_L_sq =
    squared BMO distances of hedge gains and orthogonal parts to the
    claim projection's; bmo_psi / bmo_L = BMO norms of the decomposition
    at each a; comp_dist = residual of the exact first-order identity
    (machine-zero is the expected outcome, and is asserted upstream).
    Slopes: dist_sup ~ a (within 10%), squared distances ~ a^2.
    """
    grid = _check_grid(grid, 0.0, 1.0, "small-alpha")
    if measure is None:
        measure = minimal_entropy_measure(tree, tol=tol).measure
    # the last row, E[B | F_t], decomposes into the claim projection
    surfaces = np.vstack([
        _surfaces(tree, measure, [(claim.values, a) for a in grid], tol),
        conditional_expectation(tree, measure, claim.values)])
    sol = _decompose(tree, measure, surfaces, [*grid, 0.0], scheme=False)
    values, proj = surfaces[:-1], surfaces[-1]
    remaining = expected_remaining(tree, measure, sol.compensator_step[:-1].T).T
    dpsi_sq, dl_sq = _bmo_sq(tree, measure, sol.psi[:-1] - sol.psi[-1],
                             sol.d_orth[:-1] - sol.d_orth[-1])
    psi_sq, orth_sq = _bmo_sq(tree, measure, sol.psi[:-1], sol.d_orth[:-1])
    cols = {
        "dist_sup": np.abs(values - proj).max(axis=1),
        "dist_psi_sq": dpsi_sq,
        "dist_L_sq": dl_sq,
        "bmo_psi": np.sqrt(psi_sq),
        "bmo_L": np.sqrt(orth_sq),
        "comp_dist": np.abs(values - proj - remaining).max(axis=1),
    }
    cols = {k: v.tolist() for k, v in cols.items()}
    sup_floor = tol.equality / 100.0
    sq_floor = tol.equality ** 2
    slopes = {
        "dist_sup": fit_loglog_slope(grid, cols["dist_sup"], floor=sup_floor),
        "dist_psi_sq": fit_loglog_slope(grid, cols["dist_psi_sq"], floor=sq_floor),
        "dist_L_sq": fit_loglog_slope(grid, cols["dist_L_sq"], floor=sq_floor),
    }
    extras = {
        "identity_residual_max": max(cols["comp_dist"]),
        "dist_sup_final": cols["dist_sup"][0],
    }
    return SweepReport(grid, cols, slopes, extras)


def strategy_convergence_small_alpha(tree: EventTree, claim: ClaimSpec, grid,
                                     measure: MeasureProcess | None = None, *,
                                     tol: Tolerances = DEFAULT) -> SweepReport:
    """Small-a sweep focused on the hedging side.

    Same columns as :func:`small_alpha_sweep`; additionally records the
    worst node-wise deviation of the hedge from the claim projection's
    hedge at the smallest grid point (which must be O(a)).
    """
    if measure is None:
        measure = minimal_entropy_measure(tree, tol=tol).measure
    rep = small_alpha_sweep(tree, claim, grid, measure, tol=tol)
    proj = claim_projection(tree, claim, measure, tol=tol)
    res = indifference_surface(tree, claim, rep.alphas[0], measure, tol=tol)
    nonterm = tree.times < tree.horizon
    dev = float(np.abs(res.strategy[nonterm] - proj.psi[nonterm]).max())
    rep.extras["psi_dev_at_smallest_alpha"] = dev
    rep.extras["smallest_alpha"] = rep.alphas[0]
    return rep


def large_alpha_sweep(tree: EventTree, claim: ClaimSpec, grid,
                      measure: MeasureProcess | None = None, *,
                      n_rules: int = 3, n_tests: int = 10, seed: int = 0,
                      tol: Tolerances = DEFAULT) -> SweepReport:
    """Sweep an ascending grid in [1, 2^10] toward the superhedging limit.

    Tracks, per a: the sup-node distance to C*; the squared weighted-L2
    and the weighted-L1 hedge distances to the superhedging strategy;
    the L1 and the signed-mean distance between the value compensator
    at the horizon and the superhedging consumption K*_T; the same L1
    distance at ``n_rules`` random stopping rules; pairings of the
    terminal gain difference against ``n_tests`` bounded test variables;
    BMO norms with the (1+a)-weighted bound margins; and ``bmo_L_dist``,
    the BMO distance of the orthogonal part to that of C*.  Monotonicity
    flags and final values land in ``extras``.

    The 1/a rate of the module docstring is reported as margins that are
    nonnegative when it holds: ``entropy_gap_margin`` (min over grid and
    nodes of H_t(Q* | Q^E)/a + tol.equality - (C*_t - C_t)),
    ``node_gap_min`` (min over grid and nodes of C*_t - C_t) and
    ``bmo_L_dist_margin`` (min over grid of sqrt(T) H*/a + tol.equality
    - bmo_L_dist, with H* = ``cstar_entropy_max``).

    The weighted bound (1+a) ||L||_BMO^2 <= 2 e^{2||B||} 1.1 transcribes a
    continuous-time estimate.  On a tree ``bmo_L`` tends to the nonzero
    BMO norm of C*'s orthogonal part, so the weighted side grows like a
    and the margin is positive only because the grid stops at 2^10.
    """
    grid = _check_grid(grid, 1.0, 2.0 ** 10, "large-alpha")
    if measure is None:
        measure = minimal_entropy_measure(tree, tol=tol).measure
    probs = node_probabilities(tree, measure)
    term = tree.terminal_nodes
    nonterm = tree.times < tree.horizon

    star = superrep_surface(tree, claim, decompose=True)
    star_entropy = _conditional_entropy(tree, star.argmax_edge,
                                        measure.edge_prob)
    kstar = tree.forward(np.add, star.dk)
    w = bracket_weights(tree, measure)

    rng = np.random.default_rng(seed + 77)
    rules = [random_stopping_rule(tree, seed=int(rng.integers(0, 2 ** 31)))
             for _ in range(n_rules)]
    tests = rng.uniform(-1.0, 1.0, size=(n_tests, term.size))

    # warm-started pricing, one sweep per a; C* rides as the last row of
    # the one decomposition
    values, strategy = [], []
    for a in grid:
        v, th, _, _ = _primal_sweep(tree, measure, claim.values, a,
                                    theta0=strategy[-1] if strategy else None, tol=tol)
        values.append(v[0])
        strategy.append(th)
    values, strategy = np.array(values), np.concatenate(strategy)
    sol = _decompose(tree, measure, np.vstack([values, star.values]),
                     [*grid, np.inf], scheme=False)
    comp = sol.compensator[:-1]
    node_gap = star.values - values
    dpsi = strategy - star.psi
    quad = np.einsum("bnd,nde,bne->bn", dpsi, w, dpsi)[:, nonterm]
    diff_T = comp[:, term] - kstar[term]
    gd = np.array([gains(tree, th)[term] for th in dpsi])
    psi_sq, orth_sq = _bmo_sq(tree, measure, sol.psi[:-1], sol.d_orth[:-1])
    _, dl_sq = _bmo_sq(tree, measure, strategy - sol.psi[-1],
                       sol.d_orth[:-1] - sol.d_orth[-1])
    cols = {
        "dist_sup": np.abs(node_gap).max(axis=1),
        "dist_psi_sq": quad @ probs[nonterm],
        "dist_L_sq": diff_T ** 2 @ probs[term],
        "bmo_psi": np.sqrt(psi_sq),
        "bmo_L": np.sqrt(orth_sq),
        "comp_dist": np.abs(diff_T) @ probs[term],
        "c0": values[:, 0],
        "gap": node_gap[:, 0],
        "wl1_psi": np.sqrt(np.clip(quad, 0.0, None)) @ probs[nonterm],
        "weak_max": np.abs((gd * probs[term]) @ tests.T).max(axis=1),
    }
    for j, rule in enumerate(rules):
        cols[f"comp_dist_rule{j}"] = np.abs(comp[:, rule] - kstar[rule]) @ probs[rule]
    cols["bmo_L_dist"] = np.sqrt(dl_sq)
    alphas = np.array(grid)
    bnorm = claim.sup_norm
    bound_psi = np.sqrt(2.0) * np.exp(bnorm) * 1.1
    bound_l = 2.0 * np.exp(2.0 * bnorm) * 1.1
    lhs_l = float(((1.0 + alphas) * cols["bmo_L"] * cols["bmo_L"]).max())
    bmo_psi_max = float(cols["bmo_psi"].max())
    h_max = float(star_entropy.max())
    dist_bound = np.sqrt(tree.horizon) * h_max
    extras = {
        "monotone_c0": bool(np.all(np.diff(cols["c0"]) >= -1e-12)),
        "monotone_gap": bool(np.all(np.diff(cols["gap"]) <= 1e-12)),
        "monotone_comp_dist": bool(np.all(np.diff(cols["comp_dist"]) <= 1e-12)),
        "monotone_wl1_psi": bool(np.all(np.diff(cols["wl1_psi"]) <= 1e-12)),
        "final_gap": float(cols["gap"][-1]),
        "final_comp_dist": float(cols["comp_dist"][-1]),
        "final_wl1_psi": float(cols["wl1_psi"][-1]),
        "final_weak_max": float(cols["weak_max"][-1]),
        "cstar0": float(star.values[0]),
        "bmo_psi_max": bmo_psi_max,
        "bmo_psi_bound": bound_psi,
        "bmo_psi_margin": bound_psi - bmo_psi_max,
        "weighted_bmo_L_sq_max": lhs_l,
        "weighted_bmo_L_sq_bound": bound_l,
        "weighted_bmo_L_sq_margin": bound_l - lhs_l,
        "cstar_entropy_max": h_max,
        "entropy_gap_margin": float(
            (star_entropy / alphas[:, None] + tol.equality - node_gap).min()),
        "node_gap_min": float(node_gap.min()),
        "bmo_L_dist_margin": float(
            (dist_bound / alphas + tol.equality - cols["bmo_L_dist"]).min()),
    }
    cols = {k: v.tolist() for k, v in cols.items()}
    slopes = {"bmo_L": fit_loglog_slope(grid, cols["bmo_L"],
                                        floor=tol.equality / 100.0)}
    return SweepReport(grid, cols, slopes, extras)


def lipschitz_in_alpha(tree: EventTree, claim: ClaimSpec, *,
                       gamma: float = 8.0, n_pairs: int = 50, seed: int = 0,
                       levels: int = 3,
                       measure: MeasureProcess | None = None,
                       tol: Tolerances = DEFAULT) -> dict:
    """Empirical local Lipschitz constant of a -> C(B; a) on (0, gamma].

    Draws seeded base points with random offsets, computes the divided
    difference of the sup-norm of the surface change, then shrinks the
    offsets geometrically (``levels`` times).  The estimated constant
    must be stable under refinement: each successive estimate within a
    factor 1.05 of the previous one.
    """
    if measure is None:
        measure = minimal_entropy_measure(tree, tol=tol).measure
    rng = np.random.default_rng(seed + 4_096)
    base = rng.uniform(0.05 * gamma, 0.95 * gamma, size=n_pairs)
    offs = rng.uniform(0.01, 1.0, size=n_pairs) * (gamma - base)

    # alphas equal to 14 decimals share one surface; all are priced in
    # one batched sweep
    distinct = {}
    for level in range(levels):
        for a, delta in zip(base, offs * (0.5 ** level)):
            for x in (float(a + delta), float(a)):
                distinct.setdefault(round(x, 14), x)
    surfaces = dict(zip(distinct, _surfaces(
        tree, measure, [(claim.values, a) for a in distinct.values()], tol)))

    def surface(a):
        return surfaces[round(float(a), 14)]

    khats = []
    for level in range(levels):
        d = offs * (0.5 ** level)
        khat = 0.0
        for a, delta in zip(base, d):
            diff = np.abs(surface(a + delta) - surface(a)).max()
            khat = max(khat, float(diff / delta))
        khats.append(khat)
    ratios = [khats[j + 1] / khats[j] if khats[j] > 0 else 1.0
              for j in range(len(khats) - 1)]
    return {
        "khat": khats,
        "ratios": ratios,
        "stable": bool(all(r <= 1.05 for r in ratios)),
        "gamma": gamma,
    }


def continuity_in_B(tree: EventTree, claim: ClaimSpec,
                    perturbed: list, alphas=(0.5, 2.0, 8.0),
                    measure: MeasureProcess | None = None, *,
                    tol: Tolerances = DEFAULT) -> dict:
    """Claim-perturbation stability: the valuation is 1-Lipschitz in B.

    For each perturbed claim B' and each a, the surface moves by at most
    ||B' - B||_inf in the sup norm (a model-free consequence of the
    monotonicity and translation properties).  Returns per-perturbation
    sup-norm input distances, measured output distances, and margins
    (input - output, all >= 0 up to tolerance).
    """
    if measure is None:
        measure = minimal_entropy_measure(tree, tol=tol).measure
    claims = [claim, *perturbed]
    surfaces = _surfaces(tree, measure, [(cl.values, a) for cl in claims
                                         for a in alphas], tol)
    surfaces = surfaces.reshape(len(claims), len(alphas), tree.n_nodes)
    input_d, output_d, margins = [], [], []
    for cl, vals in zip(perturbed, surfaces[1:]):
        din = float(np.abs(cl.values - claim.values).max())
        dout = float(np.abs(vals - surfaces[0]).max())
        input_d.append(din)
        output_d.append(dout)
        margins.append(din - dout)
    return {
        "input_dist": input_d,
        "output_dist": output_d,
        "margins": margins,
        "worst_margin": min(margins) if margins else 0.0,
        "alphas": list(alphas),
    }
