"""Indifference valuation: independent oracles, then the dual route and
the structural property battery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from indifftree import (ClaimSpec, arbitrage_bounds_check, dual_surface,
                        gains, horizon_rule, indifference_surface,
                        minimal_entropy_measure, optimality_certificate,
                        property_checks, random_claim, random_stopping_rule,
                        random_strategy, random_tree, time_consistency_check,
                        tree_from_nodes, valuation)
from indifftree.errors import StoppingRuleError
from indifftree.lattice import stopping_precedes
from indifftree.valuation import one_step_primal
from conftest import corpus_instance


# ---------------------------------------------------------------------------
# oracles


def one_step_primal_oracle(q, ds, cont, alpha):
    """Bounded scalar search for the one-asset exponential hedging step."""
    def f(theta):
        x = alpha * (cont - theta * ds)
        m = x.max()
        return (m + np.log(np.exp(x - m) @ q)) / alpha

    res = optimize.minimize_scalar(f, bounds=(-500.0, 500.0),
                                   method="bounded",
                                   options={"xatol": 1e-13})
    return float(res.fun), float(res.x)


def whole_tree_value_oracle(tree, claim, alpha):
    """Root indifference value via direct strategy-space minimization.

    exp-utility dynamic programming collapses to
    log(min E[exp(a(B - G))]) / a - log(min E[exp(-a G)]) / a with both
    minima over predictable strategies; BFGS over the stacked strategy
    vector is accurate on the tiny trees this is applied to.
    """
    nonterm = np.flatnonzero(tree.times < tree.horizon)
    term = tree.terminal_nodes
    prob = np.ones(tree.n_nodes)
    for t in range(1, tree.horizon + 1):
        nodes = tree.slice_nodes(t)
        prob[nodes] = prob[tree.parent[nodes]] * tree.edge_prob[nodes]
    p_term = prob[term]

    def log_mgf(flat, target):
        theta = np.zeros((tree.n_nodes, tree.n_assets))
        theta[nonterm] = flat.reshape(nonterm.size, tree.n_assets)
        x = alpha * (target - gains(tree, theta)[term])
        m = x.max()
        return m + np.log(np.exp(x - m) @ p_term)

    out = []
    for target in (claim.values, np.zeros(term.size)):
        res = optimize.minimize(log_mgf, np.zeros(nonterm.size * tree.n_assets),
                                args=(target,), method="BFGS",
                                options={"gtol": 1e-12, "maxiter": 800})
        out.append(res.fun)
    return (out[0] - out[1]) / alpha


# ---------------------------------------------------------------------------
# oracle comparisons


@pytest.mark.parametrize("seed", range(10))
def test_one_step_primal_against_scalar_search(seed):
    rng = np.random.default_rng(900 + seed)
    k = int(rng.integers(2, 7))
    ds = rng.normal(scale=0.3, size=k)
    ds[0] = -abs(ds[0]) - 0.02
    ds[-1] = abs(ds[-1]) + 0.02
    # a strictly positive martingale kernel for these increments
    q = rng.dirichlet(np.ones(k))
    lam = -(q @ ds) / (q @ (ds * ds))
    q = q * (1.0 + lam * ds)
    q = np.where(q > 1e-6, q, 1e-6)
    # re-solve the tilt so the kernel is exactly martingale
    from scipy.optimize import brentq
    g = lambda m: (q * np.exp(m * ds)) @ ds
    m = brentq(g, -200, 200, xtol=1e-15)
    q = q * np.exp(m * ds)
    q /= q.sum()
    cont = rng.normal(scale=0.8, size=k)
    alpha = float(rng.choice([0.25, 1.0, 4.0]))

    val, theta = one_step_primal(q, ds.reshape(-1, 1), cont, alpha)
    val_o, theta_o = one_step_primal_oracle(q, ds, cont, alpha)
    assert abs(val - val_o) < 1e-10
    assert abs(float(theta[0]) - theta_o) < 1e-5


@pytest.mark.parametrize("alpha", [0.25, 1.0, 4.0])
def test_root_value_against_strategy_space_search(alpha):
    tree = random_tree(2, (2, 3), 1, seed=21)
    claim = random_claim(tree, seed=22, bound=1.0)
    res = indifference_surface(tree, claim, alpha)
    oracle = whole_tree_value_oracle(tree, claim, alpha)
    assert abs(res.surface.values[0] - oracle) < 1e-6


def test_root_value_oracle_two_assets():
    tree = random_tree(2, 3, 2, seed=30)
    claim = random_claim(tree, seed=31, bound=1.0)
    res = indifference_surface(tree, claim, 1.0)
    oracle = whole_tree_value_oracle(tree, claim, 1.0)
    assert abs(res.surface.values[0] - oracle) < 1e-6


# ---------------------------------------------------------------------------
# primal vs dual and surface structure


@pytest.mark.parametrize("i,alpha", [(0, 0.25), (1, 1.0), (2, 4.0), (7, 1.0)])
def test_primal_equals_dual_nodewise(i, alpha):
    tree, claim = corpus_instance(i)
    res = indifference_surface(tree, claim, alpha)
    dual = dual_surface(tree, claim, alpha)
    gap = np.abs(res.surface.values - dual.surface.values).max()
    assert gap < 1e-9


def test_terminal_values_are_the_claim(tree11, call11):
    res = indifference_surface(tree11, call11, 2.0)
    np.testing.assert_allclose(res.surface.values[tree11.terminal_nodes],
                               call11.values, atol=1e-12)


def test_frozen_seed11_call_value(tree11, call11):
    res = indifference_surface(tree11, call11, 1.0)
    assert abs(res.surface.values[0] - 0.06943319084140676) < 1e-12


def test_property_battery(tree11, call11):
    rep = property_checks(tree11, call11, 1.0, seed=4)
    assert rep.worst() >= -1e-9, rep


def test_property_battery_on_corpus_sample():
    for i in [2, 5, 11]:
        tree, claim = corpus_instance(i)
        rep = property_checks(tree, claim, 1.0, seed=i)
        assert rep.worst() >= -1e-9, (i, rep)


def test_bounds_margin_shows_slack():
    # at the horizon C = B, so a min over every node would read 0
    tree, claim = corpus_instance(0)
    assert property_checks(tree, claim, 1.0, seed=0).margins["bounds"] > 0


@pytest.mark.parametrize("alpha", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("entry", ["indifference_surface", "dual_surface",
                                   "one_step_primal"])
def test_risk_aversion_must_be_positive_and_finite(tree11, call11, entry, alpha):
    calls = {
        "indifference_surface": lambda: indifference_surface(tree11, call11, alpha),
        "dual_surface": lambda: dual_surface(tree11, call11, alpha),
        "one_step_primal": lambda: one_step_primal([0.5, 0.5], [[1.0], [-1.0]],
                                                   [0.0, 1.0], alpha),
    }
    with pytest.raises(ValueError, match="positive and finite"):
        calls[entry]()


def test_arbitrage_sandwich_and_annihilation(tree11, call11):
    rep = arbitrage_bounds_check(tree11, call11, 1.0, seed=1)
    assert rep.lower_margin >= -1e-9
    assert rep.upper_margin >= -1e-9
    assert rep.annihilation_residual < 1e-9
    assert rep.attainable_residual < 1e-9


def test_attainable_claim_priced_exactly():
    """For B = x0 + G(theta) the value is x0 + G at every node, any alpha."""
    tree = random_tree(3, 3, 1, seed=14)
    theta = random_strategy(tree, seed=2, scale=0.7)
    g = gains(tree, theta)
    claim = ClaimSpec(values=0.3 + g[tree.terminal_nodes])
    for alpha in (0.5, 8.0):
        res = indifference_surface(tree, claim, alpha)
        np.testing.assert_allclose(res.surface.values, 0.3 + g, atol=1e-10)


def _off_span(tree, x):
    """Per non-terminal node, the part of x[i] outside the span of the
    node's increments."""
    out = np.zeros(tree.n_nodes)
    for i in np.flatnonzero(tree.times < tree.horizon):
        _, sv, vt = np.linalg.svd(tree.increments(i))
        null = vt[int((sv > 1e-12 * sv[0]).sum()):]
        out[i] = np.abs(null @ x[i]).max(initial=0.0)
    return out


def test_rank_deficient_hedges_are_minimal_norm():
    # node 12 (k = 2, rank 1): pseudo-inverse Newton steps inverted the
    # rounding noise of its covariance and left theta a component of 497
    # outside the span of the increments
    tree = random_tree(3, (2, 4), 2, seed=28)
    claim = random_claim(tree, seed=29)
    assert np.linalg.matrix_rank(tree.increments(12)) == 1
    theta = indifference_surface(tree, claim, 8.0).strategy
    lam = dual_surface(tree, claim, 8.0).claim_leg.multipliers
    for x in (theta, lam):
        bound = 1e-12 * np.maximum(1.0, np.abs(x).max(axis=1))
        assert np.all(_off_span(tree, x) <= bound)


def test_translation_exact(tree11, call11):
    res0 = indifference_surface(tree11, call11, 2.0)
    shifted = ClaimSpec(values=call11.values + 0.37)
    res1 = indifference_surface(tree11, shifted, 2.0)
    np.testing.assert_allclose(res1.surface.values,
                               res0.surface.values + 0.37, atol=1e-10)


def test_monotone_in_alpha(tree11, call11):
    vals = [indifference_surface(tree11, call11, a).surface.values[0]
            for a in (0.25, 0.5, 1.0, 2.0, 4.0)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_time_consistency(tree11, call11):
    for seed in range(4):
        later = random_stopping_rule(tree11, seed=seed)
        other = random_stopping_rule(tree11, seed=seed + 10)
        for earlier in ([0], _first_of(tree11, later, other)):
            resid = time_consistency_check(tree11, call11, 1.5, earlier, later)
            assert resid < 1e-9


def _first_of(tree, *cuts):
    """The pathwise first of several cuts: a cut that precedes each of them."""
    mark = np.zeros(tree.n_nodes)
    mark[np.concatenate(cuts)] = 1.0
    return np.flatnonzero((mark > 0) & (tree.forward(np.add, mark) == mark))


@st.composite
def consistency_cases(draw):
    lo = draw(st.integers(2, 8))
    tree = random_tree(draw(st.integers(2, 4)), (lo, draw(st.integers(lo, 8))),
                       draw(st.integers(1, 3)), seed=draw(st.integers(0, 2 ** 16)))
    claim = random_claim(tree, seed=draw(st.integers(0, 2 ** 16)))
    alpha = 10.0 ** draw(st.floats(-2.0, np.log10(64.0)))
    later = random_stopping_rule(tree, seed=draw(st.integers(0, 2 ** 16)))
    if draw(st.booleans()):
        earlier = np.array([0])
    else:
        other = random_stopping_rule(tree, seed=draw(st.integers(0, 2 ** 16)))
        earlier = _first_of(tree, later, other)
    return tree, claim, alpha, earlier, later


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(consistency_cases())
def test_time_consistency_on_random_cuts(case):
    tree, claim, alpha, earlier, later = case
    assert stopping_precedes(tree, earlier, later)
    assert time_consistency_check(tree, claim, alpha, earlier, later) <= 1e-9


def test_time_consistency_check_catches_a_mispriced_stopped_claim(tree11, call11,
                                                                   monkeypatch):
    surfaces = valuation._surfaces

    def stopped_claim_at_double_alpha(tree, measure, rows, tol):
        rows = [(v, a if np.array_equal(v, call11.values) else 2 * a) for v, a in rows]
        return surfaces(tree, measure, rows, tol)

    monkeypatch.setattr(valuation, "_surfaces", stopped_claim_at_double_alpha)
    later = random_stopping_rule(tree11, seed=1)
    assert time_consistency_check(tree11, call11, 1.5, [0], later) > 1e-6


def test_reversed_cuts_raise(tree11, call11):
    with pytest.raises(StoppingRuleError):
        time_consistency_check(tree11, call11, 1.0, horizon_rule(tree11), [0])


def test_optimality_certificate(tree11, call11):
    res = indifference_surface(tree11, call11, 1.0)
    cert = optimality_certificate(tree11, call11, 1.0, res, seed=3,
                                  n_strategies=10)
    assert cert.submartingale_margin >= -1e-9
    assert cert.optimal_residual < 1e-9
    assert cert.curvature_ratio >= 0.0


def test_strategy_rows_zero_at_horizon(tree11, call11):
    res = indifference_surface(tree11, call11, 1.0)
    assert np.all(res.strategy[tree11.terminal_nodes] == 0.0)
