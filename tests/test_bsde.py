"""Backward decompositions: regression oracle, exact identities, the
explicit quadratic scheme, and the dense basis-risk lattice.

``oracle_decompose`` is the group-loop decomposition, one ``gkw_batch``
call per (slice, branching) group walking the slices backward; both
routes of the batched ``bsde._decompose`` are checked against it.
"""

import numpy as np
import pytest

from indifftree import (ClaimSpec, bmo_norms, bsde_scheme, comparison_check,
                        conditional_expectation, exact_decomposition, gains,
                        indifference_surface, minimal_entropy_measure,
                        orthogonal_exponential, random_claim, random_strategy,
                        random_tree)
from indifftree._onestep import gkw_batch
from indifftree.bsde import (BsdeSolution, _decompose, gkw_step,
                             lattice_exact_value, lattice_kernel,
                             lattice_scheme_value, lattice_self_convergence)
from indifftree.lattice import basis_risk_lattice
from indifftree.valuation import _surfaces
from conftest import corpus_instance
from test_batch import SHAPES


def oracle_decompose(tree, measure, values, alpha, scheme):
    """Single-row decomposition by a backward walk over the (slice, k)
    groups; with ``scheme`` the node values are overwritten by the
    quadratic recursion, else ``values`` is an exact surface."""
    n = tree.n_nodes
    vals = np.array(values, dtype=np.float64)
    psi = np.zeros((n, tree.n_assets))
    d_orth = np.zeros(n)
    step_bracket = np.zeros(n)
    comp_step = np.zeros(n)
    q = measure.edge_prob
    groups = tree.groups()
    for t in range(tree.horizon - 1, -1, -1):
        for nodes, ch in groups[t].values():
            mean, p, dl = gkw_batch(q[ch], tree.dprice[ch], vals[ch])
            sb = np.einsum("mk,mk->m", q[ch], dl * dl)
            psi[nodes] = p
            d_orth[ch] = dl
            step_bracket[nodes] = sb
            if scheme:
                comp_step[nodes] = 0.5 * alpha * sb
                vals[nodes] = mean + 0.5 * alpha * sb
            else:
                comp_step[nodes] = vals[nodes] - mean
    par = tree.parent[1:]
    return BsdeSolution(
        vals, psi, d_orth, step_bracket, comp_step,
        tree.forward(np.add, np.r_[0.0, step_bracket[par]]),
        tree.forward(np.add, d_orth * d_orth),
        tree.forward(np.add, np.r_[0.0, comp_step[par]]),
        float(alpha), "scheme" if scheme else "exact")


ORACLE_ALPHAS = (1e-6, 0.25, 8.0)
ARRAY_FIELDS = ("values", "psi", "d_orth", "step_bracket", "compensator_step",
                "bracket_orth", "bracket_orth_optional", "compensator")


def _field_tol(name, one_asset, psi_scale):
    """Agreement with the oracle.  Through pinv (d > 1) the summation
    order moves psi and the residuals built from it: on the near-collinear
    random_tree(4, 3, 2, seed=5), where |psi| reaches 1.9e3, psi moves by
    7e-10 of |psi|_inf and d_orth by 1.3e-10."""
    if one_asset or name in ("values", "compensator_step", "step_bracket",
                             "bracket_orth", "compensator"):
        return 1e-12
    if name == "psi":
        return 1e-8 * max(1.0, psi_scale)
    return 1e-9


@pytest.mark.parametrize("shape, seed", [(s, 7) for s in SHAPES] + [((4, 3, 2), 5)])
def test_decomposition_matches_group_loop_oracle(shape, seed):
    tree = random_tree(*shape, seed=seed)
    measure = minimal_entropy_measure(tree).measure
    claim = random_claim(tree, seed=17)
    surfaces = _surfaces(tree, measure, [(claim.values, a) for a in ORACLE_ALPHAS])
    for alpha, surface in zip(ORACLE_ALPHAS, surfaces):
        routes = [(exact_decomposition(tree, surface, measure, alpha=alpha),
                   oracle_decompose(tree, measure, surface, alpha, scheme=False)),
                  (bsde_scheme(tree, claim, alpha, measure),
                   oracle_decompose(tree, measure, claim.full_surface(tree),
                                    alpha, scheme=True))]
        for got, ref in routes:
            assert (got.alpha, got.route) == (ref.alpha, ref.route)
            scale = float(np.abs(ref.psi).max())
            for name in ARRAY_FIELDS:
                diff = np.abs(getattr(got, name) - getattr(ref, name)).max()
                assert diff <= _field_tol(name, tree.n_assets == 1, scale), \
                    (ref.route, alpha, name, diff)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("scheme", [False, True])
def test_batched_decomposition_rows_equal_single_rows(shape, scheme):
    tree = random_tree(*shape, seed=7)
    measure = minimal_entropy_measure(tree).measure
    claims = [random_claim(tree, seed=17 + j).values for j in range(3)]
    rows = [(c, a) for c, a in zip(claims, ORACLE_ALPHAS)]
    values = (np.stack([ClaimSpec(c).full_surface(tree) for c in claims])
              if scheme else _surfaces(tree, measure, rows))
    batch = _decompose(tree, measure, values, ORACLE_ALPHAS, scheme)
    for b, alpha in enumerate(ORACLE_ALPHAS):
        single = _decompose(tree, measure, values[b:b + 1], [alpha], scheme)
        for name in ARRAY_FIELDS:
            diff = np.abs(getattr(batch, name)[b] - getattr(single, name)[0]).max()
            assert diff <= 1e-13, (b, name, diff)


def test_gkw_step_matches_normal_equations():
    """d = 1 regression coefficient is cov(v, ds)/var(ds) under q."""
    rng = np.random.default_rng(61)
    for _ in range(6):
        k = int(rng.integers(2, 6))
        q = rng.dirichlet(np.ones(k))
        ds = rng.normal(size=(k, 1))
        ds -= q @ ds  # center so q is a martingale kernel for ds
        v = rng.normal(size=k)
        mean, psi, dl = gkw_step(q, ds, v)
        var = q @ (ds[:, 0] ** 2)
        cov = q @ ((v - q @ v) * ds[:, 0])
        assert abs(mean - q @ v) < 1e-14
        assert abs(psi[0] - cov / var) < 1e-12
        assert abs(q @ dl) < 1e-13
        assert abs(q @ (dl * ds[:, 0])) < 1e-13
        np.testing.assert_allclose(v, mean + psi[0] * ds[:, 0] + dl,
                                   atol=1e-13)


def _edge_residual(tree, sol):
    worst = 0.0
    for t in range(1, tree.horizon + 1):
        nodes = tree.slice_nodes(t)
        par = tree.parent[nodes]
        recon = (sol.values[par] - sol.compensator_step[par]
                 + np.einsum("nd,nd->n", tree.dprice[nodes], sol.psi[par])
                 + sol.d_orth[nodes])
        worst = max(worst, float(np.abs(sol.values[nodes] - recon).max()))
    return worst


@pytest.mark.parametrize("alpha", [0.25, 1.0, 4.0])
def test_exact_decomposition_edge_identity(tree11, call11, entropy11, alpha):
    res = indifference_surface(tree11, call11, alpha, entropy11.measure)
    sol = exact_decomposition(tree11, res, entropy11.measure)
    assert _edge_residual(tree11, sol) < 1e-13
    # orthogonality of the residual increments against the increments
    q = entropy11.measure.edge_prob
    for i in np.flatnonzero(tree11.times < tree11.horizon):
        kids = tree11.children_of(i)
        cross = q[kids] @ (sol.d_orth[kids, None] * tree11.dprice[kids])
        assert np.abs(cross).max() < 1e-13
        assert abs(q[kids] @ sol.d_orth[kids]) < 1e-13


def test_compensator_telescopes_to_initial_gap(tree11, call11, entropy11):
    res = indifference_surface(tree11, call11, 1.0, entropy11.measure)
    sol = exact_decomposition(tree11, res, entropy11.measure)
    eb = conditional_expectation(tree11, entropy11.measure, call11.values)
    term = tree11.terminal_nodes
    prob = np.ones(tree11.n_nodes)
    for t in range(1, tree11.horizon + 1):
        nodes = tree11.slice_nodes(t)
        prob[nodes] = prob[tree11.parent[nodes]] * entropy11.measure.edge_prob[nodes]
    ea_t = prob[term] @ sol.compensator[term]
    assert abs(res.surface.values[0] - eb[0] - ea_t) < 1e-12
    # frozen: seed-11 random claim at alpha = 1
    claim = random_claim(tree11, seed=11)
    res2 = indifference_surface(tree11, claim, 1.0, entropy11.measure)
    sol2 = exact_decomposition(tree11, res2, entropy11.measure)
    eb2 = conditional_expectation(tree11, entropy11.measure, claim.values)
    gap = res2.surface.values[0] - eb2[0]
    assert abs(gap - 0.01869637333587637) < 1e-12
    assert abs(prob[term] @ sol2.compensator[term] - gap) < 1e-12


def test_compensator_steps_nonnegative():
    for i in [1, 4, 9]:
        tree, claim = corpus_instance(i)
        measure = minimal_entropy_measure(tree).measure
        res = indifference_surface(tree, claim, 1.0, measure)
        sol = exact_decomposition(tree, res, measure)
        # exact zeros at attainable nodes show up as O(eps) negatives
        assert sol.compensator_step.min() >= -1e-11


def test_scheme_equals_exact_on_attainable():
    tree = random_tree(3, (2, 3), 1, seed=40)
    theta = random_strategy(tree, seed=41, scale=0.6)
    g = gains(tree, theta)
    claim = ClaimSpec(values=0.1 + g[tree.terminal_nodes])
    measure = minimal_entropy_measure(tree).measure
    res = indifference_surface(tree, claim, 2.0, measure)
    sol = exact_decomposition(tree, res, measure)
    sch = bsde_scheme(tree, claim, 2.0, measure)
    np.testing.assert_allclose(sch.values, sol.values, atol=1e-10)
    np.testing.assert_allclose(sch.compensator_step, 0.0, atol=1e-10)


def test_scheme_route_tracks_exact_at_small_alpha(tree11, call11, entropy11):
    res = indifference_surface(tree11, call11, 0.01, entropy11.measure)
    sch = bsde_scheme(tree11, call11, 0.01, entropy11.measure)
    # agreement is second order in alpha; at a = 0.01 it is tight
    assert np.abs(res.surface.values - sch.values).max() < 1e-5


def test_bmo_truncation_monotone(tree11, call11, entropy11):
    res = indifference_surface(tree11, call11, 2.0, entropy11.measure)
    sol = exact_decomposition(tree11, res, entropy11.measure)
    prev_psi, prev_l = 0.0, 0.0
    for cut in range(1, tree11.horizon + 1):
        bm = bmo_norms(tree11, sol, entropy11.measure, up_to=cut)
        assert bm.bmo_psi >= prev_psi - 1e-14
        assert bm.bmo_orth >= prev_l - 1e-14
        prev_psi, prev_l = bm.bmo_psi, bm.bmo_orth
    full = bmo_norms(tree11, sol, entropy11.measure)
    assert abs(full.bmo_psi - prev_psi) < 1e-14
    assert abs(full.bmo_orth - prev_l) < 1e-14


def test_comparison_of_ordered_claims(tree11, call11):
    hi = ClaimSpec(values=call11.values + 0.05)
    rep = comparison_check(tree11, hi, call11, 1.0)
    assert rep.exact_margin >= -1e-12
    assert rep.ok()


def test_orthogonal_exponential_is_diagnostic(tree11, call11, entropy11):
    res = indifference_surface(tree11, call11, 1.0, entropy11.measure)
    sol = exact_decomposition(tree11, res, entropy11.measure)
    surf = orthogonal_exponential(tree11, sol)
    assert surf[0] == 1.0
    assert np.isfinite(surf).all()


# ---------------------------------------------------------------------------
# basis-risk lattice


def _tanh_payoff(v):
    return np.tanh(2.0 * (1.0 - v))


def test_lattice_kernel_is_martingale():
    lat = basis_risk_lattice(32)
    q = lattice_kernel(lat)
    assert q.shape == (4,)
    assert q.min() > 0.0
    np.testing.assert_allclose(q.sum(), 1.0, atol=1e-12)
    assert abs(q @ lat.step_moves) < 1e-12


def test_lattice_frozen_values():
    lat = basis_risk_lattice(32)
    sch = lattice_scheme_value(lat, _tanh_payoff, 1.0)
    exa = lattice_exact_value(lat, _tanh_payoff, 1.0)
    assert abs(sch - 0.05323968865373975) < 1e-12
    assert abs(exa - 0.05320666292281917) < 1e-12


def test_lattice_self_convergence_decreasing():
    out = lattice_self_convergence([32, 64, 128, 256], _tanh_payoff, 1.0)
    diffs = out["diffs"]
    assert len(diffs) == 3
    assert all(b < a for a, b in zip(diffs, diffs[1:]))


def test_lattice_scheme_close_to_exact():
    lat = basis_risk_lattice(64)
    sch = lattice_scheme_value(lat, _tanh_payoff, 1.0)
    exa = lattice_exact_value(lat, _tanh_payoff, 1.0)
    assert abs(sch - exa) < 5e-5
