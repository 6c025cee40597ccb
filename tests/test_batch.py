"""The batched sweep engine.

A batch of claims and risk aversions swept at once must equal the same
rows swept one at a time, and every caller that prices or decomposes
its surfaces in one batch must match the per-row loop it replaced; the
loops below are the oracles.  Also guards the names the benchmark's probes call.
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from indifftree import (BsdeSolution, ClaimSpec, arbitrage_bounds_check,
                        asymptotics, bmo_norms, bracket_weights, bsde,
                        claim_from_expression, continuity_in_B, dual_surface,
                        exact_decomposition, indifference_surface,
                        large_alpha_sweep, lipschitz_in_alpha, measures,
                        minimal_entropy_measure, node_probabilities,
                        property_checks, random_claim, random_tree,
                        small_alpha_sweep, superrep_surface, valuation,
                        verify_entropy_structure)
from indifftree.errors import NewtonConvergenceError
from indifftree.lattice import EventTree, random_stopping_rule
from indifftree.measures import _entropic_sweep, _entropy_result
from indifftree.tolerances import DEFAULT
from indifftree.valuation import _primal_sweep, _time_measurable, one_step_primal
from conftest import corpus_instance

ALPHAS = (1e-6, 0.25, 1.0, 8.0)
# (depth, branching, assets): one to three assets, mixed branching and
# branching 8
SHAPES = [(3, (2, 4), 1), (3, (2, 4), 2), (3, (2, 4), 3),
          (2, 8, 1), (2, 8, 2), (2, 8, 3)]


def _claims(tree, n, seed):
    return np.stack([random_claim(tree, seed=seed + j).values for j in range(n)])


@pytest.mark.parametrize("shape", SHAPES)
def test_batched_primal_sweep_equals_row_sweeps(shape):
    tree = random_tree(*shape, seed=7)
    measure = minimal_entropy_measure(tree).measure
    claims = _claims(tree, len(ALPHAS), 100)
    values, theta, iters, _ = _primal_sweep(tree, measure, claims, ALPHAS)
    for b, alpha in enumerate(ALPHAS):
        v1, th1, it1, _ = _primal_sweep(tree, measure, claims[b], alpha)
        assert np.abs(values[b] - v1[0]).max() <= 1e-13
        assert np.abs(theta[b] - th1[0]).max() <= 1e-13
        assert iters[b] == it1[0]


@pytest.mark.parametrize("shape", SHAPES)
def test_batched_entropic_sweep_equals_row_sweeps(shape):
    tree = random_tree(*shape, seed=7)
    costs = -np.asarray(ALPHAS)[:, None] * _claims(tree, len(ALPHAS), 200)
    value, lam, q_edge, diag = _entropic_sweep(tree, costs, DEFAULT)
    for b in range(len(ALPHAS)):
        v1, lam1, q1, diag1 = _entropic_sweep(tree, costs[b], DEFAULT)
        assert np.abs(value[b] - v1[0]).max() <= 1e-13
        assert np.abs(lam[b] - lam1[0]).max() <= 1e-13
        assert np.abs(q_edge[b] - q1[0]).max() <= 1e-13
        assert diag["iterations"][b] == diag1["iterations"][0]


def _kernel_rows(rng, m, k, d):
    """m kernel rows (a, ds): increments centred under a random kernel q,
    every third row with alpha * cont spread over 1e2..1e3 (step halving,
    Levenberg steps), rank-deficient rows and, at row 5, no martingale
    kernel at all."""
    q = rng.dirichlet(np.ones(k), m)
    ds = rng.normal(scale=0.1, size=(m, k, d))
    ds[1::5, :, -1] = 0.0 if d == 1 else ds[1::5, :, 0]  # rank deficient
    ds -= np.einsum("mk,mkd->md", q, ds)[:, None, :]
    ds[5] = np.abs(ds[5]) + 0.01  # every increment positive: an arbitrage
    spread = np.where(np.arange(m) % 3 == 0, 10.0 ** rng.uniform(2, 3, m), 1.0)
    return np.log(q) + spread[:, None] * rng.uniform(-1, 1, (m, k)), ds


@pytest.mark.parametrize("k", [2, 3, 4, 8])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_kernel_rows_are_independent_bit_for_bit(monkeypatch, k, d):
    # a row's result must not depend on the batch it is solved in, down to
    # the last bit: the dual route and the batched sweeps rely on it
    from indifftree import _onestep

    seen = set()
    halve, newton_step = _onestep._halve, _onestep._newton_step

    def halving(*args):
        seen.add("halving")
        return halve(*args)

    def levenberg(wds, ds, mean, mu, active):
        if np.any(mu > 0):
            seen.add("levenberg")
        return newton_step(wds, ds, mean, mu, active)

    monkeypatch.setattr(_onestep, "_halve", halving)
    monkeypatch.setattr(_onestep, "_newton_step", levenberg)
    a, ds = _kernel_rows(np.random.default_rng(100 * k + d), 300, k, d)
    full = _onestep.lse_newton(a, ds)
    assert seen == {"halving", "levenberg"}
    assert full.failed[5]
    fields = ("w", "lam", "lse", "iterations", "residual", "failed", "degenerate")
    sub = _onestep.lse_newton(a[:7], ds[:7])
    rows = [(sub, r, r) for r in range(7)]
    rows += [(_onestep.lse_newton(a[r:r + 1], ds[r:r + 1]), 0, r)
             for r in [*range(7), *range(7, 300, 7)]]
    for sol, i, r in rows:
        for name in fields:
            got, want = getattr(sol, name)[i], getattr(full, name)[r]
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (r, name)


def test_primal_sweep_returns_the_claim_exactly_at_the_horizon():
    # the sweep runs on J = -alpha C, and -(-alpha B) / alpha can miss B
    tree = random_tree(3, 3, 1, seed=7)
    claims = _claims(tree, 3, 400)
    values = _primal_sweep(tree, minimal_entropy_measure(tree).measure, claims,
                           (1e-6, 0.3, 3.0))[0]
    assert np.array_equal(values[:, tree.terminal_nodes], claims)


def _stopped_walk(tree, measure, alpha, members, stop_values):
    """One ``one_step_primal`` per node, bottom-up, with the rule's members
    held at their given values; nodes after the rule stay NaN."""
    is_member = np.zeros(tree.n_nodes, dtype=bool)
    is_member[members] = True
    before = np.zeros(tree.n_nodes, dtype=bool)  # strictly before the rule
    for i in range(tree.n_nodes):
        before[i] = not is_member[i] and (i == 0 or before[tree.parent[i]])
    values = np.full(tree.n_nodes, np.nan)
    values[members] = stop_values
    theta = np.full((tree.n_nodes, tree.n_assets), np.nan)
    q = measure.edge_prob
    for i in reversed(range(tree.n_nodes)):
        if before[i]:
            kids = tree.children_of(i)
            values[i], theta[i] = one_step_primal(q[kids], tree.dprice[kids],
                                                  values[kids], alpha)
    return values, theta, before


@pytest.mark.parametrize("shape", SHAPES[::2])
def test_claim_paid_at_a_rule_matches_per_node_walk(shape):
    # values paid at a stopping rule, carried unchanged to the horizon and
    # swept as an ordinary claim, against the walk that stops at the rule
    tree = random_tree(*shape, seed=3)
    measure = minimal_entropy_measure(tree).measure
    alphas = (1e-6, 1.0, 8.0)
    members = random_stopping_rule(tree, seed=5)
    stop_values = np.random.default_rng(9).uniform(-1.0, 1.0, (len(alphas), members.size))
    paid = np.zeros((tree.n_nodes, len(alphas)))
    paid[members] = stop_values.T
    claims = tree.forward(np.add, paid)[tree.terminal_nodes].T
    values, theta, _, _ = _primal_sweep(tree, measure, claims, alphas)
    for b, alpha in enumerate(alphas):
        v1, th1, before = _stopped_walk(tree, measure, alpha, members, stop_values[b])
        # below the rule the sweep prices a constant, which picks up the
        # kernel sums' rounding divided by alpha; a hedge divides that again
        # by price increments of order 0.1
        assert np.abs(values[b] - v1)[~np.isnan(v1)].max() <= max(1e-12, 1e-15 / alpha)
        # a member's hedge is that of its continuation: compare the hedges
        # strictly before the rule
        assert np.abs(theta[b][before] - th1[before]).max() <= max(1e-12, 1e-14 / alpha)


# ---------------------------------------------------------------------------
# callers against their per-sweep loops


def _surface(tree, values, alpha, measure):
    return indifference_surface(tree, ClaimSpec(values), alpha, measure).surface.values


def _loop_surfaces(tree, measure, rows, tol=DEFAULT):
    """One primal sweep per (terminal values, alpha) row."""
    return np.stack([indifference_surface(tree, ClaimSpec(v), a, measure, tol=tol)
                     .surface.values for v, a in rows])


def property_checks_loop(tree, claim, alpha, measure, *, seed=0, n_convexity=3):
    """The property battery with one sweep per surface, drawing its random
    inputs between the sweeps."""
    rng = np.random.default_rng(seed + 2_024)
    term = tree.terminal_nodes
    b = claim.values
    margins = {}
    c_base = _surface(tree, b, alpha, measure)
    interior = tree.times < tree.horizon
    margins["bounds"] = float(np.min((claim.sup_norm - np.abs(c_base))[interior]))
    bump = rng.uniform(0.0, 0.8, size=term.size)
    margins["monotone_claim"] = float(np.min(
        _surface(tree, b + bump, alpha, measure) - c_base))
    worst = np.inf
    for _ in range(n_convexity):
        other = rng.uniform(-1.0, 1.0, size=term.size) * max(1.0, claim.sup_norm)
        t_mix = int(rng.integers(0, tree.horizon))
        lam_surface = _time_measurable(tree, t_mix, rng)
        lam_term = lam_surface[term]
        c_other = _surface(tree, other, alpha, measure)
        c_mix = _surface(tree, lam_term * b + (1 - lam_term) * other, alpha, measure)
        from_t = tree.times >= t_mix
        gap = (lam_surface * c_base + (1 - lam_surface) * c_other - c_mix)[from_t]
        worst = min(worst, float(np.min(gap)))
    margins["convexity"] = worst
    t_pay = int(rng.integers(0, tree.horizon + 1))
    x = _time_measurable(tree, t_pay, rng, -1.0, 1.0)
    c_shift = _surface(tree, b + x[term], alpha, measure)
    from_t = tree.times >= t_pay
    margins["translation"] = -float(np.max(np.abs((c_shift - c_base - x)[from_t])))
    beta = float(rng.uniform(0.3, 2.5))
    lhs = _surface(tree, beta * b, alpha, measure)
    rhs = beta * _surface(tree, b, beta * alpha, measure)
    margins["volume_scaling"] = -float(np.max(np.abs(lhs - rhs)))
    alpha_hi = alpha * float(rng.uniform(1.5, 4.0))
    margins["monotone_alpha"] = float(np.min(
        _surface(tree, b, alpha_hi, measure) - c_base))
    g_lo = float(rng.uniform(0.2, 0.9))
    g_hi = float(rng.uniform(1.1, 3.0))
    c_glo = _surface(tree, g_lo * b, alpha, measure)
    c_ghi = _surface(tree, g_hi * b, alpha, measure)
    margins["gamma_transfer"] = float(min(
        np.min(g_lo * c_base - c_glo), np.min(c_ghi - g_hi * c_base)))
    return margins


@pytest.mark.parametrize("i", [0, 3, 8, 21])
def test_property_checks_match_loop(i):
    tree, claim = corpus_instance(i)
    measure = minimal_entropy_measure(tree).measure
    for alpha in (0.25, 4.0):
        batched = property_checks(tree, claim, alpha, measure, seed=i).margins
        loop = property_checks_loop(tree, claim, alpha, measure, seed=i)
        assert batched.keys() == loop.keys()
        for name in loop:
            assert abs(batched[name] - loop[name]) <= 1e-12, name


def _loop_decompose(tree, measure, values, alphas, scheme):
    """One group-loop oracle decomposition per row, stacked on the batch axis."""
    from test_bsde import ARRAY_FIELDS, oracle_decompose

    rows = [oracle_decompose(tree, measure, v, a, scheme)
            for v, a in zip(values, alphas)]
    return BsdeSolution(*(np.stack([getattr(r, f) for r in rows]) for f in ARRAY_FIELDS),
                        np.asarray(alphas, dtype=np.float64), rows[0].route)


def _loop_bmo_sq(tree, measure, psi, d_orth, up_to=None):
    """One squared-BMO evaluation per row."""
    rows = [bsde._bmo_sq(tree, measure, p[None], dl[None], up_to)
            for p, dl in zip(psi, d_orth)]
    return tuple(np.concatenate(parts) for parts in zip(*rows))


def test_small_alpha_sweep_matches_loop(tree11, call11, entropy11, monkeypatch):
    grid = [2.0 ** (-k) for k in range(8, -1, -1)]
    batched = small_alpha_sweep(tree11, call11, grid, entropy11.measure)
    monkeypatch.setattr(asymptotics, "_surfaces", _loop_surfaces)
    monkeypatch.setattr(asymptotics, "_decompose", _loop_decompose)
    monkeypatch.setattr(asymptotics, "_bmo_sq", _loop_bmo_sq)
    loop = small_alpha_sweep(tree11, call11, grid, entropy11.measure)
    assert batched.columns.keys() == loop.columns.keys()
    for name, col in loop.columns.items():
        assert np.abs(np.subtract(batched.columns[name], col)).max() <= 1e-12, name


def test_large_alpha_sweep_matches_loop(tree11, call11, entropy11):
    """Each column against a per-alpha recomputation through the single-row
    functions, warm-started through the primal sweep as the sweep is."""
    measure = entropy11.measure
    grid = [2.0 ** k for k in range(0, 11)]
    batched = large_alpha_sweep(tree11, call11, grid, measure, seed=0)
    probs = node_probabilities(tree11, measure)
    term = tree11.terminal_nodes
    star = superrep_surface(tree11, call11, decompose=True)
    star_sol = exact_decomposition(tree11, star.values, measure, alpha=np.inf)
    kstar = tree11.forward(np.add, star.dk)
    w = bracket_weights(tree11, measure)
    nonterm = tree11.times < tree11.horizon
    loop = {k: [] for k in ("dist_sup", "comp_dist", "dist_psi_sq", "bmo_psi",
                            "bmo_L", "bmo_L_dist")}
    theta = None
    for a in grid:
        values, theta, _, _ = _primal_sweep(tree11, measure, call11.values, a, theta0=theta)
        sol = exact_decomposition(tree11, values[0], measure, alpha=a)
        loop["dist_sup"].append(np.abs(star.values - values[0]).max())
        diff_T = sol.compensator[term] - kstar[term]
        loop["comp_dist"].append(probs[term] @ np.abs(diff_T))
        dpsi = theta[0] - star.psi
        quad = np.einsum("nd,nde,ne->n", dpsi, w, dpsi)
        loop["dist_psi_sq"].append(probs[nonterm] @ quad[nonterm])
        bm = bmo_norms(tree11, sol, measure)
        loop["bmo_psi"].append(bm.bmo_psi)
        loop["bmo_L"].append(bm.bmo_orth)
        diff = replace(sol, d_orth=sol.d_orth - star_sol.d_orth)
        loop["bmo_L_dist"].append(bmo_norms(tree11, diff, measure).bmo_orth)
    for name, col in loop.items():
        assert np.abs(np.subtract(batched.columns[name], col)).max() <= 1e-12, name


def test_alpha_and_claim_batches_match_loop(tree11, call11, entropy11, monkeypatch):
    measure = entropy11.measure
    perturbed = [ClaimSpec(call11.values + d) for d in (0.01, -0.05)]

    def run():
        return (lipschitz_in_alpha(tree11, call11, n_pairs=10, measure=measure),
                continuity_in_B(tree11, call11, perturbed, measure=measure),
                arbitrage_bounds_check(tree11, call11, 1.0, measure))

    batched = run()
    monkeypatch.setattr(asymptotics, "_surfaces", _loop_surfaces)
    monkeypatch.setattr(valuation, "_surfaces", _loop_surfaces)
    loop = run()
    assert np.allclose(batched[0]["khat"], loop[0]["khat"], rtol=0, atol=1e-9)
    assert np.allclose(batched[1]["output_dist"], loop[1]["output_dist"],
                       rtol=0, atol=1e-12)
    for name in ("lower_margin", "upper_margin", "annihilation_residual",
                 "attainable_residual"):
        assert abs(getattr(batched[2], name) - getattr(loop[2], name)) <= 1e-12


@pytest.mark.parametrize("i", [0, 3, 8, 21])
def test_dual_surface_matches_two_leg_loop(i):
    tree, claim = corpus_instance(i)
    for alpha in (0.25, 4.0):
        zero = minimal_entropy_measure(tree)
        leg = minimal_entropy_measure(tree, -alpha * claim.values)
        loop = (zero.value_surface - leg.value_surface) / alpha
        dual = dual_surface(tree, claim, alpha)
        assert np.abs(dual.surface.values - loop).max() <= 1e-12
        assert np.abs(dual.claim_leg.measure.edge_prob
                      - leg.measure.edge_prob).max() <= 1e-12


def test_warm_dual_surface_sweeps_only_the_claim_leg(monkeypatch):
    tree = random_tree(4, (2, 4), 1, seed=3)
    claim = random_claim(tree, seed=4)
    minimal_entropy_measure(tree)
    rows, lse_newton = [], measures.lse_newton

    def counted(a, *args, **kwargs):
        rows.append(a.shape[0])
        return lse_newton(a, *args, **kwargs)

    monkeypatch.setattr(measures, "lse_newton", counted)
    dual_surface(tree, claim, 1.0)
    groups = tree.groups()
    assert rows == [nodes.size for t in range(tree.horizon - 1, -1, -1)
                    for nodes, _ in groups[t].values()]


def test_dual_surface_equals_the_stacked_two_leg_sweep():
    # the zero leg is shared across calls, the claim leg swept alone: both
    # must equal, bit for bit, one sweep of the stacked [0, -alpha B] rows
    fields = ("value_surface", "multipliers", "terminal_cost")
    for i in range(100):
        tree, claim = corpus_instance(i)
        for alpha in (0.25, 1.0, 4.0):
            costs = np.stack([np.zeros_like(claim.values), -alpha * claim.values])
            sweep = _entropic_sweep(tree, costs, DEFAULT, alphas=(alpha, alpha))
            legs = [_entropy_result(tree, costs[j], *sweep, j, DEFAULT) for j in range(2)]
            dual = dual_surface(tree, claim, alpha)
            assert np.array_equal(
                dual.surface.values,
                (legs[0].value_surface - legs[1].value_surface) / alpha), (i, alpha)
            for got, want in zip((dual.zero_leg, dual.claim_leg), legs):
                for name in fields:
                    assert np.array_equal(getattr(got, name), getattr(want, name)), \
                        (i, alpha, name)
                assert np.array_equal(got.measure.edge_prob, want.measure.edge_prob)
                assert got.iterations == want.iterations


# ---------------------------------------------------------------------------
# errors and the benchmark's names


def test_solver_error_names_node_slice_and_alpha():
    # D9: a cold-start hedge stalls on an incomplete node (k = 4), where
    # no duality gap certifies the stalled row
    tree = random_tree(4, (2, 4), 2, seed=6)
    with pytest.raises(NewtonConvergenceError,
                       match=r"^primal .* at node 9 \(slice 2, alpha=128\.0\)$"):
        indifference_surface(tree, random_claim(tree, seed=106), 128.0)


def _duplicated_asset_case():
    # D5: a duplicated asset makes the increments rank deficient
    base = random_tree(3, 3, 2, seed=5)
    tree = EventTree(base.times, base.parent,
                     np.hstack([base.prices, base.prices[:, :1]]), base.edge_prob)
    return tree, claim_from_expression(tree, "call(S1, 1) + put(S3, 0.9)"), 2.0


def _random_case(depth, branching, assets, seed, claim_seed=None, alpha=None):
    tree = random_tree(depth, branching, assets, seed=seed)
    claim = None if claim_seed is None else random_claim(tree, seed=claim_seed)
    return tree, claim, alpha


@pytest.mark.parametrize("case", [
    _duplicated_asset_case,                                   # D5
    lambda: _random_case(8, 3, 2, 6, 117, 4.0),               # dual_stall
    lambda: _random_case(4, (2, 4), 2, 1857501465, 843068615, 0.25),  # corpus_dual_stall
    lambda: _random_case(8, 3, 2, 23),                        # measure_stall_d2
    lambda: _random_case(8, 3, 2, 27),                        # the measure stalls too
    lambda: _random_case(7, 3, 2, 1, 2, 64.0),                # primal_cold_stall
], ids=["d5", "dual_stall", "corpus_dual_stall", "measure_stall_d2",
        "measure_seed27", "primal_cold_stall"])
def test_stalled_rows_are_certified_by_their_duality_gap(case):
    """Rows that stall above tol.newton price through the duality-gap
    certificate, and what they return is exact: the routes agree and
    every log-density keeps its exponential-of-gains form."""
    tree, claim, alpha = case()
    entropy = minimal_entropy_measure(tree)
    assert verify_entropy_structure(tree, entropy) <= 1e-9
    if claim is None:
        return
    primal = indifference_surface(tree, claim, alpha, entropy.measure)
    dual = dual_surface(tree, claim, alpha)
    assert np.abs(primal.surface.values - dual.surface.values).max() <= 1e-9
    for leg in (dual.zero_leg, dual.claim_leg):
        assert verify_entropy_structure(tree, leg) <= 1e-9


def test_certificate_allows_for_the_rounding_of_the_logits():
    # node 35 is complete and near-singular (cond [ds | -1] = 7e5): at
    # alpha = 1024 lam reaches 3e8, so the logits a + ds . lam round at
    # ~1e-8, far above 1e-12 * |lse|.  At a complete node the value is the
    # children's mean under the one martingale kernel, the measure's own.
    tree = random_tree(4, (3, 5), 3, seed=5013)
    claim = random_claim(tree, seed=6013)
    measure = minimal_entropy_measure(tree).measure
    values = indifference_surface(tree, claim, 1024.0, measure).surface.values
    ch = tree.children_of(35)
    assert abs(values[35] - measure.edge_prob[ch] @ values[ch]) <= 1e-11


def test_benchmark_probe_names_resolve():
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    sys.path.insert(0, str(perfbench))
    try:
        import probes
        import workloads
    finally:
        sys.path.remove(str(perfbench))
    from indifftree import _onestep

    for m, k, d in probes.KERNEL_SHAPES:
        q, ds, v = probes.kernel_inputs(0, m, k, d)
        assert _onestep.exp_min_batch(np.log(q), ds, v, 1.0).value.shape == (m,)
        assert _onestep.entropic_projection_batch(np.log(q), ds, v).q.shape == (m, k)
        assert _onestep.gkw_batch(q, ds, v)[1].shape == (m, d)
    for ns, attr, _ in workloads.CLI_LAYER_CALLS:
        assert callable(getattr(ns, attr)), attr
