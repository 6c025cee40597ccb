"""Entropy-optimal measure: oracles first, then structure identities.

The two oracles are deliberately independent of the production code
paths: a bounded scalar search for the one-asset one-step tilt, and a
constrained minimizer over the full terminal-probability polytope for
whole small trees.
"""

import dataclasses
import gc
import weakref

import numpy as np
import pytest
from scipy import optimize

from indifftree import (binomial_tree, claim_tilted_measure,
                        conditional_expectation, density_process,
                        minimal_entropy_measure, node_probabilities,
                        random_claim, random_tree, relative_entropy,
                        verify_entropy_structure)
from indifftree.errors import TreeStructureError
from indifftree.measures import MeasureProcess, expected_remaining
from indifftree.tolerances import Tolerances
from conftest import corpus_instance


# ---------------------------------------------------------------------------
# oracles


def one_step_tilt_oracle(p, ds, cost):
    """Scalar-search solution of min over kernels of E[log(q/p) + cost].

    Works through the dual: J(lam) = -log sum p_i exp(-cost_i + lam ds_i)
    is concave in lam; the optimum over martingale kernels equals
    -min_lam (-J). Independent of the batched Newton implementation.
    """
    def neg_dual(lam):
        return np.log(np.exp(-cost + lam * ds) @ p)

    res = optimize.minimize_scalar(neg_dual, bounds=(-200.0, 200.0),
                                   method="bounded",
                                   options={"xatol": 1e-13})
    lam = res.x
    w = p * np.exp(-cost + lam * ds)
    return -float(res.fun), w / w.sum(), float(lam)


def polytope_entropy_oracle(tree):
    """Minimal relative entropy by direct optimization over terminal atoms.

    Variables are the terminal path probabilities; the martingale
    property is imposed as one linear constraint per (node, asset).
    SLSQP from the reference measure gets well below 1e-6 on the
    depth <= 3 trees it is used for.
    """
    term = tree.terminal_nodes
    p_ref = _terminal_reference(tree)
    paths = _terminal_partition(tree)

    cons = []
    for i in np.flatnonzero(tree.times < tree.horizon):
        rows = paths[:, i]          # indicator: terminal k passes through i
        kids = tree.children_of(i)
        # increment realized by each terminal path while leaving node i
        inc = np.zeros((term.size, tree.n_assets))
        for c in kids:
            inc[paths[:, c].astype(bool)] = tree.prices[c] - tree.prices[i]
        for j in range(tree.n_assets):
            a = rows * inc[:, j]
            cons.append({"type": "eq", "fun": lambda x, a=a: a @ x})
    cons.append({"type": "eq", "fun": lambda x: x.sum() - 1.0})

    def objective(x):
        x = np.clip(x, 1e-300, None)
        return float(x @ (np.log(x) - np.log(p_ref)))

    res = optimize.minimize(objective, p_ref, method="SLSQP",
                            bounds=[(1e-12, 1.0)] * term.size,
                            constraints=cons,
                            options={"maxiter": 600, "ftol": 1e-14})
    assert res.success, res.message
    return float(res.fun)


def _terminal_reference(tree):
    prob = np.ones(tree.n_nodes)
    for t in range(1, tree.horizon + 1):
        nodes = tree.slice_nodes(t)
        prob[nodes] = prob[tree.parent[nodes]] * tree.edge_prob[nodes]
    return prob[tree.terminal_nodes]


def _terminal_partition(tree):
    """0/1 matrix: entry (k, i) says terminal k's path visits node i."""
    term = tree.terminal_nodes
    mat = np.zeros((term.size, tree.n_nodes))
    for k, leaf in enumerate(term):
        i = int(leaf)
        while i >= 0:
            mat[k, i] = 1.0
            i = int(tree.parent[i])
    return mat


# ---------------------------------------------------------------------------
# oracle comparisons


@pytest.mark.parametrize("seed", range(8))
def test_one_step_tilt_against_scalar_search(seed):
    rng = np.random.default_rng(400 + seed)
    k = int(rng.integers(2, 6))
    p = rng.dirichlet(np.ones(k))
    ds = rng.normal(scale=0.2, size=k)
    ds -= ds @ p * 0.0  # keep raw; feasibility is ensured below
    # force zero into the relative interior of the increment hull
    ds[0] = -np.abs(ds[1:]).sum() - 0.05
    ds[1] = +np.abs(ds).sum() * 0.5 + 0.05
    cost = rng.normal(scale=0.5, size=k)

    nodes = [{"parent": None, "prices": [1.0]}]
    for i in range(k):
        nodes.append({"parent": 0, "prices": [1.0 + ds[i]], "p": float(p[i])})
    from indifftree import tree_from_nodes
    tree = tree_from_nodes(nodes)

    ent = minimal_entropy_measure(tree, cost)
    val_o, q_o, lam_o = one_step_tilt_oracle(p, ds, cost)

    assert abs(ent.value_surface[0] - val_o) < 1e-9
    np.testing.assert_allclose(ent.measure.edge_prob[1:], q_o, atol=1e-8)
    assert abs(ent.multipliers[0, 0] - lam_o) < 1e-6


def test_entropy_against_polytope_oracle_small_trees():
    rng = np.random.default_rng(77)
    for trial in range(4):
        tree = random_tree(int(rng.integers(2, 4)), (2, 3), 1,
                           seed=5000 + trial)
        ent = minimal_entropy_measure(tree)
        ours = relative_entropy(tree, ent.measure)
        oracle = polytope_entropy_oracle(tree)
        # oracle is an upper bound computed independently; agreement well
        # below the 1e-5 gate expected of it
        assert abs(ours - oracle) < 1e-5
        assert ours <= oracle + 1e-7


# ---------------------------------------------------------------------------
# frozen values and structure


@pytest.mark.parametrize("up,down,p_up", [
    (1.2, 0.85, 0.5), (1.25, 0.8, 0.45), (1.1, 0.92, 0.7)])
def test_binomial_kernel_closed_form(up, down, p_up):
    tree = binomial_tree(1, 1.0, up, down, p_up)
    ent = minimal_entropy_measure(tree)
    # martingale kernel of the one-period binomial is (1-d)/(u-d)
    q_up = (1.0 - down) / (up - down)
    np.testing.assert_allclose(ent.measure.edge_prob[1:],
                               [q_up, 1.0 - q_up], atol=1e-12)
    h = (q_up * np.log(q_up / p_up)
         + (1 - q_up) * np.log((1 - q_up) / (1 - p_up)))
    assert abs(relative_entropy(tree, ent.measure) - h) < 1e-12
    assert abs(ent.value_surface[0] - h) < 1e-12


def test_binomial_one_period_value_frozen():
    # symmetric increments force q* = (1/2, 1/2); with p_up = 0.6 the
    # minimal entropy has the closed form -log(4 p (1-p)) / 2
    tree = binomial_tree(1, 1.0, 1.2, 0.8, 0.6)
    ent = minimal_entropy_measure(tree)
    np.testing.assert_allclose(ent.measure.edge_prob[1:], [0.5, 0.5],
                               atol=1e-12)
    val = float(ent.value_surface[0])
    assert abs(val - 0.020410997260127517) < 1e-13
    assert abs(val + 0.5 * np.log(4 * 0.6 * 0.4)) < 1e-13


def test_measure_is_martingale(tree11, entropy11):
    q = entropy11.measure.edge_prob
    for i in np.flatnonzero(tree11.times < tree11.horizon):
        kids = tree11.children_of(i)
        drift = q[kids] @ tree11.dprice[kids]
        assert np.abs(drift).max() < 1e-10
        np.testing.assert_allclose(q[kids].sum(), 1.0, atol=1e-12)


def test_structure_identity_small_corpus():
    for i in [0, 3, 12, 40]:
        tree, _ = corpus_instance(i)
        ent = minimal_entropy_measure(tree)
        assert verify_entropy_structure(tree, ent) < 1e-9


def test_density_telescopes_to_node_probabilities(tree11, entropy11):
    dens = density_process(tree11, entropy11.measure)
    prob = node_probabilities(tree11, entropy11.measure)
    pref = np.ones(tree11.n_nodes)
    for t in range(1, tree11.horizon + 1):
        nodes = tree11.slice_nodes(t)
        pref[nodes] = pref[tree11.parent[nodes]] * tree11.edge_prob[nodes]
    np.testing.assert_allclose(dens.z * pref, prob, atol=1e-13)
    np.testing.assert_allclose(np.exp(dens.log_z), dens.z, atol=1e-13)


def test_conditional_expectation_tower(tree11, entropy11):
    rng = np.random.default_rng(5)
    x = rng.normal(size=tree11.terminal_nodes.size)
    surf = conditional_expectation(tree11, entropy11.measure, x)
    q = entropy11.measure.edge_prob
    for i in np.flatnonzero(tree11.times < tree11.horizon):
        kids = tree11.children_of(i)
        assert abs(surf[i] - q[kids] @ surf[kids]) < 1e-12


def test_entropy_additivity_over_steps(tree11, entropy11):
    """H(Q|P) equals the expected sum of one-step conditional entropies."""
    q = entropy11.measure.edge_prob
    step = np.zeros(tree11.n_nodes)
    for i in np.flatnonzero(tree11.times < tree11.horizon):
        kids = tree11.children_of(i)
        step[i] = q[kids] @ np.log(q[kids] / tree11.edge_prob[kids])
    total = expected_remaining(tree11, entropy11.measure, step)[0]
    assert abs(total - relative_entropy(tree11, entropy11.measure)) < 1e-12


def test_claim_tilt_reduces_to_plain_entropy_at_zero(tree11, call11):
    a = claim_tilted_measure(tree11, call11, 0.0)
    b = minimal_entropy_measure(tree11)
    np.testing.assert_allclose(a.measure.edge_prob, b.measure.edge_prob,
                               atol=1e-12)


def test_scale_constant_consistency(tree11, entropy11):
    assert abs(entropy11.scale_constant
               - np.exp(entropy11.value_surface[0])) < 1e-14


@pytest.mark.parametrize("edge_prob", [np.zeros(0), np.float64(0.5)])
def test_from_edges_rejects_wrong_shape_before_writing(tree11, edge_prob):
    with pytest.raises(TreeStructureError, match="wrong length"):
        MeasureProcess.from_edges(tree11, edge_prob)


# ---------------------------------------------------------------------------
# the zero-cost leg is swept once per (tree, tolerances) pair


def test_zero_leg_is_one_object_per_tolerance_set():
    tree = random_tree(3, 3, 1, seed=5)
    first = minimal_entropy_measure(tree)
    assert minimal_entropy_measure(tree, tol=Tolerances()) is first
    loose = minimal_entropy_measure(tree, tol=Tolerances(newton=1e-10))
    assert loose is not first
    assert minimal_entropy_measure(tree, tol=Tolerances(newton=1e-10)) is loose


def test_explicit_zero_cost_runs_a_fresh_sweep():
    tree = random_tree(3, 3, 1, seed=5)
    shared = minimal_entropy_measure(tree)
    fresh = minimal_entropy_measure(tree, np.zeros(tree.terminal_nodes.size))
    assert fresh is not shared
    assert np.array_equal(fresh.value_surface, shared.value_surface)
    assert np.array_equal(fresh.measure.edge_prob, shared.measure.edge_prob)
    assert fresh.iterations == shared.iterations


def test_shared_zero_leg_is_read_only():
    tree = random_tree(3, 3, 1, seed=5)
    ent = minimal_entropy_measure(tree)
    for a in (ent.value_surface, ent.multipliers, ent.terminal_cost,
              ent.measure.edge_prob):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        ent.iterations = 0


def test_zero_leg_does_not_keep_its_tree_alive():
    tree = random_tree(3, 3, 1, seed=5)
    minimal_entropy_measure(tree)
    ref = weakref.ref(tree)
    del tree
    gc.collect()
    assert ref() is None
