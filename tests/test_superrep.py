"""Superreplication: an independent whole-tree linear program and a
per-node linear program first, then the consumption decomposition."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize

import indifftree
from indifftree import (ClaimSpec, EventTree, NoArbitrageViolated, Tolerances,
                        TreeStructureError, gains, indifference_surface,
                        random_claim, random_strategy, random_tree,
                        subrep_surface, superrep_surface)
from indifftree.lattice import one_period_tree
from indifftree import superrep
from indifftree.superrep import (_min_norm_feasible, martingale_vertices,
                                 optional_decomposition)
from conftest import corpus_instance


def whole_tree_lp_oracle(tree, claim):
    """Minimal superhedging capital via one linear program.

    Variables: initial capital x0 plus one holdings vector per
    non-terminal node; constraints: x0 + terminal gains >= claim on
    every path.  Completely independent of the backward recursion.
    """
    nonterm = np.flatnonzero(tree.times < tree.horizon)
    col = {int(i): 1 + k * tree.n_assets for k, i in enumerate(nonterm)}
    nvar = 1 + nonterm.size * tree.n_assets
    term = tree.terminal_nodes

    rows = []
    for leaf in term:
        a = np.zeros(nvar)
        a[0] = 1.0
        i = int(leaf)
        while tree.parent[i] >= 0:
            par = int(tree.parent[i])
            c = col[par]
            a[c:c + tree.n_assets] += tree.prices[i] - tree.prices[par]
            i = par
        rows.append(a)
    big_a = -np.array(rows)            # -x0 - gains <= -B
    res = optimize.linprog(
        c=np.r_[1.0, np.zeros(nvar - 1)],
        A_ub=big_a, b_ub=-claim.values,
        bounds=[(None, None)] * nvar, method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


@pytest.mark.parametrize("i", [0, 2, 5, 8, 12])
def test_root_value_against_whole_tree_lp(i):
    tree, claim = corpus_instance(i)
    if tree.horizon > 3:
        tree = random_tree(3, (2, 3), tree.n_assets, seed=6000 + i)
        claim = random_claim(tree, seed=6100 + i)
    surf = superrep_surface(tree, claim)
    oracle = whole_tree_lp_oracle(tree, claim)
    assert abs(surf.values[0] - oracle) < 1e-7


def node_lp_oracle(tree, claim):
    """Superreplication surface by one HiGHS linear program per node.

    Each program maximizes the expected child value over the closed
    martingale polytope {q >= 0, sum q = 1, q . dS = 0}; nodes are
    visited in decreasing index order, children before parents.
    """
    values = claim.full_surface(tree)
    for i in np.flatnonzero(tree.times < tree.horizon)[::-1]:
        ds = tree.increments(i)
        k, d = ds.shape
        scale = max(1.0, float(np.abs(ds).max()))
        res = optimize.linprog(
            -values[tree.children_of(i)],
            A_eq=np.vstack([ds.T / scale, np.ones((1, k))]),
            b_eq=np.r_[np.zeros(d), 1.0],
            bounds=[(0, None)] * k, method="highs")
        assert res.status == 0, res.message
        values[i] = -res.fun
    return values


def test_values_match_node_lp_oracle_on_corpus():
    for i in [1, 3, 7]:
        tree, claim = corpus_instance(i)
        surf = superrep_surface(tree, claim)
        assert np.abs(surf.values - node_lp_oracle(tree, claim)).max() < 1e-9


def test_vertices_are_martingale_kernels(tree11):
    for i in np.flatnonzero(tree11.times < tree11.horizon):
        ds = tree11.increments(i)
        verts = martingale_vertices(ds)
        assert verts.shape[0] >= 1
        for w in verts:
            assert w.min() >= -1e-12
            np.testing.assert_allclose(w.sum(), 1.0, atol=1e-10)
            assert np.abs(w @ ds).max() < 1e-10


def test_binomial_vertex_is_unique():
    from indifftree import binomial_tree
    tree = binomial_tree(1, 1.0, 1.2, 0.85, 0.5)
    verts = martingale_vertices(tree.increments(0))
    assert verts.shape[0] == 1
    q_up = (1.0 - 0.85) / (1.2 - 0.85)
    np.testing.assert_allclose(verts[0], [q_up, 1 - q_up], atol=1e-12)


def test_decomposition_superhedges_pathwise(tree11, call11):
    surf = superrep_surface(tree11, call11, decompose=True)
    g = gains(tree11, surf.psi)
    term = tree11.terminal_nodes
    margin = surf.values[0] + g[term] - call11.values
    assert margin.min() >= -1e-10
    # consumption is nonnegative and the wealth identity holds node-wise
    assert surf.dk.min() >= -1e-11
    k = np.zeros(tree11.n_nodes)
    for t in range(1, tree11.horizon + 1):
        nodes = tree11.slice_nodes(t)
        k[nodes] = k[tree11.parent[nodes]] + surf.dk[nodes]
    np.testing.assert_allclose(surf.values, surf.values[0] + g - k,
                               atol=1e-10)


def test_optional_decomposition_wrapper(tree11, call11):
    bare = superrep_surface(tree11, call11)
    assert not bare.decomposed
    surf = optional_decomposition(tree11, bare)
    assert surf.decomposed
    np.testing.assert_allclose(surf.values, bare.values, atol=0.0)
    full = superrep_surface(tree11, call11, decompose=True)
    np.testing.assert_allclose(surf.psi, full.psi, atol=1e-12)


def test_sub_below_super(tree11, call11):
    sup = superrep_surface(tree11, call11)
    sub = subrep_surface(tree11, call11)
    assert np.all(sub <= sup.values + 1e-12)
    # indifference values sit inside the interval at every alpha
    for alpha in (0.25, 4.0):
        res = indifference_surface(tree11, call11, alpha)
        assert np.all(res.surface.values <= sup.values + 1e-9)
        assert np.all(res.surface.values >= sub - 1e-9)


def test_attainable_claim_replicates_exactly():
    tree = random_tree(3, 2, 1, seed=50)    # binomial branching: complete
    theta = random_strategy(tree, seed=51, scale=0.5)
    g = gains(tree, theta)
    claim = ClaimSpec(values=0.2 + g[tree.terminal_nodes])
    surf = superrep_surface(tree, claim, decompose=True)
    sub = subrep_surface(tree, claim)
    np.testing.assert_allclose(surf.values, 0.2 + g, atol=1e-10)
    np.testing.assert_allclose(sub, surf.values, atol=1e-10)
    assert np.abs(surf.dk).max() < 1e-10


def test_no_cheaper_superhedge_among_random_strategies(tree11, call11):
    """Spot check of minimality: capital eps below the value cannot be
    made safe by any of a bag of random strategies (the LP oracle above
    is the real proof; this guards the pathwise wiring)."""
    surf = superrep_surface(tree11, call11)
    term = tree11.terminal_nodes
    short = surf.values[0] - 1e-4
    for seed in range(20):
        theta = random_strategy(tree11, seed=seed, scale=1.0)
        worst = (short + gains(tree11, theta)[term] - call11.values).min()
        assert worst < 0.0


WIDE_TREES = ((3, 8, 3, 1), (3, (2, 8), 2, 2))


def test_values_match_node_lp_oracle_on_wide_nodes():
    # up to 8 children and 3 assets: 162 candidate supports per node
    for depth, branching, assets, seed in WIDE_TREES:
        tree = random_tree(depth, branching, assets, seed=seed)
        claim = random_claim(tree, seed=seed)
        surf = superrep_surface(tree, claim)
        assert np.abs(surf.values - node_lp_oracle(tree, claim)).max() < 1e-9

def test_widest_allowed_nodes_match_node_lp_oracle_and_decompose():
    # 17 children in one asset (153 subsets) and 9 children in two (129)
    for branching, assets in ((17, 1), (9, 2)):
        tree = random_tree(2, branching, assets, seed=3)
        claim = random_claim(tree, seed=3)
        surf = superrep_surface(tree, claim, decompose=True)
        assert np.abs(surf.values - node_lp_oracle(tree, claim)).max() < 1e-9
        margin = surf.values[0] + gains(tree, surf.psi)[tree.terminal_nodes] - claim.values
        assert margin.min() >= -Tolerances().constraint and surf.dk.min() >= 0.0


def test_nodes_with_too_many_subsets_raise_naming_the_node():
    angles = np.linspace(0.0, 2 * np.pi, 12, endpoint=False)
    ring = 1.0 + 0.1 * np.column_stack([np.cos(angles), np.sin(angles)])
    tree = one_period_tree([1.0, 1.0], ring, np.full(12, 1 / 12))
    with pytest.raises(TreeStructureError, match=r"node 0 \(slice 0\) has 12 children "
                       r"and 2 assets: 298 column subsets"):
        superrep_surface(tree, ClaimSpec(ring[:, 0]))
    with pytest.raises(TreeStructureError, match="298 column subsets"):
        martingale_vertices(ring - 1.0)
    wide = random_tree(3, 16, 4, seed=1)
    with pytest.raises(TreeStructureError, match=r"\(slice 2\) has 16 children and 4 "
                       r"assets: 6884 column subsets"):
        superrep_surface(wide, random_claim(wide, seed=1))


def test_chunked_enumeration_matches_one_batch(monkeypatch):
    tree = random_tree(3, (2, 8), 3, seed=2)
    claim = random_claim(tree, seed=2)
    whole = superrep_surface(tree, claim, decompose=True)
    monkeypatch.setattr(superrep, "_BATCH", 40)  # 1 to 13 rows per solve
    chunked = superrep_surface(tree, claim, decompose=True)
    for field in ("values", "argmax_edge", "psi", "dk"):
        np.testing.assert_allclose(getattr(chunked, field), getattr(whole, field),
                                   rtol=0, atol=1e-13)



def test_values_match_node_lp_oracle_with_duplicated_asset():
    # one asset listed twice: every vertex has two children, not d + 1 = 3
    base = random_tree(3, 4, 1, seed=5)
    tree = EventTree(base.times, base.parent,
                     np.hstack([base.prices, base.prices[:, :1]]), base.edge_prob)
    claim = random_claim(tree, seed=5)
    surf = superrep_surface(tree, claim, decompose=True)
    assert np.abs(surf.values - node_lp_oracle(tree, claim)).max() < 1e-9
    assert surf.dk.min() >= 0.0


def test_superreplication_leaves_scipy_optimize_unloaded():
    code = ("import sys; from indifftree import random_claim, random_tree, "
            "superrep_surface; tree = random_tree(3, 8, 3, seed=1); "
            "surf = superrep_surface(tree, random_claim(tree, seed=1), decompose=True); "
            "print(surf.decomposed, 'scipy.optimize' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(indifftree.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True).stdout
    assert out.strip() == "True False"


def test_empty_polytope_names_the_node():
    tree = one_period_tree([1.0], [[1.1], [1.2]], [0.5, 0.5])
    with pytest.raises(NoArbitrageViolated, match=r"node 0 \(slice 0\)"):
        superrep_surface(tree, ClaimSpec(np.array([0.0, 1.0])))


def test_infeasible_decomposition_names_the_node(tree11, call11):
    surf = superrep_surface(tree11, call11)
    surf.values[0] -= 0.1        # below C*: no holdings dominate the children
    with pytest.raises(TreeStructureError, match=r"node 0 \(slice 0\)"):
        optional_decomposition(tree11, surf)


def test_value_just_below_cstar_is_rejected(tree11, call11):
    # the quadratic program keeps the support solve's relative slack, so a
    # root value 1e-10 below C* is not decomposed with a clipped dk
    surf = superrep_surface(tree11, call11)
    surf.values[0] -= 1e-10
    with pytest.raises(TreeStructureError, match=r"node 0 \(slice 0\)"):
        optional_decomposition(tree11, surf)
    a = np.array([[1.0], [-1.0]])
    assert _min_norm_feasible(a, np.array([1.0, -1.0 + 1e-10])) is None
    np.testing.assert_allclose(_min_norm_feasible(a, np.array([1.0, -1.0 + 1e-13])), [1.0],
                               rtol=0, atol=1e-12)


def test_degenerate_vertex_goes_to_the_qp():
    # C* = 1 is attained only at the kernel on the unmoved child, whose
    # equality leaves psi free; the minimal-norm psi = 0 misses child 1
    tree = one_period_tree([1.0], [[1.0], [1.2], [0.8]], [0.3, 0.3, 0.4])
    surf = superrep_surface(tree, ClaimSpec(np.array([1.0, 1.5, 0.0])),
                            decompose=True)
    assert surf.qp_nodes == 1
    np.testing.assert_allclose(surf.values[0], 1.0, atol=1e-12)
    np.testing.assert_allclose(surf.psi[0], [2.5], atol=1e-9)
    np.testing.assert_allclose(surf.dk[1:], [0.0, 0.0, 0.5], atol=1e-9)


# near-collinear nodes (D4), a pathwise miss of -2.4e-10 (D8), and
# two-asset nodes with k = 2, whose support rows are collinear (corpus 63)
HARD_DECOMPOSITIONS = [((6, 3, 2, 1), 1), ((4, 3, 1, 154), 154), ("corpus", 53),
                       ("corpus", 69), ("corpus", 63)]


@pytest.mark.parametrize("shape,seed", HARD_DECOMPOSITIONS)
def test_decomposition_on_hard_instances(shape, seed):
    if shape == "corpus":
        tree, claim = corpus_instance(seed)
    else:
        depth, branching, assets, tree_seed = shape
        tree = random_tree(depth, branching, assets, seed=tree_seed)
        claim = random_claim(tree, seed=seed)
    surf = superrep_surface(tree, claim, decompose=True)
    assert surf.decomposed and surf.qp_nodes == 0
    g = gains(tree, surf.psi)
    margin = surf.values[0] + g[tree.terminal_nodes] - claim.values
    assert margin.min() >= -Tolerances().constraint
    assert surf.dk.min() >= 0.0
    k = tree.forward(np.add, surf.dk)
    np.testing.assert_allclose(surf.values, surf.values[0] + g - k, rtol=0, atol=1e-10)
