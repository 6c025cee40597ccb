import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import indifftree
from indifftree import (ClaimSpec, TreeStructureError, binomial_tree,
                        build_tree, gains, horizon_rule, is_stopping_rule,
                        random_claim, random_stopping_rule, random_strategy,
                        random_tree, tree_from_nodes, trinomial_tree,
                        validate_no_arbitrage)
from indifftree.lattice import basis_risk_lattice


def path_gains_oracle(tree, theta):
    """Walk every terminal path explicitly and accumulate theta . dS."""
    out = np.zeros(tree.n_nodes)
    for leaf in tree.terminal_nodes:
        g, i = 0.0, int(leaf)
        hops = []
        while tree.parent[i] >= 0:
            hops.append(i)
            i = int(tree.parent[i])
        for i in reversed(hops):
            par = int(tree.parent[i])
            g += float(theta[par] @ (tree.prices[i] - tree.prices[par]))
            out[i] = g
    return out


def test_binomial_shape():
    tree = binomial_tree(4, 1.0, 1.2, 0.85, 0.5)
    assert tree.n_nodes == 2 ** 5 - 1
    assert tree.horizon == 4
    assert tree.terminal_nodes.size == 16
    assert np.all(tree.times[tree.terminal_nodes] == 4)
    # root increment is zero by convention
    assert np.all(tree.dprice[0] == 0.0)


def test_trinomial_recombines_prices_not_nodes():
    tree = trinomial_tree(3, 1.0, 1.25, 1.0, 0.8, (0.3, 0.4, 0.3))
    assert tree.terminal_nodes.size == 27
    # price set at the horizon collapses to the 7 distinct levels
    term_prices = np.unique(np.round(tree.prices[tree.terminal_nodes, 0], 12))
    assert term_prices.size == 7


def test_child_bookkeeping_consistent():
    tree = random_tree(4, (2, 4), 2, seed=3)
    for i in range(tree.n_nodes):
        kids = tree.children_of(i)
        if tree.times[i] == tree.horizon:
            assert kids.size == 0
        else:
            assert np.all(tree.parent[kids] == i)
            assert np.all(tree.times[kids] == tree.times[i] + 1)
            np.testing.assert_allclose(tree.edge_prob[kids].sum(), 1.0,
                                       atol=1e-12)


def test_edge_probabilities_positive():
    tree = random_tree(5, 3, 1, seed=8)
    assert tree.edge_prob.min() > 0.0


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_gains_match_pathwise_walk(seed):
    tree = random_tree(4, (2, 3), 2, seed=seed)
    theta = random_strategy(tree, seed=seed, scale=1.5)
    got = gains(tree, theta)
    want = path_gains_oracle(tree, theta)
    assert got[0] == 0.0
    np.testing.assert_allclose(got[tree.terminal_nodes],
                               want[tree.terminal_nodes], atol=1e-12)


def test_no_arbitrage_on_generated_trees():
    for seed in range(6):
        tree = random_tree(3, (2, 4), 2, seed=seed)
        report = validate_no_arbitrage(tree)
        assert report.ok
        # each witness is a positive martingale kernel for its node
        for i in np.flatnonzero(tree.times < tree.horizon):
            w = report.witness[i]
            kids = tree.children_of(i)
            assert w.min() > 0.0
            np.testing.assert_allclose(w.sum(), 1.0, atol=1e-9)
            drift = w @ (tree.prices[kids] - tree.prices[i])
            scale = np.abs(tree.dprice[kids]).max() + 1e-300
            assert np.abs(drift).max() / scale < 1e-8


def test_arbitrage_is_flagged():
    nodes = [
        {"parent": None, "prices": [1.0]},
        {"parent": 0, "prices": [1.05], "p": 0.5},
        {"parent": 0, "prices": [1.30], "p": 0.5},
    ]
    tree = tree_from_nodes(nodes)
    report = validate_no_arbitrage(tree)
    assert not report.ok
    assert not report.node_ok[0]
    with pytest.raises(Exception):
        report.require()


def test_tree_from_nodes_rejects_bad_order():
    with pytest.raises(TreeStructureError):
        tree_from_nodes([
            {"parent": None, "prices": [1.0]},
            {"parent": 2, "prices": [1.1], "p": 0.5},
            {"parent": 0, "prices": [0.9], "p": 0.5},
        ])


def test_build_tree_kinds():
    t1 = build_tree({"kind": "lattice", "model": "binomial", "steps": 3})
    assert t1.horizon == 3
    t2 = build_tree({"kind": "random", "depth": 2, "branching": [2, 3],
                     "assets": 2, "seed": 5})
    assert t2.n_assets == 2
    with pytest.raises(TreeStructureError):
        build_tree({"kind": "nope"})
    with pytest.raises(TreeStructureError):
        build_tree({"kind": "lattice", "model": "quadrinomial", "steps": 2})


def test_random_claim_is_bounded_and_seeded():
    tree = random_tree(4, 3, 1, seed=2)
    c1 = random_claim(tree, seed=9, bound=1.5)
    c2 = random_claim(tree, seed=9, bound=1.5)
    assert c1.sup_norm <= 1.5 + 1e-12
    np.testing.assert_array_equal(c1.values, c2.values)
    assert c1.values.shape == (tree.terminal_nodes.size,)


def test_claim_from_function(tree11):
    claim = ClaimSpec.from_function(tree11, lambda p: abs(p[0] - 1.0))
    term = tree11.terminal_nodes
    np.testing.assert_allclose(claim.values,
                               np.abs(tree11.prices[term, 0] - 1.0))


def test_horizon_rule_is_a_stopping_rule(tree11):
    rule = horizon_rule(tree11)
    assert is_stopping_rule(tree11, rule)


def test_random_stopping_rule_is_antichain(tree11):
    for seed in range(5):
        rule = random_stopping_rule(tree11, seed=seed)
        assert is_stopping_rule(tree11, rule)


def test_non_antichain_rejected(tree11):
    # a node plus one of its children cannot both belong to a cut
    i = int(tree11.children_of(0)[0])
    bad = np.array([i, int(tree11.children_of(i)[0]),
                    *horizon_rule(tree11)[2:]])
    assert not is_stopping_rule(tree11, bad)


def test_basis_risk_lattice_geometry():
    lat = basis_risk_lattice(16, rho=0.6)
    assert lat.steps == 16
    assert lat.joint_prob.shape == (4,)
    np.testing.assert_allclose(lat.joint_prob.sum(), 1.0, atol=1e-12)
    assert lat.joint_prob.min() > 0.0
    with pytest.raises(TreeStructureError):
        basis_risk_lattice(8, rho=1.0)


@pytest.mark.parametrize("kwargs, field", [
    ({"depth": -1}, "depth"),
    ({"depth": 2, "branching": 0}, "branching"),
    ({"depth": 2, "branching": 1}, "branching"),
    ({"depth": 2, "branching": (1, 3)}, "branching"),
    ({"depth": 2, "branching": (4, 3)}, "branching"),
    ({"depth": 2, "assets": 0}, "assets"),
])
def test_random_tree_rejects_bad_shapes_naming_the_field(kwargs, field):
    with pytest.raises(TreeStructureError, match=field):
        random_tree(**kwargs)


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _tree_arrays(tree):
    return (tree.times, tree.parent, tree.prices, tree.edge_prob)


# sha256 prefixes of the generators' output, recorded on the per-node
# generators that built the frozen corpus; any rewrite must keep them
RANDOM_TREE_DIGESTS = {
    (9, 3, 1): "cac82fc7c839f969",
    (4, (2, 4), 2): "a6f469428766ca04",
    (6, 3, 2): "9bd1f2c705d43a9a",
    (5, (2, 4), 1): "402ea146435ccc3d",
    (3, (2, 7), 3): "2b257b15d9cef06e",
    (3, 8, 1): "0085f8f6685bdb10",
    (3, 8, 3): "f216717342201a5a",
    (3, (2, 9), 2): "a1b1f43d23b8b99a",
    (2, 12, 1): "5d0c9f00f6a53fb7",
    (0, 3, 1): "1478efdedc290230",
    (1, 2, 1): "6d4b61519646bd98",
}


def test_generators_are_bitwise_frozen(corpus, tree11):
    for shape, want in RANDOM_TREE_DIGESTS.items():
        got = _digest(*(a for seed in range(5)
                        for a in _tree_arrays(random_tree(*shape, seed=seed))))
        assert got == want, shape
    assert _digest(*(a for i in range(100)
                     for a in _tree_arrays(corpus(i)[0]))) == "ea561f5400f21c5b"
    assert _digest(*_tree_arrays(binomial_tree(4))) == "21b21e97c3a9b40b"
    assert _digest(*_tree_arrays(trinomial_tree(4))) == "e126c8d4ab166ba4"
    assert _digest(*(random_stopping_rule(tree11, seed=s)
                     for s in range(10))) == "10e9342cb2f2022e"
    ragged = random_tree(5, (2, 4), 1, seed=3)
    assert _digest(*(random_stopping_rule(ragged, seed=s, stop_prob=0.6)
                     for s in range(10))) == "f5445727e2c85e30"
    np.testing.assert_array_equal(random_stopping_rule(random_tree(0, 3, 1)), [0])


NUMPY_MA_SCRIPT = """
import sys
from indifftree import (dual_surface, indifference_surface, minimal_entropy_measure,
                        property_checks, random_claim, random_stopping_rule,
                        random_tree, small_alpha_sweep, time_consistency_check,
                        validate_no_arbitrage)
tree = random_tree(3, (2, 4), 2, seed=0)
tree.groups()
indifference_surface(tree, random_claim(tree, seed=0), 1.0)
time_consistency_check(tree, random_claim(tree, seed=1), 1.0,
                       random_stopping_rule(tree, seed=0), tree.terminal_nodes)
# the benchmark's corpus op on a one-asset tree of mixed branching
tree = random_tree(4, (2, 4), 1, seed=1)
claim = random_claim(tree, seed=2)
measure = minimal_entropy_measure(tree).measure
for alpha in (0.25, 1.0, 4.0):
    indifference_surface(tree, claim, alpha, measure)
    dual_surface(tree, claim, alpha)
property_checks(tree, claim, 1.0, measure, seed=0)
small_alpha_sweep(tree, claim, [2.0 ** -k for k in range(8, -1, -1)], measure)
validate_no_arbitrage(tree)
print('numpy.ma' in sys.modules)
"""


def test_tree_build_and_pricing_never_load_numpy_ma():
    # np.unique imports numpy.ma on its first call, 7-19 ms and about
    # 540 KB of peak RSS a process
    env = dict(os.environ, PYTHONPATH=str(Path(indifftree.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", NUMPY_MA_SCRIPT],
                         capture_output=True, text=True, env=env, check=True).stdout
    assert out.split() == ["False"]


def per_node_random_tree(depth, branching, assets, seed, vol=0.25):
    """The per-node generator that built the frozen corpus (reference)."""
    rng = np.random.default_rng(seed)
    times, parent, prices, prob, prev = [0], [-1], [np.ones(assets)], [1.0], [0]
    for t in range(depth):
        nxt = []
        for node in prev:
            k = int(branching) if np.isscalar(branching) else int(
                rng.integers(branching[0], branching[1] + 1))
            scale = vol * rng.uniform(0.4, 1.0)
            moves = rng.normal(0.0, scale, size=(k, assets))
            moves -= moves.mean(axis=0)
            w = rng.uniform(0.0, 1.0, size=k) + 0.25
            w /= w.sum()
            for j in range(k):
                times.append(t + 1)
                parent.append(node)
                prices.append(prices[node] + moves[j])
                prob.append(w[j])
                nxt.append(len(times) - 1)
        prev = nxt
    return np.asarray(times), np.asarray(parent), np.vstack(prices), np.asarray(prob)


def per_node_stopping_rule(tree, seed, stop_prob):
    """The per-node walk behind ``random_stopping_rule`` (reference)."""
    rng = np.random.default_rng(seed + 31_337)
    stopped_above = np.zeros(tree.n_nodes, dtype=bool)
    members = []
    for t in range(tree.horizon + 1):
        for i in tree.slice_nodes(t):
            if t > 0 and stopped_above[tree.parent[i]]:
                stopped_above[i] = True
            elif t == tree.horizon or (t > 0 and rng.uniform() < stop_prob):
                members.append(i)
                stopped_above[i] = True
    return np.asarray(members, dtype=np.int64)


@pytest.mark.parametrize("shape", [(3, (2, 5), 2), (4, 4, 1), (2, (3, 10), 1),
                                   (3, (2, 2), 3), (1, 9, 2)])
def test_slice_generators_match_per_node_reference(shape):
    for seed in (5, 6, 7):
        tree = random_tree(*shape, seed=seed)
        for got, want in zip(_tree_arrays(tree), per_node_random_tree(*shape, seed)):
            np.testing.assert_array_equal(got, want)
        for s, p in ((seed, 0.3), (seed + 1, 0.05), (seed + 2, 0.9)):
            np.testing.assert_array_equal(random_stopping_rule(tree, seed=s, stop_prob=p),
                                          per_node_stopping_rule(tree, s, p))
