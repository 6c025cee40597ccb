"""The two tree primitives against a naive per-node walk.

``EventTree.forward`` (path accumulation from the root) and
``EventTree.reduce_children`` / ``EventTree.backward`` (one-step and
recursive conditional expectation) read the breadth-first edge layout
with one vectorized step per slice.  The walks below visit one node at a
time through ``parent`` and ``children_of`` only, and are the oracle.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from indifftree import minimal_entropy_measure, random_tree
from indifftree.lattice import EventTree


def naive_forward(tree, op, x):
    out = np.array(x, copy=True)
    for c in range(1, tree.n_nodes):
        out[c] = op(out[tree.parent[c]], x[c])
    return out


def naive_reduce_children(tree, op, x):
    out = np.zeros_like(x)
    for i in range(tree.n_nodes):
        ch = tree.children_of(i)
        if ch.size:
            acc = x[ch[0]]
            for c in ch[1:]:
                acc = op(acc, x[c])
            out[i] = acc
    return out


def naive_backward(tree, q, x):
    out = np.array(x, dtype=np.float64, copy=True)
    for i in range(tree.n_nodes - 1, -1, -1):
        ch = tree.children_of(i)
        if ch.size:
            out[i] = out[i] + sum(q[c] * out[c] for c in ch)
    return out


@st.composite
def trees(draw):
    horizon = draw(st.sampled_from([0, 1, 4]))
    branching = draw(st.sampled_from([(2, 4), 8]))
    d = draw(st.sampled_from([1, 3]))
    return random_tree(horizon, branching, d, seed=draw(st.integers(0, 2 ** 16)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(trees(), st.integers(0, 2 ** 16))
def test_primitives_match_naive_walk(tree, seed):
    rng = np.random.default_rng(seed)
    n, d = tree.n_nodes, tree.n_assets
    scalar = rng.uniform(0.5, 1.5, size=n)
    square = rng.normal(size=(n, d, d))
    flags = rng.uniform(size=n) < 0.2
    q = rng.uniform(0.1, 1.0, size=n)

    for op, x in ((np.add, scalar), (np.multiply, scalar),
                  (np.logical_or, flags), (np.add, square)):
        got = tree.forward(op, x)
        assert got.dtype == x.dtype
        np.testing.assert_array_equal(got, naive_forward(tree, op, x))

    for op, x in ((np.add, scalar), (np.maximum, scalar), (np.add, square)):
        np.testing.assert_allclose(tree.reduce_children(op, x),
                                   naive_reduce_children(tree, op, x),
                                   rtol=1e-14, atol=1e-14)
    step = q[:, None] * tree.dprice
    np.testing.assert_allclose(tree.reduce_children(np.add, step),
                               naive_reduce_children(tree, np.add, step),
                               rtol=1e-14, atol=1e-14)

    for x in (scalar, square):
        np.testing.assert_allclose(tree.backward(q, x), naive_backward(tree, q, x),
                                   rtol=1e-13, atol=1e-13)


def test_degenerate_nodes_counted_once_per_tree():
    base = random_tree(3, 3, 2, seed=5)
    dup = EventTree(base.times, base.parent,
                    np.hstack([base.prices, base.prices[:, :1]]), base.edge_prob)
    assert dup.degenerate_nodes == 13 == int((dup.times < dup.horizon).sum())
    assert minimal_entropy_measure(dup).degenerate_nodes == 13
    tree = random_tree(4, 3, 2, seed=1)
    assert tree.degenerate_nodes == 0
    assert minimal_entropy_measure(tree).degenerate_nodes == 0
