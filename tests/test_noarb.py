"""No-arbitrage certificate: the batched entropic witness against the LP.

``validate_no_arbitrage`` certifies each (slice, k) group with one
entropic kernel call and solves the LP only for the nodes the kernel
leaves undecided.  The oracle here is the per-node LP scan it replaced,
kept verbatim; ``node_ok`` must equal it on every tree.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog

import indifftree
from indifftree import minimal_entropy_measure, validate_no_arbitrage
from indifftree.cli import main
from indifftree.errors import NoArbitrageViolated
from indifftree.lattice import EventTree, one_period_tree, tree_from_nodes

from conftest import corpus_instance


def _relint_lp(ds, tol):
    """max eps s.t. q >= eps, sum q = 1, ds' q = 0; the kernel, or None."""
    k, d = ds.shape
    c = np.zeros(k + 1)
    c[-1] = -1.0
    a_eq = np.zeros((d + 1, k + 1))
    a_eq[:d, :k] = ds.T
    a_eq[d, :k] = 1.0
    b_eq = np.zeros(d + 1)
    b_eq[d] = 1.0
    a_ub = np.hstack([-np.eye(k), np.ones((k, 1))])
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(k), A_eq=a_eq, b_eq=b_eq,
                  bounds=[(None, None)] * (k + 1), method="highs")
    if not res.success or res.x[-1] <= tol:
        return None
    q = np.clip(res.x[:k], 0.0, None)
    return q / q.sum()


def lp_scan(tree):
    """The per-node LP scan: the LP's kernel at every non-terminal node."""
    out = {}
    for t in range(tree.horizon):
        for i in tree.slice_nodes(t):
            ds = tree.increments(i)
            scale = max(1.0, float(np.abs(ds).max()))
            out[int(i)] = _relint_lp(ds / scale, 1e-11)
    return out


def check_report(tree, report):
    """node_ok equals the LP scan; every witness is a martingale kernel.

    HiGHS meets equality constraints only to 1e-7, so the scan passes an
    arbitrage smaller than that with a kernel that is no martingale
    kernel; the scan's verdict counts only with a kernel that is one.
    """
    assert report.ok == bool(report.node_ok.all())
    assert set(report.lp_nodes.tolist()) >= set(np.flatnonzero(~report.node_ok).tolist())
    for i, lp_w in lp_scan(tree).items():
        ds = tree.increments(i)
        scale = max(1.0, float(np.abs(ds).max()))
        sound = lp_w is not None and np.abs(lp_w @ ds).max() / scale < 1e-10
        assert report.node_ok[i] == sound, i
        w = report.witness[i]
        if not sound:
            assert w is None
            continue
        assert w.min() > 0.0
        assert abs(w.sum() - 1.0) <= 1e-12
        assert np.abs(w @ ds).max() / scale < 1e-10


# Increments are integer multiples of GRID: prices built from them add
# exactly, so each node's increments are exactly the drawn ones, and a
# zero on the hull boundary stays on it.  Nonzero entries are at least
# GRID ~ 9.5e-7, above the 1e-9 at which HiGHS drops LP coefficients,
# so the oracle reads every entry it is given.
GRID = 2.0 ** -20
PATTERNS = ("generic", "centered", "boundary", "margin", "zero")


@st.composite
def node_increments(draw, d):
    """(k, d) increments of one node, drawn to one of PATTERNS.

    ``boundary`` is the D1 pattern: coordinate 0 is nonnegative with a
    zero row, so zero sits on a face of the hull.  ``margin`` puts one
    row a single grid step below that face, so zero is inside (d = 1)
    or near the boundary by a tiny margin.  Any pattern may get a
    duplicated asset column.
    """
    k = draw(st.integers(2, 8))
    x = draw(arrays(np.int64, (k, d), elements=st.integers(-2 ** 21, 2 ** 21)))
    pattern = draw(st.sampled_from(PATTERNS))
    j = draw(st.integers(0, k - 1))
    if pattern == "zero":
        x[:] = 0
    elif pattern == "centered":
        x[-1] = -x[:-1].sum(axis=0)
    elif pattern in ("boundary", "margin"):
        x[-1, 1:] = -x[:-1, 1:].sum(axis=0)
        x[:, 0] = np.abs(x[:, 0])
        x[j, 0] = 0 if pattern == "boundary" else -1
        if pattern == "boundary" and draw(st.booleans()):
            x[j] = 0
    if d > 1 and draw(st.booleans()):
        x[:, 1] = draw(st.sampled_from([1, 2, -1])) * x[:, 0]
    return x * GRID


@st.composite
def grid_trees(draw):
    """Depth-1 or depth-2 trees whose node increments come from node_increments."""
    d = draw(st.integers(1, 3))
    depth = draw(st.integers(1, 2))
    times, parent, prices, prob = [0], [-1], [np.zeros(d)], [1.0]
    frontier = [0]
    for t in range(depth):
        nxt = []
        for node in frontier:
            ds = draw(node_increments(d))
            w = np.array(draw(st.lists(st.integers(1, 100), min_size=len(ds),
                                       max_size=len(ds))), dtype=float)
            for j in range(len(ds)):
                times.append(t + 1)
                parent.append(node)
                prices.append(prices[node] + ds[j])
                prob.append(w[j] / w.sum())
                nxt.append(len(times) - 1)
        frontier = nxt
    return EventTree(np.array(times), np.array(parent), np.vstack(prices), np.array(prob))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(grid_trees())
def test_certificate_matches_lp_oracle(tree):
    report = validate_no_arbitrage(tree)
    check_report(tree, report)
    if tree.n_assets == 1:
        # the closed form: zero inside the hull, or all increments zero
        for i in np.flatnonzero(tree.times < tree.horizon):
            ds = tree.increments(i)[:, 0]
            assert report.node_ok[i] == ((ds.min() < 0 < ds.max()) or not ds.any())


def test_certificate_matches_lp_oracle_on_corpus():
    for i in range(100):
        tree, _ = corpus_instance(i)
        report = validate_no_arbitrage(tree)
        assert report.ok and report.lp_nodes.size == 0, i
        check_report(tree, report)


D1_TREE = ([1.0], [[1.1], [1.0], [1.0]], [0.3, 0.3, 0.4])


def test_d1_boundary_zero_is_flagged(tmp_path):
    tree = one_period_tree(*D1_TREE)
    report = validate_no_arbitrage(tree)
    assert not report.node_ok[0] and report.lp_nodes.tolist() == [0]
    check_report(tree, report)
    with pytest.raises(NoArbitrageViolated,
                       match=r"^one-step arbitrage at node 0 \(slice 0\)$"):
        report.require()
    s0, kids, probs = D1_TREE
    cfg = tmp_path / "d1.json"
    cfg.write_text(json.dumps({"tree": {"kind": "explicit", "nodes": [
        {"parent": None, "prices": s0},
        *({"parent": 0, "prices": c, "p": p} for c, p in zip(kids, probs))]}}))
    assert main(["validate", "--config", str(cfg), "--seed", "0",
                 "--out", str(tmp_path)]) == 2
    summary = json.loads((tmp_path / "validate-0.json").read_text())
    assert summary["failure"]["node"] == 0 and summary["lp_nodes"] == 1


@pytest.mark.parametrize("kids", [
    [[1e-4], [0.0], [0.0]],                  # D1 with small increments
    [[1e-8], [0.0], [0.0]],
    [[1e-9], [0.0], [0.0]],                  # the LP drops the 1e-9 entry
    [[1.0, 0.0], [-1.0, 0.0], [0.5, 1e-4]],  # one child a hair off the face
])
def test_small_residual_cannot_certify_a_boundary_zero(kids):
    # Newton stops once w_off * ds_off < 1e-12, leaving w_off near 1e-8
    # at ds_off = 1e-4, above the witness floor; the exact-martingale
    # step removes it and the node goes to the LP
    tree = one_period_tree(np.zeros(len(kids[0])), kids, [0.3, 0.3, 0.4])
    report = validate_no_arbitrage(tree)
    assert report.lp_nodes.tolist() == [0] and not report.ok
    check_report(tree, report)


def test_deeper_failure_names_its_slice():
    nodes = [{"parent": None, "prices": [1.0]},
             {"parent": 0, "prices": [1.2], "p": 0.5},
             {"parent": 0, "prices": [0.8], "p": 0.5},
             *({"parent": 1, "prices": [p], "p": 0.5} for p in (1.3, 1.1)),
             *({"parent": 2, "prices": [p], "p": 0.5} for p in (0.9, 0.85))]
    report = validate_no_arbitrage(tree_from_nodes(nodes))
    assert report.node_ok.tolist()[:3] == [True, True, False]
    with pytest.raises(NoArbitrageViolated, match=r"at node 2 \(slice 1\)$"):
        report.require()


def test_sound_cli_validate_reports_no_lp_nodes(tmp_path):
    assert main(["validate", "--seed", "7", "--depth", "3", "--branching", "3",
                 "--assets", "2", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "validate-7.json").read_text())
    assert summary["ok"] and summary["lp_nodes"] == 0


def test_entropy_measure_raises_on_two_child_arbitrage():
    tree = tree_from_nodes([{"parent": None, "prices": [1.0]},
                            {"parent": 0, "prices": [1.05], "p": 0.5},
                            {"parent": 0, "prices": [1.30], "p": 0.5}])
    with pytest.raises(NoArbitrageViolated, match=r"node 0 \(slice 0\)"):
        minimal_entropy_measure(tree)


LAZY_SCRIPT = """
import sys, tempfile
from indifftree import cli, random_tree, validate_no_arbitrage
from indifftree.lattice import one_period_tree
loaded = lambda: 'scipy.optimize' in sys.modules
print(validate_no_arbitrage(random_tree(4, 3, 2, seed=0)).ok, loaded())
with tempfile.TemporaryDirectory() as out:
    code = cli.main(['validate', '--seed', '0', '--depth', '4', '--branching', '3',
                     '--assets', '2', '--out', out])
print(code, loaded())
rep = validate_no_arbitrage(one_period_tree(*{d1}))
print(rep.node_ok[0], rep.lp_nodes.tolist(), loaded())
"""


def test_sound_tree_never_loads_scipy_optimize():
    env = dict(os.environ, PYTHONPATH=str(Path(indifftree.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", LAZY_SCRIPT.format(d1=D1_TREE)],
                         capture_output=True, text=True, env=env, check=True).stdout
    assert out.splitlines() == ["True False", "0 False", "False [0] True"]


def test_arbitrage_below_the_lp_tolerance_is_flagged():
    # the LP passes (0.9, 0.1), whose drift 1e-7 is within HiGHS's
    # equality tolerance; no kernel with zero drift exists
    tree = one_period_tree([0.0, 0.0], [[1e-6, 0.0], [-9e-6, 1e-6]], [0.5, 0.5])
    report = validate_no_arbitrage(tree)
    assert not report.ok and report.lp_nodes.tolist() == [0]
    check_report(tree, report)
    with pytest.raises(NoArbitrageViolated, match=r"exists at node 0 \(slice 0\)$"):
        minimal_entropy_measure(tree)
