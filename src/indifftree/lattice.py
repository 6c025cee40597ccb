"""Finite event trees for incomplete-market valuation.

An :class:`EventTree` is a finite, rooted tree whose nodes carry a price
vector for ``d`` traded assets and whose edges carry strictly positive
one-step probabilities.  Nodes are indexed breadth first (root = 0,
children stored contiguously, slices of equal time are contiguous index
ranges), which makes every backward recursion in the package a sequence
of vectorized slice operations and keeps rebuilds bitwise identical.

The module also provides generators (explicit node lists, multiplicative
lattices, seeded random trees that are arbitrage-free by construction),
one-step arbitrage validation, self-financing gains, stopping rules, and
a compact recombining representation of a two-factor basis-risk model
used for step-refinement studies.
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ._onestep import (WITNESS_FLOOR, _widths, lse_newton_t, martingale_part, relint_witness,
                       row_inputs)
from .errors import NoArbitrageViolated, StoppingRuleError, TreeStructureError
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "EventTree",
    "ClaimSpec",
    "BasisRiskLattice",
    "NoArbitrageReport",
    "tree_from_nodes",
    "build_tree",
    "one_period_tree",
    "binomial_tree",
    "trinomial_tree",
    "random_tree",
    "random_claim",
    "basis_risk_lattice",
    "validate_no_arbitrage",
    "gains",
    "random_strategy",
    "is_stopping_rule",
    "validate_stopping_rule",
    "random_stopping_rule",
    "stopping_precedes",
    "horizon_rule",
]


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


class SliceLayout(NamedTuple):
    """A time slice as one children-major kernel call (see ``_onestep``)."""

    nodes: np.ndarray       # (m,) the slice's nodes
    children: np.ndarray    # (k, m), k the widest node's; padded slots point at the root
    pad: np.ndarray | None  # (k, m) bool, padded slots; None where branching is uniform
    ds: np.ndarray          # (d, k, m) increments, 0 on padded slots
    scale: np.ndarray       # (m,) max(1, |ds|_inf)
    degenerate: np.ndarray  # (m,) bool, real children's increments rank deficient


class EventTree:
    """Immutable event tree with breadth-first node indexing.

    Parameters
    ----------
    times : (n,) int array, node time indices, root at 0.
    parent : (n,) int array, parent index, -1 for the root.
    prices : (n, d) float array, asset prices at each node.
    edge_prob : (n,) float array, one-step conditional probability of the
        edge from ``parent[i]`` to ``i`` (1.0 at the root).  The
        probabilities over each node's children must sum to one.

    Attributes
    ----------
    horizon : terminal time N; every leaf sits exactly at N.
    n_assets : number of traded assets d.
    dprice : (n, d) price increment along the incoming edge (0 at root).
    child_start, child_count : contiguous children bookkeeping.

    The breadth-first layout (children contiguous, parents non-decreasing,
    non-terminal nodes a prefix) is read through the tree primitives:
    :meth:`forward` accumulates along paths from the root,
    :meth:`reduce_children` and :meth:`backward` take one-step and
    recursive conditional expectations from the horizon, and
    :meth:`layouts` feeds the batched one-step solvers.  Per-node arrays
    are indexed by node; a per-edge quantity sits at the edge's child.
    """

    def __init__(self, times, parent, prices, edge_prob, *, tol: Tolerances = DEFAULT):
        times = np.asarray(times, dtype=np.int64)
        parent = np.asarray(parent, dtype=np.int64)
        prices = np.asarray(prices, dtype=np.float64)
        edge_prob = np.asarray(edge_prob, dtype=np.float64)
        if prices.ndim != 2:
            raise TreeStructureError("prices must be a 2-d array (nodes x assets)")
        n = times.shape[0]
        if not (parent.shape == (n,) and prices.shape[0] == n and edge_prob.shape == (n,)):
            raise TreeStructureError("node array lengths disagree")
        if n == 0 or times[0] != 0 or parent[0] != -1:
            raise TreeStructureError("node 0 must be the root at time 0")
        if np.any(np.diff(times) < 0):
            raise TreeStructureError("nodes must be listed breadth first")
        if not np.all(np.isfinite(prices)):
            raise TreeStructureError("prices must be finite")

        # contiguous children: parents of the breadth-first listing are
        # non-decreasing and every non-root child points one slice up
        if n > 1:
            if np.any(np.diff(parent[1:]) < 0):
                raise TreeStructureError("children of each node must be contiguous")
            if np.any(times[1:] != times[parent[1:]] + 1):
                raise TreeStructureError("each edge must advance time by one step")

        child_count = np.zeros(n, dtype=np.int64)
        np.add.at(child_count, parent[1:], 1)
        # first occurrence of each node in the sorted parent list
        first = np.searchsorted(parent[1:], np.arange(n)) + 1
        child_start = np.where(child_count > 0, first, 0)

        horizon = int(times.max())
        interior = times < horizon
        if np.any(child_count[interior] < 2):
            raise TreeStructureError("non-terminal nodes need at least two children")
        if np.any(child_count[~interior] != 0):
            raise TreeStructureError("terminal nodes cannot have children")
        if np.any(edge_prob[1:] < tol.prob_floor):
            raise TreeStructureError(
                f"one-step probabilities must be >= {tol.prob_floor}")
        # kernel mass per parent
        mass = np.zeros(n)
        np.add.at(mass, parent[1:], edge_prob[1:])
        if np.any(np.abs(mass[interior] - 1.0) > tol.kernel_sum):
            raise TreeStructureError("children probabilities must sum to one")

        dprice = np.zeros_like(prices)
        if n > 1:
            dprice[1:] = prices[1:] - prices[parent[1:]]

        self.times = _freeze(times)
        self.parent = _freeze(parent)
        self.prices = _freeze(prices)
        self.edge_prob = _freeze(edge_prob)
        self.child_start = _freeze(child_start)
        self.child_count = _freeze(child_count)
        self.dprice = _freeze(dprice)
        self.horizon = horizon
        self.n_nodes = n
        self.n_assets = prices.shape[1]
        # contiguous [start, stop) of each time slice
        bounds = np.searchsorted(times, np.arange(horizon + 2))
        self._slice_bounds = _freeze(bounds)
        self._layouts: list | None = None
        self._groups: list | None = None
        self._zero_legs: dict = {}  # Tolerances -> zero-cost EntropyResult, filled by measures

    # -- structure access -------------------------------------------------

    def slice_nodes(self, t: int) -> np.ndarray:
        """Node indices of time slice ``t`` (a contiguous range)."""
        return np.arange(self._slice_bounds[t], self._slice_bounds[t + 1])

    @property
    def terminal_nodes(self) -> np.ndarray:
        return self.slice_nodes(self.horizon)

    def children_of(self, i: int) -> np.ndarray:
        s = self.child_start[i]
        return np.arange(s, s + self.child_count[i])

    def kernel(self, i: int) -> np.ndarray:
        """Reference one-step probabilities over children of node ``i``."""
        return self.edge_prob[self.children_of(i)]

    def increments(self, i: int) -> np.ndarray:
        """Price increments to the children of node ``i``, shape (k, d)."""
        return self.dprice[self.children_of(i)]

    def layouts(self) -> list[SliceLayout]:
        """One :class:`SliceLayout` per slice t < horizon, built at the first call."""
        if self._layouts is None:
            self._layouts = []
            for t in range(self.horizon):
                nodes = self.slice_nodes(t)
                counts = self.child_count[nodes]
                slots = np.arange(counts.max())[:, None]
                ch = self.child_start[nodes] + slots
                pad = _freeze(slots >= counts) if counts.min() < slots.size else None
                ch = ch if pad is None else np.where(pad, 0, ch)
                ds = np.ascontiguousarray(self.dprice[ch].transpose(2, 0, 1))
                self._layouts.append(SliceLayout(
                    nodes, _freeze(ch), pad, *map(_freeze, (ds, *row_inputs(ds, counts)))))
        return self._layouts

    def groups(self):
        """The layouts split by branching: per slice, {k: (nodes, children (m, k))}."""
        if self._groups is None:
            self._groups = []
            for lay in self.layouts():
                counts = self.child_count[lay.nodes]  # np.unique would import numpy.ma
                self._groups.append({k: (lay.nodes[counts == k],
                                         np.ascontiguousarray(lay.children[:k, counts == k].T))
                                     for k in sorted(set(counts.tolist()))})
        return self._groups

    @property
    def degenerate_nodes(self) -> int:
        """Number of non-terminal nodes whose increments do not span the
        asset space: the sum of the layouts' flags."""
        return int(sum(np.count_nonzero(lay.degenerate) for lay in self.layouts()))

    # -- tree primitives --------------------------------------------------

    def forward(self, op, x) -> np.ndarray:
        """Path accumulation from the root.

        ``out[0] = x[0]`` and ``out[c] = op(out[parent[c]], x[c])`` for a
        binary ufunc ``op`` (e.g. ``np.add``, ``np.multiply``,
        ``np.logical_or``); ``x`` is (n, ...), one vectorized step per slice.
        """
        out = np.array(x, copy=True)
        b = self._slice_bounds
        for t in range(1, self.horizon + 1):
            sl = slice(b[t], b[t + 1])
            op(out[self.parent[sl]], out[sl], out=out[sl])
        return out

    def reduce_children(self, op, x) -> np.ndarray:
        """One-step reduction ``out[i] = op.reduce(x[children of i])``.

        ``x`` is a per-edge (n, ...) array; every non-terminal node is
        reduced at once by one ``op.reduceat`` over the edges 1..n-1, and
        terminal rows are 0.  ``reduce_children(np.add, q * f)`` is the
        conditional expectation E_q[f | node] of a per-edge ``f``.
        """
        x = np.asarray(x)
        out = np.zeros_like(x)
        m = self._slice_bounds[self.horizon]
        out[:m] = op.reduceat(x[1:], self.child_start[:m] - 1, axis=0)
        return out

    def backward(self, q, x) -> np.ndarray:
        """Recursive conditional expectation from the horizon.

        ``out[i] = x[i]`` at terminal nodes and
        ``out[i] = x[i] + E_q[out[child] | i]`` elsewhere, for per-edge
        kernels ``q`` (n,) and ``x`` (n, ...): terminal values plus a
        per-node step.  One reduceat per slice.
        """
        out = np.array(x, dtype=np.float64, copy=True)
        q = np.asarray(q, dtype=np.float64).reshape((-1,) + (1,) * (out.ndim - 1))
        b = self._slice_bounds
        for t in range(self.horizon - 1, -1, -1):
            lo, hi, stop = b[t], b[t + 1], b[t + 2]
            out[lo:hi] += np.add.reduceat(q[hi:stop] * out[hi:stop],
                                          self.child_start[lo:hi] - hi, axis=0)
        return out

    def __repr__(self):  # pragma: no cover
        return (f"EventTree(nodes={self.n_nodes}, horizon={self.horizon}, "
                f"assets={self.n_assets})")


@dataclass(frozen=True)
class ClaimSpec:
    """Terminal payoff, aligned with ``tree.terminal_nodes``."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if not np.all(np.isfinite(v)):
            raise TreeStructureError("claim values must be finite")
        object.__setattr__(self, "values", _freeze(v))

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

    @classmethod
    def from_function(cls, tree: EventTree, fn: Callable[[np.ndarray], float]) -> "ClaimSpec":
        """Payoff from a function of the terminal price vector."""
        term = tree.terminal_nodes
        return cls(np.array([fn(tree.prices[i]) for i in term]))

    def full_surface(self, tree: EventTree) -> np.ndarray:
        """Values written into an (n,) array at terminal slots, zero elsewhere."""
        out = np.zeros(tree.n_nodes)
        out[tree.terminal_nodes] = self.values
        return out


# ---------------------------------------------------------------------------
# constructors


def tree_from_nodes(nodes: Sequence[dict], *, tol: Tolerances = DEFAULT) -> EventTree:
    """Build a tree from explicit node dicts.

    Each entry: ``{"parent": int | None, "prices": [...], "p": float | None}``
    listed in breadth-first order; ``p`` is the one-step probability of
    reaching the node from its parent (omitted/None for the root).
    """
    n = len(nodes)
    parent = np.full(n, -1, dtype=np.int64)
    times = np.zeros(n, dtype=np.int64)
    prob = np.ones(n)
    prices = []
    for i, spec in enumerate(nodes):
        if not isinstance(spec, dict):
            raise TreeStructureError(f"node {i}: must be an object")
        par = spec.get("parent")
        if par is None:
            if i != 0:
                raise TreeStructureError("only node 0 may be the root")
        else:
            par = int(par)
            if par >= i:
                raise TreeStructureError("parents must precede children")
            parent[i] = par
            times[i] = times[par] + 1
            if spec.get("p") is None:
                raise TreeStructureError(f"node {i}: missing probability")
            prob[i] = float(spec["p"])
        prices.append(np.asarray(spec["prices"], dtype=np.float64))
    price_arr = np.vstack([p.reshape(1, -1) for p in prices])
    return EventTree(times, parent, price_arr, prob, tol=tol)


def one_period_tree(s0, child_prices, probs, *, tol: Tolerances = DEFAULT) -> EventTree:
    """Single-step tree: one root, ``k`` terminal children."""
    s0 = np.atleast_1d(np.asarray(s0, dtype=np.float64))
    child_prices = np.atleast_2d(np.asarray(child_prices, dtype=np.float64))
    probs = np.asarray(probs, dtype=np.float64)
    nodes = [{"parent": None, "prices": s0}]
    nodes += [{"parent": 0, "prices": c, "p": probs[j]} for j, c in enumerate(child_prices)]
    return tree_from_nodes(nodes, tol=tol)


def _assemble(root, depth, step, op, tol) -> EventTree:
    """Breadth-first tree from a root price vector and ``step(m)``, the
    ``(parent, move, prob)`` child arrays of a slice of ``m`` nodes, where
    ``parent`` indexes that slice; a child's price is ``op(parent price, move)``."""
    prices = [np.atleast_2d(np.asarray(root, dtype=np.float64))]
    times, parent, prob = [np.zeros(1, dtype=np.int64)], [np.full(1, -1)], [np.ones(1)]
    start = 0
    for t in range(1, depth + 1):
        par, move, p = step(len(prices[-1]))
        parent.append(start + par)
        start += len(prices[-1])
        prices.append(op(prices[-1][par], move))
        times.append(np.full(len(par), t))
        prob.append(p)
    return EventTree(np.concatenate(times), np.concatenate(parent),
                     np.concatenate(prices), np.concatenate(prob), tol=tol)


def _multiplicative_tree(steps, s0, factors, probs, tol) -> EventTree:
    """Non-recombining expansion of a one-asset multiplicative lattice."""
    k = len(factors)
    return _assemble([float(s0)], steps, lambda m: (
        np.repeat(np.arange(m), k), np.tile(factors, m)[:, None], np.tile(probs, m)),
        np.multiply, tol)


def binomial_tree(steps, s0=1.0, up=1.2, down=0.85, p_up=0.5, *,
                  tol: Tolerances = DEFAULT) -> EventTree:
    """Explicit (non-recombining storage) binomial tree; complete market
    whenever ``down < 1 < up``."""
    return _multiplicative_tree(steps, s0, (up, down), (p_up, 1.0 - p_up), tol)


def trinomial_tree(steps, s0=1.0, up=1.25, mid=1.0, down=0.8,
                   probs=(1 / 3, 1 / 3, 1 / 3), *, tol: Tolerances = DEFAULT) -> EventTree:
    """Explicit trinomial tree (one traded asset, genuinely incomplete)."""
    return _multiplicative_tree(steps, s0, (up, mid, down), probs, tol)


def random_tree(depth, branching=3, assets=1, seed=0, *, vol=0.25,
                tol: Tolerances = DEFAULT) -> EventTree:
    """Seeded random event tree, arbitrage-free by construction.

    Child price increments at every node are mean-centered draws, so zero
    is a strictly positive convex combination of them (uniform weights);
    one-step probabilities are bounded well away from zero.

    Parameters
    ----------
    depth : number of time steps (horizon N).
    branching : fixed child count >= 2, or (lo, hi) with 2 <= lo <= hi for
        per-node uniform draws.
    assets : number of traded assets d >= 1.
    seed : RNG seed; equal seeds give bitwise-identical trees.
    vol : scale of relative price moves.

    Out-of-range shapes raise ``TreeStructureError`` naming the field.
    """
    pair = (branching, branching) if np.isscalar(branching) else tuple(branching)
    if depth < 0:
        raise TreeStructureError(f"depth must be at least 0, got {depth}")
    if len(pair) != 2 or not 2 <= pair[0] <= pair[1]:
        raise TreeStructureError(f"branching must be k >= 2 or (lo, hi) with "
                                 f"2 <= lo <= hi, got {branching}")
    if assets < 1:
        raise TreeStructureError(f"assets must be at least 1, got {assets}")
    rng = np.random.default_rng(seed)
    fixed = int(branching) if np.isscalar(branching) else None

    def step(m):
        # Only the draws go node by node, in the frozen order (branching if ranged,
        # scale, moves, weights).  Child sums are reshape(m_k, k, ...) sums per
        # branching group: they round as the per-node sum does, reduceat does not.
        ks, moves, u = [], [], []
        for _ in range(m):
            k = fixed or int(rng.integers(pair[0], pair[1] + 1))
            scale = vol * rng.uniform(0.4, 1.0)
            moves.append(rng.normal(0.0, scale, size=(k, assets)))
            u.append(rng.uniform(0.0, 1.0, size=k))
            ks.append(k)
        ks, moves, w = np.asarray(ks), np.concatenate(moves), np.concatenate(u) + 0.25
        for k in sorted(set(ks.tolist())):
            idx = np.flatnonzero(np.repeat(ks == k, ks)).reshape(-1, k)
            moves[idx] -= (moves[idx].sum(axis=1) / k)[:, None]  # centring => no arbitrage
            w[idx] /= w[idx].sum(axis=1, keepdims=True)
        return np.repeat(np.arange(m), ks), moves, w

    return _assemble(np.ones(assets), depth, step, np.add, tol)


def random_claim(tree: EventTree, seed=0, *, bound=2.0) -> ClaimSpec:
    """Seeded bounded claim mixing tradable shape and node noise.

    Combines an affine part, a ragged call-type part, and per-terminal
    noise (the noise keeps generic claims non-attainable), then rescales
    into ``[-bound, bound]``.
    """
    rng = np.random.default_rng(seed + 7_654_321)
    term = tree.terminal_nodes
    s = tree.prices[term]
    w = rng.normal(size=tree.n_assets)
    strike = rng.uniform(0.7, 1.3)
    affine = s @ w
    kinked = np.maximum(s[:, 0] - strike, 0.0)
    noise = rng.normal(scale=0.5, size=term.size)
    raw = rng.uniform(0.2, 1.0) * affine + rng.uniform(0.0, 1.5) * kinked + noise
    top = np.max(np.abs(raw))
    if top > 0:
        raw *= rng.uniform(0.4, 1.0) * bound / top
    return ClaimSpec(raw)


def build_tree(spec: dict, *, tol: Tolerances = DEFAULT) -> EventTree:
    """Build a tree from a config mapping (see the CLI module for the schema).

    ``kind`` selects the constructor: ``explicit`` (node list), ``lattice``
    (binomial/trinomial multiplicative), or ``random`` (seeded generator).
    """
    kind = spec.get("kind")
    if kind == "explicit":
        return tree_from_nodes(spec["nodes"], tol=tol)
    if kind == "lattice":
        model = spec.get("model", "binomial")
        steps = int(spec["steps"])
        if model == "binomial":
            return binomial_tree(steps, spec.get("s0", 1.0), spec.get("up", 1.2),
                                 spec.get("down", 0.85), spec.get("p_up", 0.5), tol=tol)
        if model == "trinomial":
            return trinomial_tree(steps, spec.get("s0", 1.0), spec.get("up", 1.25),
                                  spec.get("mid", 1.0), spec.get("down", 0.8),
                                  tuple(spec.get("probs", (1 / 3, 1 / 3, 1 / 3))), tol=tol)
        raise TreeStructureError(f"unknown lattice model {model!r}")
    if kind == "random":
        branching = spec.get("branching", 3)
        if isinstance(branching, (list, tuple)):
            branching = tuple(branching)
        return random_tree(int(spec["depth"]), branching, int(spec.get("assets", 1)),
                           int(spec.get("seed", 0)), vol=float(spec.get("vol", 0.25)),
                           tol=tol)
    raise TreeStructureError(f"unknown tree kind {kind!r}")


# ---------------------------------------------------------------------------
# arbitrage validation


@dataclass
class NoArbitrageReport:
    """Outcome of the one-step arbitrage scan.

    ``ok`` is True iff every non-terminal node admits a strictly positive
    martingale kernel; ``witness[i]`` stores one such kernel.  The LP
    decided the nodes ``lp_nodes``; ``times`` are the node times.
    """

    ok: bool
    node_ok: np.ndarray
    witness: list
    lp_nodes: np.ndarray
    times: np.ndarray

    def require(self):
        if not self.ok:
            bad = int(np.flatnonzero(~self.node_ok)[0])
            raise NoArbitrageViolated(
                f"one-step arbitrage at node {bad} (slice {int(self.times[bad])})")
        return self


def validate_no_arbitrage(tree: EventTree) -> NoArbitrageReport:
    """Scan all non-terminal nodes for one-step arbitrage.

    A node is sound iff zero lies in the relative interior of the convex
    hull of its child price increments, i.e. iff it carries a strictly
    positive martingale kernel.  Each slice is one entropic kernel call,
    padded as the sweeps are, on log p and the increments scaled by
    max(1, |ds|_inf), whose own scales are 1.0.  A node's converged
    weights, moved onto the martingale kernels, certify it when all
    exceed ``WITNESS_FLOOR``; only the other nodes solve the LP (importing
    scipy).  Sound random trees converge within 17 Newton steps, so the
    kernel gets 30.  The thresholds are fixed (drift 1e-12,
    ``WITNESS_FLOOR``, the LP's 1e-11), so configured tolerances do not
    apply to this scan.
    """
    node_ok = np.ones(tree.n_nodes, dtype=bool)
    witness: list = [None] * tree.n_nodes
    logp = np.log(tree.edge_prob)
    undecided = [np.zeros(0, dtype=np.int64)]
    for lay in tree.layouts():
        nodes, a, ds = lay.nodes, logp[lay.children], lay.ds / lay.scale
        a = a if lay.pad is None else np.where(lay.pad, -np.inf, a)
        sol = lse_newton_t(a, ds, np.ones(nodes.size), lay.degenerate, max_iter=30)
        ds = np.ascontiguousarray(ds.T)  # rows-major for the witnesses
        for k, rows in _widths(tree.child_count[nodes], np.arange(nodes.size)):
            q, drift = martingale_part(sol.w[rows, :k], ds[rows, :k])
            ok = ~sol.failed[rows] & (drift <= 1e-12) & (q.min(axis=1) > WITNESS_FLOOR)
            for i, w in zip(nodes[rows[ok]].tolist(), q[ok]):
                witness[i] = w
            undecided.append(nodes[rows[~ok]])
    lp_nodes = np.sort(np.concatenate(undecided))
    for i in lp_nodes.tolist():
        witness[i] = relint_witness(tree.increments(i))
        node_ok[i] = witness[i] is not None
    return NoArbitrageReport(bool(node_ok.all()), node_ok, witness, lp_nodes, tree.times)


# ---------------------------------------------------------------------------
# strategies and gains


def random_strategy(tree: EventTree, seed=0, scale=1.0) -> np.ndarray:
    """Seeded random holdings surface (rows at terminal nodes unused)."""
    rng = np.random.default_rng(seed + 999)
    theta = rng.normal(scale=scale, size=(tree.n_nodes, tree.n_assets))
    theta[tree.terminal_nodes] = 0.0
    return theta


def gains(tree: EventTree, theta: np.ndarray) -> np.ndarray:
    """Cumulative self-financing gains of holdings ``theta``.

    ``theta[i]`` is held over the step leaving node ``i``; the returned
    surface G satisfies G[root] = 0 and
    G[child] = G[parent] + theta[parent] . (S[child] - S[parent]).
    """
    theta = np.asarray(theta, dtype=np.float64)
    step = np.zeros(tree.n_nodes)
    step[1:] = np.einsum("ij,ij->i", theta[tree.parent[1:]], tree.dprice[1:])
    return tree.forward(np.add, step)


# ---------------------------------------------------------------------------
# stopping rules (antichain cuts)


def is_stopping_rule(tree: EventTree, members: np.ndarray) -> bool:
    mask = np.zeros(tree.n_nodes, dtype=np.int64)
    mask[np.asarray(members, dtype=np.int64)] = 1
    count = tree.forward(np.add, mask)  # members on the path to each node
    if np.any(count > 1):
        return False
    return bool(np.all(count[tree.terminal_nodes] == 1))


def validate_stopping_rule(tree: EventTree, members) -> np.ndarray:
    members = np.array(sorted(set(np.ravel(members).tolist())), dtype=np.int64)
    if members.size and (members.min() < 0 or members.max() >= tree.n_nodes):
        raise StoppingRuleError("stopping rule contains invalid node ids")
    if not is_stopping_rule(tree, members):
        raise StoppingRuleError("node set is not an exact cut of the tree")
    return members


def horizon_rule(tree: EventTree) -> np.ndarray:
    """The deterministic rule 'stop at the horizon'."""
    return tree.terminal_nodes.copy()


def random_stopping_rule(tree: EventTree, seed=0, stop_prob=0.3) -> np.ndarray:
    """Seeded random cut: walking down from the root, each not-yet-stopped
    node stops with probability ``stop_prob`` (terminals always stop)."""
    rng = np.random.default_rng(seed + 31_337)
    stopped = np.zeros(tree.n_nodes, dtype=bool)  # a member at or above the node
    members = [tree.slice_nodes(0)] if tree.horizon == 0 else []
    for t in range(1, tree.horizon + 1):
        nodes = tree.slice_nodes(t)
        stopped[nodes] = stopped[tree.parent[nodes]]
        live = nodes[~stopped[nodes]]
        if t < tree.horizon:
            live = live[rng.uniform(size=live.size) < stop_prob]
        stopped[live] = True
        members.append(live)
    return np.concatenate(members)


def _strictly_after(tree: EventTree, members) -> np.ndarray:
    """Mask of the nodes with a strict ancestor in the cut ``members``."""
    in_cut = np.zeros(tree.n_nodes, dtype=bool)
    in_cut[members] = True
    return tree.forward(np.logical_or, np.r_[False, in_cut[tree.parent[1:]]])


def stopping_precedes(tree: EventTree, earlier, later) -> bool:
    """True iff cut ``earlier`` happens no later than ``later`` on every path."""
    earlier = validate_stopping_rule(tree, earlier)
    later = validate_stopping_rule(tree, later)
    return not bool(np.any(_strictly_after(tree, later)[earlier]))


# ---------------------------------------------------------------------------
# recombining basis-risk lattice


@dataclass(frozen=True)
class BasisRiskLattice:
    """Joint binomial lattice for a traded asset S and a correlated
    non-traded factor V (payoffs depend on V only).

    State at time t is the pair (i, j) of up-move counts of S and V; the
    per-step joint kernel over (S-move, V-move) in the order
    (uu, ud, du, dd) is the same at every node, so slices are dense
    (t+1) x (t+1) grids and backward sweeps are pure array code.
    """

    steps: int
    s0: float
    v0: float
    s_factors: tuple  # (up, down)
    v_factors: tuple
    joint_prob: np.ndarray  # (4,) over (uu, ud, du, dd)

    def s_values(self, t: int) -> np.ndarray:
        up, down = self.s_factors
        i = np.arange(t + 1)
        return self.s0 * up ** i * down ** (t - i)

    def v_values(self, t: int) -> np.ndarray:
        up, down = self.v_factors
        j = np.arange(t + 1)
        return self.v0 * up ** j * down ** (t - j)

    @property
    def step_moves(self) -> np.ndarray:
        """Relative S-increment factor minus one for the four joint moves."""
        up, down = self.s_factors
        return np.array([up - 1.0, up - 1.0, down - 1.0, down - 1.0])


def basis_risk_lattice(steps, *, sigma_s=0.2, sigma_v=0.3, rho=0.6,
                       maturity=1.0, s0=1.0, v0=1.0) -> BasisRiskLattice:
    """Symmetric two-factor lattice with per-step correlation ``rho``."""
    if not -1.0 < rho < 1.0:
        raise TreeStructureError("correlation must lie in (-1, 1)")
    h = maturity / steps
    su, sd = float(np.exp(sigma_s * np.sqrt(h))), float(np.exp(-sigma_s * np.sqrt(h)))
    vu, vd = float(np.exp(sigma_v * np.sqrt(h))), float(np.exp(-sigma_v * np.sqrt(h)))
    p = np.array([(1 + rho) / 4, (1 - rho) / 4, (1 - rho) / 4, (1 + rho) / 4])
    return BasisRiskLattice(int(steps), float(s0), float(v0), (su, sd), (vu, vd), _freeze(p))
