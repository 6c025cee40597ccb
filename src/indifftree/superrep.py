"""Superreplication values and the optional decomposition on event trees.

The superhedging value of a claim is the backward maximum of one-step
expectations over the closed polytope of martingale kernels at each
node.  Small nodes are solved by enumerating the polytope's vertices
(basic feasible solutions), larger ones by the simplex method; the two
routes agree to solver tolerance and tests cross-check them.

The decomposition pass recovers, node by node, holdings ``psi`` and
nonnegative consumption increments ``dk`` with

    cstar_child = cstar_node + psi . dS - dk,   dk >= 0,

feasible by LP duality; among all feasible holdings the minimal
Euclidean norm one is returned (a tiny active-set quadratic program),
which makes the output deterministic and reproduces the replicating
strategy exactly on attainable claims.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from .errors import NoArbitrageViolated, TreeStructureError
from .lattice import ClaimSpec, EventTree
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "SuperrepSurface",
    "martingale_vertices",
    "superrep_surface",
    "optional_decomposition",
    "subrep_surface",
]

_VERTEX_MAX_BRANCH = 6


@dataclass
class SuperrepSurface:
    """Superhedging value surface with its decomposition.

    values : (n,) superreplication price at each node.
    psi : (n, d) superhedging holdings (filled by the decomposition pass).
    dk : (n,) consumption along the incoming edge (0 at the root).
    argmax_edge : (n,) an optimal one-step kernel per edge (may contain
        zeros; it lives on the closed martingale polytope).
    decomposed : whether psi/dk have been computed.
    """

    values: np.ndarray
    psi: np.ndarray
    dk: np.ndarray
    argmax_edge: np.ndarray
    decomposed: bool = False


def martingale_vertices(ds: np.ndarray) -> np.ndarray:
    """Vertices of  {q >= 0, sum q = 1, q @ ds = 0}  by basis enumeration.

    Returns an array (n_vertices, k).  Raises ``NoArbitrageViolated``
    when the polytope is empty.
    """
    ds = np.atleast_2d(np.asarray(ds, dtype=np.float64))
    k, d = ds.shape
    scale = max(1.0, float(np.abs(ds).max()))
    a = np.vstack([ds.T / scale, np.ones((1, k))])  # (d+1, k)
    b = np.zeros(d + 1)
    b[-1] = 1.0
    r = np.linalg.matrix_rank(a, tol=1e-12)
    verts = []
    for cols in combinations(range(k), r):
        sub = a[:, cols]
        sol, residual, rank, _ = np.linalg.lstsq(sub, b, rcond=None)
        if rank < r:
            continue
        if np.linalg.norm(a[:, cols] @ sol - b) > 1e-10:
            continue
        if np.any(sol < -1e-12):
            continue
        q = np.zeros(k)
        q[list(cols)] = np.clip(sol, 0.0, None)
        s = q.sum()
        if s <= 0:
            continue
        q /= s
        if np.abs(q @ ds).max() > 1e-9 * scale:
            continue
        verts.append(q)
    if not verts:
        raise NoArbitrageViolated("empty martingale polytope at a node")
    out = np.unique(np.round(np.vstack(verts), 12), axis=0)
    return out


def _lp_step(ds: np.ndarray, v: np.ndarray):
    """max_q q . v over the martingale polytope, via HiGHS."""
    from scipy.optimize import linprog

    k, d = ds.shape
    scale = max(1.0, float(np.abs(ds).max()))
    a_eq = np.vstack([ds.T / scale, np.ones((1, k))])
    b_eq = np.zeros(d + 1)
    b_eq[-1] = 1.0
    res = linprog(-v, A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * k, method="highs")
    if not res.success:
        raise NoArbitrageViolated("infeasible one-step superhedging program")
    return -res.fun, res.x


def _vertex_step(ds: np.ndarray, v: np.ndarray):
    verts = martingale_vertices(ds)
    vals = verts @ v
    j = int(np.argmax(vals))
    return float(vals[j]), verts[j]


def superrep_surface(tree: EventTree, claim: ClaimSpec, *, method: str = "auto",
                     decompose: bool = False,
                     tol: Tolerances = DEFAULT) -> SuperrepSurface:
    """Backward superreplication sweep.

    ``method`` is "vertex" (enumeration, branching <= 6), "lp", or
    "auto" (vertex where small, LP otherwise).  With ``decompose=True``
    the holdings/consumption split is computed as well.
    """
    if method not in ("auto", "vertex", "lp"):
        raise ValueError(f"unknown method {method!r}")
    n = tree.n_nodes
    values = np.zeros(n)
    values[tree.terminal_nodes] = claim.values
    argmax_edge = np.zeros(n)
    argmax_edge[0] = 1.0
    for t in range(tree.horizon - 1, -1, -1):
        for i in tree.slice_nodes(t):
            ch = tree.children_of(i)
            ds = tree.increments(i)
            v = values[ch]
            use_vertex = method == "vertex" or (
                method == "auto" and ch.size <= _VERTEX_MAX_BRANCH)
            if use_vertex:
                val, q = _vertex_step(ds, v)
            else:
                val, q = _lp_step(ds, v)
            values[i] = val
            argmax_edge[ch] = q
    surf = SuperrepSurface(values, np.zeros((n, tree.n_assets)), np.zeros(n),
                           argmax_edge, False)
    if decompose:
        optional_decomposition(tree, surf, tol=tol)
    return surf


def subrep_surface(tree: EventTree, claim: ClaimSpec, *,
                   tol: Tolerances = DEFAULT) -> np.ndarray:
    """Subreplication (lower arbitrage-bound) value surface."""
    return -superrep_surface(tree, ClaimSpec(-claim.values), tol=tol).values


def _min_norm_feasible(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimal-Euclidean-norm x with a @ x >= b (tiny active-set QP).

    KKT: x = a[J]^T mu with mu >= 0 supported on active rows J,
    a @ x >= b, and complementary slackness.  All supports of size <= d
    are enumerated (constraint counts here are single-node branchings).
    """
    m, d = a.shape
    if np.all(b <= 1e-12):
        return np.zeros(d)
    best = None
    best_norm = np.inf
    for r in range(1, d + 1):
        for rows in combinations(range(m), r):
            sub = a[list(rows)]
            gram = sub @ sub.T
            try:
                mu = np.linalg.lstsq(gram, b[list(rows)], rcond=None)[0]
            except np.linalg.LinAlgError:  # pragma: no cover
                continue
            if np.any(mu < -1e-11):
                continue
            x = sub.T @ mu
            if np.any(a @ x < b - 1e-9):
                continue
            nx = float(x @ x)
            if nx < best_norm - 1e-15:
                best_norm = nx
                best = x
    if best is None:
        raise TreeStructureError("superhedging decomposition infeasible at a node")
    return best


def optional_decomposition(tree: EventTree, surf: SuperrepSurface, *,
                           tol: Tolerances = DEFAULT) -> SuperrepSurface:
    """Fill in holdings and consumption for a superreplication surface.

    At every node solves for the minimal-norm holdings ``psi`` with
    ``cstar_node + psi . dS_child >= cstar_child`` for all children and
    records the slacks as consumption ``dk`` on the edges.  On attainable
    claims all slacks vanish and psi is the replicating strategy.
    """
    values = surf.values
    scale = max(1.0, float(np.abs(tree.dprice).max()),
                float(np.abs(values).max()))
    for t in range(tree.horizon - 1, -1, -1):
        for i in tree.slice_nodes(t):
            ch = tree.children_of(i)
            ds = tree.increments(i)
            gap = values[ch] - values[i]  # psi . ds must dominate this
            psi = _min_norm_feasible(ds, gap)
            slack = values[i] + ds @ psi - values[ch]
            if slack.min() < -1e-8 * scale:  # pragma: no cover
                raise TreeStructureError("negative consumption in decomposition")
            surf.psi[i] = psi
            surf.dk[ch] = np.clip(slack, 0.0, None)
    surf.decomposed = True
    return surf
