"""Superreplication values and the optional decomposition on event trees.

The superhedging value of a claim is the backward maximum of one-step
expectations over the closed polytope of martingale kernels at each
node.  The maximum sits at a vertex, which solves ``[dS/scale | 1]^T q
= e`` on an independent support of at most d + 1 children, so each
(slice, k) group solves every column subset of size 1..min(k, d+1), for
all of its nodes, in batched least-squares calls of bounded size.  A
node may have at most 162 such subsets, the count at k = 8 children and
d = 3 assets (also k <= 17 at d = 1, k <= 9 at d = 2); wider nodes raise
``TreeStructureError``.

The decomposition recovers holdings ``psi`` and consumption ``dk`` with

    cstar_child = cstar_node + psi . dS - dk,   dk >= 0.

By complementary slackness every feasible ``psi`` is tight on the
optimal kernel's support, so the minimal-norm solution there (one
batched pseudo-inverse per group) is the minimal-norm feasible holding
whenever it dominates the other children; elsewhere a tiny active-set
quadratic program decides.  Attainable claims are replicated exactly.
"""

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np
from .errors import NoArbitrageViolated, TreeStructureError
from .lattice import ClaimSpec, EventTree

__all__ = [
    "SuperrepSurface",
    "martingale_vertices",
    "superrep_surface",
    "optional_decomposition",
    "subrep_surface",
]


@dataclass
class SuperrepSurface:
    """Superhedging value surface with its decomposition.

    values : (n,) superreplication price at each node.
    psi : (n, d) superhedging holdings (filled by the decomposition pass).
    dk : (n,) consumption along the incoming edge (0 at the root).
    argmax_edge : (n,) an optimal one-step kernel per edge (may contain
        zeros; it lives on the closed martingale polytope).
    decomposed : whether psi/dk have been computed.
    qp_nodes : number of nodes whose holdings the decomposition took from
        the quadratic program because the support solve was infeasible.
    """

    values: np.ndarray
    psi: np.ndarray
    dk: np.ndarray
    argmax_edge: np.ndarray
    decomposed: bool = False
    qp_nodes: int = 0


_MAX_SUBSETS = 162  # column subsets per node at k = 8, d = 3
_BATCH = 1 << 14  # subset systems per batched solve; bounds its stacks


def _selection(k: int, d: int, where: str) -> np.ndarray:
    """One-hot table (s, r, k) whose slot j of subset i selects its column,
    over the column subsets of size 1..r = min(k, d+1) of the node ``where``.
    """
    r = min(k, d + 1)
    count = sum(comb(k, size) for size in range(1, r + 1))
    if count > _MAX_SUBSETS:
        raise TreeStructureError(
            f"{where} has {k} children and {d} assets: {count} column subsets, "
            f"above the {_MAX_SUBSETS} (k = 8, d = 3) superreplication enumerates")
    subs = [c for size in range(1, r + 1) for c in combinations(range(k), size)]
    onehot = np.zeros((count, r, k))
    for i, cols in enumerate(subs):
        onehot[i, np.arange(len(cols)), cols] = 1.0
    return onehot


def _kernel_candidates(ds: np.ndarray, onehot: np.ndarray):
    """Candidate martingale kernels of rows with increments (m, k, d).

    Solves ``[ds/scale | 1]^T x = e``, with scale the row's largest |ds|,
    on every column subset of ``onehot`` for all m rows in one batched
    pseudo-inverse.  Returns the kernels ``q`` (m, s, k), a feasibility
    mask ``ok`` (m, s) and the subset systems ``sub`` (m, s, d+1, r),
    whose padded columns are zero.  A residual of at most 1e-10 on the
    scaled system bounds the kernel's drift by about 1e-10 * scale.
    """
    m, k, d = ds.shape
    scale = np.abs(ds).max(axis=(1, 2))
    scale[scale == 0] = 1.0
    a = np.concatenate([ds / scale[:, None, None], np.ones((m, k, 1))], axis=2)
    sub = np.einsum("srk,mke->mser", onehot, a)
    x = np.linalg.pinv(sub)[..., -1]  # pinv @ e, e = (0, .., 0, 1)
    resid = np.einsum("mser,msr->mse", sub, x)
    resid[..., -1] -= 1.0
    ok = (np.linalg.norm(resid, axis=-1) <= 1e-10) & np.all(x >= -1e-12, axis=-1)
    q = np.einsum("msr,srk->msk", np.clip(x, 0.0, None), onehot)
    q /= np.where(ok, q.sum(axis=-1), 1.0)[..., None]
    return q, ok, sub


def martingale_vertices(ds: np.ndarray) -> np.ndarray:
    """Vertices of  {q >= 0, sum q = 1, q @ ds = 0}  by basis enumeration.

    Returns an array (n_vertices, k).  Raises ``NoArbitrageViolated``
    when the polytope is empty.
    """
    ds = np.atleast_2d(np.asarray(ds, dtype=np.float64))
    q, ok, sub = _kernel_candidates(ds[None], _selection(*ds.shape, "the node"))
    size = sub[0, :, -1].sum(axis=-1)  # the row of ones counts the columns
    verts = q[0, ok[0] & (np.linalg.matrix_rank(sub[0], tol=1e-12) == size)]
    if verts.shape[0] == 0:
        raise NoArbitrageViolated("empty martingale polytope")
    return np.unique(np.round(verts, 12), axis=0)


def superrep_surface(tree: EventTree, claim: ClaimSpec, *,
                     decompose: bool = False) -> SuperrepSurface:
    """Backward superreplication sweep, a batched vertex enumeration per
    (slice, k) group in chunks of at most ``_BATCH`` subset systems.  With ``decompose=True`` the
    holdings/consumption split is computed as well.
    """
    n = tree.n_nodes
    values = claim.full_surface(tree)
    argmax_edge = np.zeros(n)
    argmax_edge[0] = 1.0
    for t in range(tree.horizon - 1, -1, -1):
        for nodes, ch in tree.groups()[t].values():
            onehot = _selection(ch.shape[1], tree.n_assets, f"node {nodes[0]} (slice {t})")
            step = max(1, _BATCH // len(onehot))  # rows per batched solve
            for lo in range(0, nodes.size, step):
                part, kids = nodes[lo:lo + step], ch[lo:lo + step]
                q, ok, _ = _kernel_candidates(tree.dprice[kids], onehot)
                if not ok.any(axis=1).all():
                    raise NoArbitrageViolated("empty martingale polytope at "
                                              f"node {part[~ok.any(axis=1)][0]} (slice {t})")
                vals = np.where(ok, np.einsum("msk,mk->ms", q, values[kids]), -np.inf)
                best = np.argmax(vals, axis=1)
                rows = np.arange(part.size)
                values[part] = vals[rows, best]
                argmax_edge[kids] = q[rows, best]
    surf = SuperrepSurface(values, np.zeros((n, tree.n_assets)), np.zeros(n), argmax_edge)
    return optional_decomposition(tree, surf) if decompose else surf


def subrep_surface(tree: EventTree, claim: ClaimSpec) -> np.ndarray:
    """Subreplication (lower arbitrage-bound) value surface."""
    return -superrep_surface(tree, ClaimSpec(-claim.values)).values


def _min_norm_feasible(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Minimal-Euclidean-norm x with a @ x >= b (tiny active-set QP).

    The minimizer is the minimal-norm solution of a @ x = b on some
    independent set of at most d active rows, so every such set is
    solved (constraint counts here are single-node branchings) and the
    shortest solution that keeps every row's slack above
    -1e-12 * max(1, |x| |a_row|) wins.  Returns None when none does.
    """
    if np.all(b <= 1e-12):
        return np.zeros(a.shape[1])
    best, best_norm = None, np.inf
    for r in range(1, a.shape[1] + 1):
        for rows in combinations(range(len(a)), r):
            x = np.linalg.lstsq(a[list(rows)], b[list(rows)], rcond=None)[0]
            size = np.linalg.norm(x) * np.linalg.norm(a, axis=1)
            if np.all(a @ x - b >= -1e-12 * np.maximum(1.0, size)) and x @ x < best_norm:
                best, best_norm = x, x @ x
    return best


def optional_decomposition(tree: EventTree, surf: SuperrepSurface) -> SuperrepSurface:
    """Fill in holdings and consumption for a superreplication surface.

    At every node finds the minimal-norm holdings ``psi`` with
    ``cstar_node + psi . dS_child >= cstar_child`` for all children and
    records the slacks as consumption ``dk`` on the edges.  Nodes where
    the support solve misses a child by more than
    1e-12 * max(1, |psi| |dS_child|) take ``psi`` from the quadratic
    program, which keeps the same bound; ``surf.qp_nodes`` counts them.
    """
    values = surf.values
    qp_nodes = 0
    for t, byk in enumerate(tree.groups()):
        for nodes, ch in byk.values():
            ds = tree.dprice[ch]
            gap = values[ch] - values[nodes, None]  # psi . ds must dominate this
            support = surf.argmax_edge[ch] > 0
            # rcond drops the rounding-level singular values of collinear
            # support rows (the two increments of a k = 2 node always are)
            pinv = np.linalg.pinv(ds * support[..., None], rcond=1e-12)
            psi = np.einsum("mdk,mk->md", pinv, gap * support)
            slack = np.einsum("mkd,md->mk", ds, psi) - gap
            size = np.linalg.norm(psi, axis=1)[:, None] * np.linalg.norm(ds, axis=2)
            for j in np.flatnonzero((slack < -1e-12 * np.maximum(1.0, size)).any(axis=1)):
                x = _min_norm_feasible(ds[j], gap[j])
                if x is None:
                    raise TreeStructureError(
                        "superhedging decomposition infeasible at "
                        f"node {int(nodes[j])} (slice {t})")
                psi[j] = x
                slack[j] = ds[j] @ x - gap[j]
                qp_nodes += 1
            surf.psi[nodes] = psi
            surf.dk[ch] = np.clip(slack, 0.0, None)
    surf.decomposed = True
    surf.qp_nodes = qp_nodes
    return surf
