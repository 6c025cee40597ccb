"""Probes of the traced run: one-step kernels, known failures, import time, span cost."""

import hashlib
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import indifftree as it
from indifftree import _onestep

# (m, k, d): one node, a depth-8 ternary slice, a depth-6 two-asset
# ternary slice, and wide three-asset nodes
KERNEL_SHAPES = ((1, 3, 1), (2187, 3, 1), (243, 3, 2), (100, 8, 3))
KERNELS = ("exp_min_batch", "entropic_projection_batch", "gkw_batch")
PROBE_SECONDS = 0.15


def kernel_inputs(seed, m, k, d):
    """Seeded kernel inputs; q is a strictly positive martingale kernel for ds."""
    rng = np.random.default_rng((seed, 4, m, k, d))
    w = rng.uniform(0.25, 1.25, size=(m, k))
    q = w / w.sum(axis=1, keepdims=True)
    ds = rng.normal(0.0, 0.2, size=(m, k, d))
    ds -= np.einsum("mk,mkd->md", q, ds)[:, None, :]
    values = rng.uniform(-1.0, 1.0, size=(m, k))
    return q, ds, values


def kernel_probes(seed):
    """Median time per call and rows/s of each kernel at each shape."""
    out = {}
    for m, k, d in KERNEL_SHAPES:
        q, ds, values = kernel_inputs(seed, m, k, d)
        calls = {
            "exp_min_batch": lambda: _onestep.exp_min_batch(np.log(q), ds, values, 1.0),
            "entropic_projection_batch":
                lambda: _onestep.entropic_projection_batch(np.log(q), ds, values),
            "gkw_batch": lambda: _onestep.gkw_batch(q, ds, values),
        }
        for name in KERNELS:
            fn = calls[name]
            fn()  # warm-up
            times = []
            t_end = time.perf_counter() + PROBE_SECONDS
            while len(times) < 5 or time.perf_counter() < t_end:
                start = time.perf_counter()
                fn()
                times.append(time.perf_counter() - start)
            per_call = float(np.median(times))
            key = f"onestep.{name}.m{m}_k{k}_d{d}"
            out[f"{key}.us_per_call"] = per_call * 1e6
            out[f"{key}.rows_per_s"] = m / per_call
    return out


def _superhedge_margin(tree, claim):
    surf = it.superrep_surface(tree, claim, decompose=True)
    margin = float((surf.values[0] + it.gains(tree, surf.psi)[tree.terminal_nodes]
                    - claim.values).min())
    if not margin >= -it.Tolerances().constraint:
        raise ValueError(f"pathwise superhedge margin {margin:.3e}")


def _tree_claim(depth, branching, assets, seed, claim_seed):
    tree = it.random_tree(depth, branching, assets, seed=seed)
    return tree, it.random_claim(tree, seed=claim_seed)


def _corpus_dual_stall():
    tree = it.random_tree(4, (2, 4), 2, seed=1857501465)
    it.dual_surface(tree, it.random_claim(tree, seed=843068615, bound=2.0), 0.25)


# Failures the workloads stay clear of, each on a fixed input: the
# workloads leave out the tree shapes and calls these belong to, so that
# no op fails, and these probes keep the failures in sight.  Each metric
# is 1 while the call still fails and 0 once it succeeds.
KNOWN_FAILURES = {
    # cold-start primal Newton stall at residual 2.5e-2 (a warm start succeeds)
    "primal_cold_stall": lambda: it.indifference_surface(
        *_tree_claim(7, 3, 2, 1, 2), 64.0),
    # dual-route entropic projection stall at 1.06e-9 against the 1e-10 floor
    "dual_stall": lambda: it.dual_surface(*_tree_claim(8, 3, 2, 6, 117), 4.0),
    # the same stall at small alpha on a two-asset frozen-corpus instance
    "corpus_dual_stall": _corpus_dual_stall,
    # minimal_entropy_measure stall on a two-asset bigtree-sized tree
    "measure_stall_d2": lambda: it.minimal_entropy_measure(
        it.random_tree(8, 3, 2, seed=23)),
    # superhedging decomposition infeasible at a near-collinear node (D4)
    "superrep_d4": lambda: it.superrep_surface(*_tree_claim(6, 3, 2, 1, 1),
                                               decompose=True),
    # pathwise superhedge margin below -Tolerances().constraint
    "superhedge_margin": lambda: _superhedge_margin(*_tree_claim(4, 3, 1, 154, 154)),
}


def known_failures():
    """known_failure.<name>: 1 if the call still fails, else 0; with the errors."""
    out, errors = {}, {}
    for name, call in KNOWN_FAILURES.items():
        try:
            call()
        except Exception as exc:  # any failure counts; the message is reported
            out[f"known_failure.{name}"] = 1
            errors[name] = f"{type(exc).__name__}: {exc}"
        else:
            out[f"known_failure.{name}"] = 0
    return out, errors


def import_probe(src):
    """Fresh-interpreter import of indifftree.cli: total and scipy.optimize, in s."""
    code = ("import time; t = time.perf_counter(); import indifftree.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                          capture_output=True, text=True, env=env, check=True)
    total = float(proc.stdout.split()[-1])
    # -X importtime lines: "import time: <self us> | <cumulative us> | <name>"
    scipy_opt = sum(int(m.group(1)) for m in re.finditer(
        r"^import time:\s*\d+ \|\s*(\d+) \|\s*scipy\.optimize$", proc.stderr, re.M))
    return {"cli.import_s": total, "cli.import_scipy_optimize_s": scipy_opt / 1e6}


def span_cost(recorder_cls):
    """Median cost in microseconds of one span around a no-op call."""
    rec = recorder_cls(traced=True)
    times = []
    for _ in range(20):
        start = time.perf_counter()
        for _ in range(1000):
            rec.call("probe", int)
        times.append((time.perf_counter() - start) / 1000)
        rec.spans.clear()
    base = []
    for _ in range(20):
        start = time.perf_counter()
        for _ in range(1000):
            int()
        base.append((time.perf_counter() - start) / 1000)
    return max(0.0, float(np.median(times) - np.median(base))) * 1e6


def source_digest(src):
    """sha256 over the package sources, standing in for a commit id."""
    h = hashlib.sha256()
    for path in sorted(Path(src).rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]
