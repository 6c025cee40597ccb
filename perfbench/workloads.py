"""The three benchmark workloads and the recorder their calls go through.

A workload builds its inputs in ``setup`` from the run seed and defines
one op, a unit of user work, as ``op(i, rec)``; the inputs of op ``i``
depend only on the seed and ``i``.  Every call into the package goes
through ``rec.call(<layer>.<function>, fn, ...)`` so that the traced run
can put a span around it, and ``rec.count`` adds to the counters that do
not depend on the machine.  An op fails when it raises or when a check
raises :class:`CheckFailed`; nothing is redrawn after a failure.
"""

import functools
import hashlib
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import indifftree as it
from indifftree import cli as it_cli
from indifftree import errors as it_errors

TOL = it.Tolerances()

# failed checks that count as op failures like the documented error types
# of indifftree.errors (the workloads are chosen so that none occurs on
# the current code); any other failed check or exception makes the
# run's "correct" false
KNOWN_CHECKS = ("gap_exceeded", "cli_exit", "cli_nondeterministic")
DOCUMENTED_ERRORS = ("NewtonConvergenceError", "TreeStructureError",
                     "NoArbitrageViolated", "NonMartingaleKernel",
                     "StoppingRuleError", "ConfigError")
FAIL_KINDS = DOCUMENTED_ERRORS + KNOWN_CHECKS + ("check_failed", "other_error")

# superrep_surface(method="auto") enumerates vertices at nodes with at
# most this many children and solves an LP elsewhere
VERTEX_MAX_BRANCH = 6


class CheckFailed(Exception):
    """An op's output failed one of the benchmark's checks."""

    def __init__(self, kind, detail):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind


def classify(exc):
    """(failure kind, known) for an exception raised by an op."""
    if isinstance(exc, CheckFailed):
        return exc.kind, exc.kind in KNOWN_CHECKS
    name = type(exc).__name__
    if name in DOCUMENTED_ERRORS and isinstance(exc, getattr(it_errors, name)):
        return name, True
    return "other_error", False


class Recorder:
    """Spans around layer calls (when traced) and exact counters (always)."""

    def __init__(self, traced):
        self.traced = traced
        self.spans = []          # (name, op index or None, start, end)
        self.counts = Counter()
        self.op_index = None

    def call(self, name, fn, *args, **kwargs):
        if not self.traced:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, self.op_index, start, time.perf_counter()))

    def count(self, name, n):
        self.counts[name] += int(n)

    # counts computed from tree shapes, labelled "computed" in the output
    def newton_sweeps(self, tree, sweeps):
        """One-step Newton kernel calls of ``sweeps`` backward sweeps."""
        self.count("onestep.kernel_calls", sweeps * sum(len(g) for g in tree.groups()))
        self.count("onestep.kernel_rows",
                   sweeps * int(np.count_nonzero(tree.times < tree.horizon)))

    def lp_scan(self, tree):
        self.count("lattice.lp_calls", np.count_nonzero(tree.times < tree.horizon))

    def superrep_nodes(self, tree):
        k = tree.child_count[tree.times < tree.horizon]
        self.count("superrep.vertex_nodes", np.count_nonzero(k <= VERTEX_MAX_BRANCH))
        self.count("superrep.lp_nodes", np.count_nonzero(k > VERTEX_MAX_BRANCH))

    def entropy_result(self, ent):
        self.count("measures.newton_iters", ent.iterations)
        self.count("measures.degenerate_nodes", ent.degenerate_nodes)


def _op_rng(seed, stream, i):
    return np.random.default_rng((seed, stream, i))


def _primal_dual(rec, tree, claim, alpha, measure):
    """Primal and dual surfaces at one alpha, with the gap check."""
    res = rec.call("valuation.indifference_surface", it.indifference_surface,
                   tree, claim, alpha, measure)
    rec.count("valuation.newton_iters", res.iterations)
    rec.newton_sweeps(tree, 1)
    dual = rec.call("valuation.dual_surface", it.dual_surface, tree, claim, alpha)
    rec.entropy_result(dual.zero_leg)
    rec.entropy_result(dual.claim_leg)
    rec.newton_sweeps(tree, 2)
    gap = float(np.abs(res.surface.values - dual.surface.values).max())
    if not gap <= TOL.equality:
        raise CheckFailed("gap_exceeded", f"|primal - dual| = {gap:.3e} at alpha={alpha}")
    return res


def _minimal_entropy(rec, tree):
    ent = rec.call("measures.minimal_entropy_measure", it.minimal_entropy_measure, tree)
    rec.entropy_result(ent)
    rec.newton_sweeps(tree, 1)
    return ent


class BigTree:
    """Many claims priced on one large tree built once in setup.

    The tree is random_tree(9, 3, 1), 29,524 nodes, with its
    entropy-optimal measure; op i prices a fresh claim at
    alpha = (0.25, 1, 4)[i % 3].  The two-asset tree random_tree(8, 3, 2)
    is left out: minimal_entropy_measure stalls on some of its draws and
    then every op on it fails (see NOTES.md).
    """

    name = "bigtree"
    shape = (9, 3, 1)
    alphas = (0.25, 1.0, 4.0)
    trace_ops = 12

    def setup(self, seed, rec):
        self.seed = seed
        tseed = int(np.random.default_rng((seed, 0)).integers(2 ** 31))
        self.tree = rec.call("lattice.random_tree", it.random_tree, *self.shape, seed=tseed)
        self.measure = _minimal_entropy(rec, self.tree).measure

    def digest(self):
        h = hashlib.sha256(self.tree.prices.tobytes())
        h.update(self.measure.edge_prob.tobytes())
        return h.hexdigest()[:16]

    def op(self, i, rec):
        tree, measure = self.tree, self.measure
        alpha = self.alphas[i % len(self.alphas)]
        cseed = int(_op_rng(self.seed, 0, i).integers(2 ** 31))
        claim = rec.call("lattice.random_claim", it.random_claim, tree, seed=cseed)
        res = _primal_dual(rec, tree, claim, alpha, measure)
        sol = rec.call("bsde.exact_decomposition", it.exact_decomposition,
                       tree, res, measure)
        rec.call("bsde.bsde_scheme", it.bsde_scheme, tree, claim, alpha, measure)
        if not sol.compensator_step.min() >= -TOL.equality:
            raise CheckFailed("check_failed", "negative compensator step in "
                              f"the exact decomposition ({sol.compensator_step.min():.3e})")


class Corpus:
    """The frozen-corpus recipe on one asset, one instance per op.

    Instances are indexed from the seed.  Depth goes round-robin over
    the recipe's 2..5 instead of being drawn, so every run has the same
    mix of sizes; branching, prices and the claim are drawn.  Depth 3
    comes twice per round, which puts the median inside the depth-3
    cluster and p90 inside the depth-5 one; with each depth once, the
    median falls on the edge between the depth-3 and depth-4 clusters,
    where it moves with small shifts in the mix.  The recipe's two-asset
    instances are left out: the dual route stalls on a few of them (see
    NOTES.md).
    """

    name = "corpus"
    depths = (2, 3, 3, 4, 5)
    small_grid = tuple(2.0 ** -k for k in range(8, -1, -1))
    alphas = (0.25, 1.0, 4.0)
    trace_ops = 15

    def setup(self, seed, rec):
        self.seed = seed

    def digest(self):
        return str(self.seed)

    def op(self, i, rec):
        depth = self.depths[i % len(self.depths)]
        tseed, cseed = (int(s) for s in _op_rng(self.seed, 1, i).integers(2 ** 31, size=2))
        tree = rec.call("lattice.random_tree", it.random_tree, depth, (2, 4), 1,
                        seed=tseed)
        claim = rec.call("lattice.random_claim", it.random_claim, tree, seed=cseed,
                         bound=2.0)
        measure = _minimal_entropy(rec, tree).measure
        for alpha in self.alphas:
            _primal_dual(rec, tree, claim, alpha, measure)
        rep = rec.call("valuation.property_checks", it.property_checks,
                       tree, claim, 1.0, measure, seed=i)
        rec.newton_sweeps(tree, 14)  # property_checks runs 14 primal sweeps
        if not rep.all_ok(TOL.equality):
            raise CheckFailed("check_failed", f"property margin {rep.worst():.3e}")
        sweep = rec.call("asymptotics.small_alpha_sweep", it.small_alpha_sweep,
                         tree, claim, self.small_grid, measure)
        rec.newton_sweeps(tree, len(self.small_grid))
        resid = sweep.extras["identity_residual_max"]
        if not resid <= TOL.equality:
            raise CheckFailed("check_failed", f"small-alpha identity residual {resid:.3e}")


# (namespace, attribute, span name) of the layer functions cli.main calls
CLI_LAYER_CALLS = (
    (it_cli, "random_tree", "lattice.random_tree"),
    (it_cli, "random_claim", "lattice.random_claim"),
    (it_cli, "validate_no_arbitrage", "lattice.validate_no_arbitrage"),
    (it_cli, "gains", "lattice.gains"),
    (it_cli, "claim_from_expression", "claims.claim_from_expression"),
    (it_cli, "minimal_entropy_measure", "measures.minimal_entropy_measure"),
    (it_cli, "indifference_surface", "valuation.indifference_surface"),
    (it_cli, "dual_surface", "valuation.dual_surface"),
    (it_cli, "property_checks", "valuation.property_checks"),
    (it_cli, "superrep_surface", "superrep.superrep_surface"),
    (it_cli.bsde_mod, "exact_decomposition", "bsde.exact_decomposition"),
    (it_cli.bsde_mod, "bsde_scheme", "bsde.bsde_scheme"),
    (it_cli.asy, "small_alpha_sweep", "asymptotics.small_alpha_sweep"),
    (it_cli.asy, "large_alpha_sweep", "asymptotics.large_alpha_sweep"),
)


class Cli:
    """One fresh ``python -m indifftree.cli <command>`` per op.

    The eight subcommands run in a fixed cycle on one depth-3 ternary
    tree, so from the second cycle on every invocation repeats an
    earlier one and must write byte-identical artifacts.
    """

    name = "cli"
    commands = ("validate", "entropy", "price", "bsde", "superrep",
                "sweep-small", "sweep-large", "verify")
    claim_commands = {"price", "bsde", "superrep", "sweep-small", "sweep-large"}
    alpha_commands = {"price", "bsde", "verify"}
    trace_ops = 8

    def __init__(self, work_dir):
        self.work_dir = Path(work_dir)
        self.artifacts = {}
        self.child_maxrss_kb = 0

    def setup(self, seed, rec):
        rng = np.random.default_rng((seed, 3))
        self.tree_seed = int(rng.integers(2 ** 31))
        k1, k2 = (round(float(x), 4) for x in rng.uniform(0.85, 1.15, size=2))
        self.claim = f"call(S1, {k1}) - 0.5 * put(S1, {k2})"
        self.alpha = float(rng.choice([0.5, 1.0, 2.0]))
        tree = rec.call("lattice.random_tree", it.random_tree, 3, 3, 1, seed=self.tree_seed)
        rec.call("claims.claim_from_expression", it.claim_from_expression, tree, self.claim)
        self.tree = tree
        self.argvs = []
        for k, cmd in enumerate(self.commands):
            argv = [cmd, "--seed", str(self.tree_seed), "--depth", "3", "--branching", "3",
                    "--out", str(self.work_dir / f"{k}-{cmd}")]
            if cmd in self.claim_commands:
                argv += ["--claim", self.claim]
            if cmd in self.alpha_commands:
                argv += ["--alpha", repr(self.alpha)]
            if cmd == "verify":
                argv += ["--instances", "2"]
            self.argvs.append(argv)

    def digest(self):
        inputs = [self.tree_seed, self.claim, self.alpha, self.commands]
        return hashlib.sha256(json.dumps(inputs).encode()).hexdigest()[:16]

    def in_process(self, rec):
        """cli.main on every command inside this process (traced run only).

        The layer functions cli.main calls are wrapped for the duration,
        so each of their calls gets a span like the in-process workloads'.
        """
        wrapped = []
        for ns, attr, name in CLI_LAYER_CALLS:
            fn = getattr(ns, attr)
            setattr(ns, attr, functools.partial(rec.call, name, fn))
            wrapped.append((ns, attr, fn))
        try:
            for argv in self.argvs:
                argv = list(argv)
                argv[argv.index("--out") + 1] = str(self.work_dir / "in-process")
                code = rec.call("cli.main", it_cli.main, argv)
                if code != 0:
                    raise CheckFailed("cli_exit", f"in-process {argv[0]} exited {code}")
                if argv[0] == "validate":
                    rec.lp_scan(self.tree)
                if argv[0] in ("superrep", "sweep-large"):
                    rec.superrep_nodes(self.tree)
        finally:
            for ns, attr, fn in wrapped:
                setattr(ns, attr, fn)

    def op(self, i, rec):
        k = i % len(self.argvs)
        argv = self.argvs[k]
        out = Path(argv[argv.index("--out") + 1])
        stem = f"{argv[0]}-{self.tree_seed}"
        paths = [out / f"{stem}.csv", out / f"{stem}.json"]
        for p in paths:
            p.unlink(missing_ok=True)
        code, err = rec.call("cli.process", self._spawn, argv)
        if code != 0:
            raise CheckFailed("cli_exit", f"{argv[0]} exited {code}: {err[-300:]}")
        try:
            data = [p.read_bytes() for p in paths]
            summary = json.loads(data[1])
        except (OSError, ValueError) as exc:
            raise CheckFailed("check_failed", f"{argv[0]} artifacts unreadable: {exc}")
        if "failure" in summary or data[0].count(b"\n") < 2:
            raise CheckFailed("check_failed", f"{argv[0]} exited 0 with a failed or empty result")
        first = self.artifacts.setdefault(k, data)
        if data != first:
            raise CheckFailed("cli_nondeterministic", f"{argv[0]} artifacts differ between runs")

    def _spawn(self, argv):
        env = dict(os.environ, PYTHONPATH=str(Path(it.__file__).parents[1]))
        with open(self.work_dir / "stderr.txt", "w+") as err:
            proc = subprocess.Popen([sys.executable, "-m", "indifftree.cli", *argv],
                                    stdout=subprocess.DEVNULL, stderr=err, env=env)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.child_maxrss_kb = max(self.child_maxrss_kb, usage.ru_maxrss)
            err.seek(0)
            return proc.returncode, err.read()


def make(name, work_dir):
    if name == "cli":
        return Cli(work_dir)
    return {"bigtree": BigTree, "corpus": Corpus}[name]()
