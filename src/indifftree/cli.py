"""Batch command-line runner with deterministic artifacts.

Every command reads a model (tree + claim), runs one pipeline, writes
``<command>-<seed>.csv`` and ``<command>-<seed>.json`` into the output
directory, and exits 0 only when all checks pass.  Artifacts contain no
timestamps and floats are written via ``repr``, so identical inputs
produce identical bytes.

Exit codes.  Every error type in ``errors.py`` maps to one of them and
is reported as one stderr line, never as a traceback::

    0  all checks within tolerance
    1  configuration error, also a tree over  ConfigError
       NODE_BUDGET = 1,000,000 node prices
    2  check failure (the JSON carries the    NoArbitrageViolated,
       worst offender) or arbitrage           NonMartingaleKernel
    3  numerical or internal failure          NewtonConvergenceError,
                                              TreeStructureError,
                                              StoppingRuleError

Config file schema (JSON object; unknown keys are rejected; command-line
flags override file values)::

    {
      "command":    "price",
      "tree":       {"kind": "random", "depth": 4, "branching": 3,
                     "assets": 1, "seed": 11, "vol": 0.25},
                    ...or {"kind": "lattice", "model": "binomial"|"trinomial",
                           "steps": 5, "s0": 1.0, ...}
                    ...or {"kind": "explicit", "nodes": [{"parent": ...,
                           "prices": [...], "p": ...}, ...]},
      "claim":      "call(S1, 1.0)",     payoff expression, or
      "claim_values": [...],             explicit terminal table,
      "alpha":      1.0,
      "alpha_grid": [0.25, 0.5, 1.0],
      "out_dir":    ".",
      "seed":       11,
      "instances":  20,                  verify only,
      "tolerances": {"equality": 1e-9, ...}
    }

When no claim is given, a seeded bounded random claim is generated from
``seed`` — convenient for smoke runs and the verify battery.  ``verify``
draws its trees from a ``random`` tree spec (any other kind is a config
error), instance j with seed ``seed + 101 j``.
"""

import argparse
import csv
import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import asymptotics as asy
from . import bsde as bsde_mod
from .claims import claim_from_expression
from .errors import (ConfigError, NewtonConvergenceError, NoArbitrageViolated,
                     NonMartingaleKernel, StoppingRuleError, TreeStructureError)
from .lattice import (ClaimSpec, build_tree, gains, random_claim,
                      validate_no_arbitrage)
from .lattice import random_tree  # noqa: F401  (perfbench's CLI trace wraps it)
from .measures import minimal_entropy_measure, verify_entropy_structure
from .superrep import superrep_surface
from .tolerances import DEFAULT, Tolerances
from .valuation import (arbitrage_bounds_check, dual_surface,
                        indifference_surface, optimality_certificate,
                        property_checks)


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _positive_finite(x) -> bool:
    return _number(x) and 0 < x < np.inf


_TOLERANCE_NAMES = {f.name for f in fields(Tolerances)}
NODE_BUDGET = 1_000_000  # node prices (nodes x assets) a command may build
# each config field's test and what the error says it must be
_FIELDS = {
    "command": (lambda x: isinstance(x, str), "a string"),
    "tree": (lambda x: isinstance(x, dict), "a JSON object"),
    "claim": (lambda x: isinstance(x, str), "a payoff expression string"),
    "claim_values": (lambda x: isinstance(x, list) and all(map(_number, x)),
                     "a list of numbers"),
    "alpha": (_positive_finite, "a positive and finite number"),
    "alpha_grid": (lambda g: isinstance(g, list) and all(map(_positive_finite, g))
                   and all(a < b for a, b in zip(g, g[1:])),
                   "a list of positive, finite and increasing numbers"),
    "out_dir": (lambda x: isinstance(x, str), "a path string"),
    "seed": (lambda x: _number(x) and isinstance(x, int) and x >= 0, "a nonnegative integer"),
    "instances": (lambda x: _number(x) and isinstance(x, int) and x >= 1,
                  "an integer of at least 1"),
    "tolerances": (lambda x: isinstance(x, dict) and set(x) <= _TOLERANCE_NAMES
                   and all(map(_positive_finite, x.values())),
                   "an object of positive and finite numbers keyed by tolerance name"),
}


@dataclass
class RunConfig:
    command: str = ""
    tree: dict = field(default_factory=dict)
    claim: str | None = None
    claim_values: list | None = None
    alpha: float = 1.0
    alpha_grid: list | None = None
    out_dir: str = "."
    seed: int = 0
    instances: int = 20
    tolerances: dict = field(default_factory=dict)

    @classmethod
    def from_mapping(cls, data: dict) -> "RunConfig":
        unknown = set(data) - set(_FIELDS)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        for key, value in data.items():
            test, what = _FIELDS[key]
            if not test(value):
                raise ConfigError(f"{key} must be {what}")
        return cls(**data)


def _numbers(text: str, kind, flag: str) -> list:
    """Comma-separated command-line numbers of type ``kind``."""
    try:
        return [kind(x) for x in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag} must be comma-separated numbers, got {text!r}") from None


def _py(obj):
    """Recursively convert numpy scalars/arrays for json.dump."""
    if isinstance(obj, dict):
        return {k: _py(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_py(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_py(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def _write_artifacts(cfg: RunConfig, rows, header, summary):
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{cfg.command}-{cfg.seed}"
    with open(out / f"{stem}.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\r\n")
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, (float, np.floating))
                        else v for v in row])
    with open(out / f"{stem}.json", "w") as fh:
        json.dump(_py(summary), fh, sort_keys=True, indent=2)
        fh.write("\n")


def _check_size(spec: dict):
    """Refuse a random or lattice spec over ``NODE_BUDGET`` before it is built."""
    if spec.get("kind") in ("random", "lattice"):
        rand = spec["kind"] == "random"
        k = spec.get("branching", 3) if rand else 2 + (spec.get("model") == "trinomial")
        k, assets = int(np.max(k)), int(spec.get("assets", 1)) if rand else 1
        # 1 + k + ... + k^depth nodes; at depth 64 any k >= 2 is over budget
        depth = min(int(spec["depth" if rand else "steps"]), 64)
        if k >= 2 and assets * sum(k ** t for t in range(depth + 1)) > NODE_BUDGET:
            raise ValueError(f"depth, branching and assets give over {NODE_BUDGET:,} node prices")


def _build_tree(spec: dict, tol: Tolerances):
    try:
        _check_size(spec)
        return build_tree(spec, tol=tol)
    except (KeyError, OverflowError, TreeStructureError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad tree spec: {exc}") from None


def _build_model(cfg: RunConfig, tol: Tolerances):
    tree = _build_tree(dict(cfg.tree) if cfg.tree else {
        "kind": "random", "depth": 4, "branching": 3, "assets": 1,
        "seed": cfg.seed}, tol)
    if cfg.claim_values is not None:
        vals = np.asarray(cfg.claim_values, dtype=np.float64)
        if vals.shape != (tree.terminal_nodes.size,):
            raise ConfigError(
                f"claim_values must have {tree.terminal_nodes.size} entries")
        claim = ClaimSpec(values=vals)
    elif cfg.claim:
        claim = claim_from_expression(tree, cfg.claim)
    else:
        claim = random_claim(tree, seed=cfg.seed)
    return tree, claim


def _strategy_header(d):
    return [f"theta_{j + 1}" for j in range(d)]


# --------------------------------------------------------------------------
# commands; each returns (exit_code, rows, header, summary)


def _cmd_validate(cfg, tol):
    tree, _ = _build_model(cfg, tol)
    report = validate_no_arbitrage(tree)
    nonterm = np.flatnonzero(tree.times < tree.horizon)
    rows = [(int(i), int(tree.times[i]), bool(report.node_ok[i]),
             float(report.witness[i].min()) if report.node_ok[i] else np.nan)
            for i in nonterm]
    bad = [int(i) for i in nonterm if not report.node_ok[i]]
    summary = {"ok": report.ok, "n_nodes": tree.n_nodes,
               "failing_nodes": bad, "lp_nodes": int(report.lp_nodes.size)}
    if bad:
        summary["failure"] = {"check": "no_arbitrage", "node": bad[0]}
    return (0 if report.ok else 2), rows, \
        ["node", "time", "ok", "min_kernel"], summary


def _cmd_entropy(cfg, tol):
    tree, _ = _build_model(cfg, tol)
    ent = minimal_entropy_measure(tree, tol=tol)
    resid = verify_entropy_structure(tree, ent)
    d = tree.n_assets
    rows = [(int(i), int(tree.times[i]), float(ent.value_surface[i]),
             *[float(x) for x in ent.multipliers[i]])
            for i in range(tree.n_nodes)]
    summary = {
        "j_root": float(ent.value_surface[0]),
        "scale_constant": float(ent.scale_constant),
        "structure_residual": float(resid),
        "max_newton_residual": float(ent.max_residual),
        "degenerate_nodes": int(ent.degenerate_nodes),
    }
    ok = resid <= tol.equality
    if not ok:
        summary["failure"] = {"check": "entropy_structure", "margin": float(resid)}
    return (0 if ok else 2), rows, \
        ["node", "time", "value", *[f"lambda_{j+1}" for j in range(d)]], summary


def _cmd_price(cfg, tol):
    tree, claim = _build_model(cfg, tol)
    ent = minimal_entropy_measure(tree, tol=tol)
    res = indifference_surface(tree, claim, cfg.alpha, ent.measure, tol=tol)
    dual = dual_surface(tree, claim, cfg.alpha, tol=tol)
    gap = np.abs(res.surface.values - dual.surface.values)
    rows = [(int(i), int(tree.times[i]), float(res.surface.values[i]),
             float(dual.surface.values[i]), float(gap[i]),
             *[float(x) for x in res.strategy[i]])
            for i in range(tree.n_nodes)]
    worst = int(np.argmax(gap))
    summary = {
        "alpha": float(cfg.alpha),
        "c0_primal": float(res.surface.values[0]),
        "c0_dual": float(dual.surface.values[0]),
        "max_gap": float(gap.max()),
        "worst_node": worst,
    }
    ok = gap.max() <= tol.equality
    if not ok:
        summary["failure"] = {"check": "primal_dual_gap", "node": worst,
                              "margin": float(gap.max())}
    return (0 if ok else 2), rows, \
        ["node", "time", "primal", "dual", "gap",
         *_strategy_header(tree.n_assets)], summary


def _edge_identity_residual(tree, sol):
    par = tree.parent[1:]
    recon = (sol.values[par] - sol.compensator_step[par]
             + np.einsum("nd,nd->n", tree.dprice[1:], sol.psi[par]) + sol.d_orth[1:])
    return float(np.abs(sol.values[1:] - recon).max(initial=0.0))


def _cmd_bsde(cfg, tol):
    tree, claim = _build_model(cfg, tol)
    ent = minimal_entropy_measure(tree, tol=tol)
    res = indifference_surface(tree, claim, cfg.alpha, ent.measure, tol=tol)
    exact = bsde_mod.exact_decomposition(tree, res, ent.measure)
    scheme = bsde_mod.bsde_scheme(tree, claim, cfg.alpha, ent.measure, tol=tol)
    bm_e = bsde_mod.bmo_norms(tree, exact, ent.measure)
    bm_s = bsde_mod.bmo_norms(tree, scheme, ent.measure)
    resid = max(_edge_identity_residual(tree, exact),
                _edge_identity_residual(tree, scheme))
    rows = [(int(i), int(tree.times[i]), float(exact.values[i]),
             float(scheme.values[i]), float(exact.compensator_step[i]),
             float(exact.step_bracket[i]),
             *[float(x) for x in exact.psi[i]])
            for i in range(tree.n_nodes)]
    summary = {
        "alpha": float(cfg.alpha),
        "y0_exact": float(exact.values[0]),
        "y0_scheme": float(scheme.values[0]),
        "root_gap": float(abs(exact.values[0] - scheme.values[0])),
        "bmo_psi_exact": bm_e.bmo_psi, "bmo_L_exact": bm_e.bmo_orth,
        "bmo_psi_scheme": bm_s.bmo_psi, "bmo_L_scheme": bm_s.bmo_orth,
        "edge_identity_residual": resid,
        "min_compensator_step": float(exact.compensator_step.min()),
    }
    ok = resid <= tol.equality and exact.compensator_step.min() >= -tol.equality
    if not ok:
        summary["failure"] = {"check": "decomposition", "margin": resid}
    return (0 if ok else 2), rows, \
        ["node", "time", "y_exact", "y_scheme", "comp_step", "step_bracket",
         *_strategy_header(tree.n_assets)], summary


def _cmd_superrep(cfg, tol):
    tree, claim = _build_model(cfg, tol)
    surf = superrep_surface(tree, claim, decompose=True)
    term = tree.terminal_nodes
    pathwise = surf.values[0] + gains(tree, surf.psi)[term] - claim.values
    rows = [(int(i), int(tree.times[i]), float(surf.values[i]),
             float(surf.dk[i]), *[float(x) for x in surf.psi[i]])
            for i in range(tree.n_nodes)]
    summary = {
        "cstar0": float(surf.values[0]),
        "min_dk": float(surf.dk.min()),
        "superhedge_min_margin": float(pathwise.min()),
        "qp_nodes": surf.qp_nodes,
    }
    ok = pathwise.min() >= -1e-10 and surf.dk.min() >= -tol.equality
    if not ok:
        summary["failure"] = {"check": "superhedge",
                              "margin": float(pathwise.min())}
    return (0 if ok else 2), rows, \
        ["node", "time", "cstar", "dk", *_strategy_header(tree.n_assets)], summary


def _sweep_rows(report):
    names = list(report.columns)
    rows = [[a, *[report.columns[c][j] for c in names]]
            for j, a in enumerate(report.alphas)]
    return rows, ["alpha", *names]


def _cmd_sweep_small(cfg, tol):
    tree, claim = _build_model(cfg, tol)
    grid = cfg.alpha_grid or [2.0 ** (-k) for k in range(8, -1, -1)]
    report = asy.small_alpha_sweep(tree, claim, grid, tol=tol)
    rows, header = _sweep_rows(report)
    summary = report.summary()
    fit = report.slopes["dist_sup"]
    ok = (report.extras["identity_residual_max"] <= tol.equality
          and fit.within(1.0 - tol.rate, 1.0 + tol.rate))
    if not ok:
        summary["failure"] = {"check": "small_alpha_sweep",
                              "identity": report.extras["identity_residual_max"],
                              "slope": fit.slope}
    return (0 if ok else 2), rows, header, summary


def _cmd_sweep_large(cfg, tol):
    tree, claim = _build_model(cfg, tol)
    grid = cfg.alpha_grid or [2.0 ** k for k in range(0, 11)]
    report = asy.large_alpha_sweep(tree, claim, grid, seed=cfg.seed, tol=tol)
    rows, header = _sweep_rows(report)
    summary = report.summary()
    ok = report.extras["monotone_c0"] and report.extras["monotone_gap"]
    if not ok:
        summary["failure"] = {"check": "large_alpha_monotonicity"}
    return (0 if ok else 2), rows, header, summary


def _cmd_verify(cfg, tol):
    rows = []
    worst = {"margin": np.inf, "check": None, "instance": None}
    spec = {"kind": "random", "depth": 4, "branching": 3, "assets": 1, **(cfg.tree or {})}
    if spec["kind"] != "random":
        raise ConfigError(f"bad tree spec: verify draws random trees, got kind {spec['kind']!r}")
    for j in range(cfg.instances):
        seed = cfg.seed + 101 * j
        tree = _build_tree({**spec, "seed": seed}, tol)
        claim = random_claim(tree, seed=seed + 7)
        ent = minimal_entropy_measure(tree, tol=tol)
        res = indifference_surface(tree, claim, cfg.alpha, ent.measure, tol=tol)
        dual = dual_surface(tree, claim, cfg.alpha, tol=tol)
        checks = {
            "primal_dual": tol.equality - float(
                np.abs(res.surface.values - dual.surface.values).max()),
            "entropy_structure": tol.equality - float(
                verify_entropy_structure(tree, ent)),
            "properties": float(property_checks(
                tree, claim, cfg.alpha, ent.measure, seed=seed,
                tol=tol).worst()) + tol.equality,
            "certificate": float(optimality_certificate(
                tree, claim, cfg.alpha, res, ent.measure, seed=seed,
                tol=tol).submartingale_margin) + tol.equality,
            "identity": tol.equality - asy.compensator_identity_residual(
                tree, claim, cfg.alpha, ent.measure, tol=tol),
        }
        bounds = arbitrage_bounds_check(tree, claim, cfg.alpha, ent.measure, tol=tol)
        checks["bounds"] = float(min(bounds.lower_margin, bounds.upper_margin)
                                 + tol.equality)
        for name, margin in checks.items():
            ok = margin >= 0.0
            rows.append((j, seed, name, float(margin), ok))
            if margin < worst["margin"]:
                worst = {"margin": float(margin), "check": name, "instance": j}
    all_ok = all(r[4] for r in rows)
    summary = {"instances": cfg.instances, "alpha": float(cfg.alpha),
               "ok": all_ok, "worst": worst}
    return (0 if all_ok else 2), rows, \
        ["instance", "seed", "check", "margin", "ok"], summary


_COMMANDS = {
    "validate": _cmd_validate,
    "entropy": _cmd_entropy,
    "price": _cmd_price,
    "bsde": _cmd_bsde,
    "superrep": _cmd_superrep,
    "sweep-small": _cmd_sweep_small,
    "sweep-large": _cmd_sweep_large,
    "verify": _cmd_verify,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, per the contract
        raise ConfigError(message)


def _parse_args(argv):
    p = _Parser(prog="indifftree",
                description="exponential indifference valuation on event trees")
    p.add_argument("command", choices=sorted(_COMMANDS))
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--depth", type=int)
    p.add_argument("--branching", help="e.g. 3 or 2,4")
    p.add_argument("--assets", type=int)
    p.add_argument("--vol", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--alpha-grid", help="comma-separated ascending grid")
    p.add_argument("--claim", help="payoff expression over S1..Sd")
    p.add_argument("--instances", type=int, help="verify: number of instances")
    p.add_argument("--out", help="output directory (default: .)")
    return p.parse_args(argv)


def _config_from(args) -> RunConfig:
    data = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"bad config JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        RunConfig.from_mapping(data)  # reject malformed file values before the merge
    data["command"] = args.command
    tree = dict(data.get("tree") or {})
    for key, val in (("depth", args.depth), ("assets", args.assets),
                     ("vol", args.vol)):
        if val is not None:
            tree[key] = val
    if args.branching is not None:
        parts = _numbers(args.branching, int, "--branching")
        tree["branching"] = parts[0] if len(parts) == 1 else parts
    if args.seed is not None:
        data["seed"] = args.seed
        tree.setdefault("seed", args.seed)
    if tree:
        tree.setdefault("kind", "random")
        tree.setdefault("depth", 4)
        if tree["kind"] == "random":
            tree.setdefault("seed", data.get("seed", 0))
        data["tree"] = tree
    if args.alpha is not None:
        data["alpha"] = args.alpha
    if args.alpha_grid is not None:
        data["alpha_grid"] = _numbers(args.alpha_grid, float, "--alpha-grid")
    if args.claim is not None:
        data["claim"] = args.claim
    if args.instances is not None:
        data["instances"] = args.instances
    if args.out is not None:
        data["out_dir"] = args.out
    return RunConfig.from_mapping(data)


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        cfg = _config_from(args)
        tol = DEFAULT.with_overrides(**cfg.tolerances)
        code, rows, header, summary = _COMMANDS[cfg.command](cfg, tol)
        _write_artifacts(cfg, rows, header, summary)
        if code != 0:
            print(f"indifftree {cfg.command}: checks FAILED "
                  f"({summary.get('failure', summary.get('worst'))})",
                  file=sys.stderr)
        return code
    except ConfigError as exc:
        print(f"indifftree: config error: {exc}", file=sys.stderr)
        return 1
    except (NoArbitrageViolated, NonMartingaleKernel) as exc:
        print(f"indifftree: arbitrage check failed: {exc}", file=sys.stderr)
        return 2
    except (NewtonConvergenceError, TreeStructureError, StoppingRuleError) as exc:
        print(f"indifftree: numerical or internal failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
