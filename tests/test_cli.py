"""Batch runner: exit codes, artifact determinism, config validation."""

import csv
import inspect
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import indifftree
from indifftree import errors
from indifftree.cli import RunConfig, main
from indifftree.errors import ConfigError, NewtonConvergenceError


BASE = ["--seed", "11", "--depth", "3", "--branching", "3",
        "--claim", "call(S1, 1.0)"]


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


def test_price_runs_clean(tmp_path):
    assert run(tmp_path, "price", *BASE) == 0
    with open(tmp_path / "price-11.json") as fh:
        summary = json.load(fh)
    assert abs(summary["c0_primal"] - 0.06943319084140676) < 1e-12
    assert summary["max_gap"] < 1e-9
    with open(tmp_path / "price-11.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["node", "time", "primal", "dual", "gap", "theta_1"]
    assert len(rows) == 1 + 40         # header + one row per node


@pytest.mark.parametrize("command", ["validate", "entropy", "bsde",
                                     "superrep", "verify"])
def test_commands_exit_zero(tmp_path, command):
    extra = ["--instances", "2"] if command == "verify" else []
    assert run(tmp_path, command, *BASE, *extra) == 0
    stem = f"{command}-11"
    assert (tmp_path / f"{stem}.csv").exists()
    assert (tmp_path / f"{stem}.json").exists()


def test_oversized_tree_is_refused_before_it_is_built(tmp_path, monkeypatch, capsys):
    # 3^25 nodes would take weeks to draw: the node budget is checked from
    # the spec's shape fields, and the builder must never be reached
    from indifftree import cli

    def build(*args, **kwargs):
        raise AssertionError("the tree was built")

    monkeypatch.setattr(cli, "build_tree", build)
    config = tmp_path / "lattice.json"
    config.write_text(json.dumps({"tree": {"kind": "lattice", "steps": 40}}))
    start = time.perf_counter()
    assert run(tmp_path, "validate", "--depth", "25") == 1
    assert run(tmp_path, "price", "--config", str(config)) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.splitlines()[-2:] == [
        "indifftree: config error: bad tree spec: depth, branching and assets give over "
        "1,000,000 node prices"] * 2


def test_artifacts_bitwise_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["verify", "--seed", "7", "--depth", "3",
                     "--branching", "3", "--instances", "3",
                     "--out", str(out)]) == 0
        assert main(["sweep-small", *BASE, "--out", str(out)]) == 0
    for name in ("verify-7.csv", "verify-7.json",
                 "sweep-small-11.csv", "sweep-small-11.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_superrep_summary_counts_qp_nodes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["superrep", *BASE, "--out", str(out)]) == 0
    assert (a / "superrep-11.json").read_bytes() == (b / "superrep-11.json").read_bytes()
    with open(a / "superrep-11.json") as fh:
        assert json.load(fh)["qp_nodes"] == 0


def test_sweep_csv_schema(tmp_path):
    assert run(tmp_path, "sweep-large", *BASE) == 0
    with open(tmp_path / "sweep-large-11.csv") as fh:
        header = next(csv.reader(fh))
    assert header[:7] == ["alpha", "dist_sup", "dist_psi_sq", "dist_L_sq",
                          "bmo_psi", "bmo_L", "comp_dist"]
    with open(tmp_path / "sweep-large-11.json") as fh:
        summary = json.load(fh)
    assert summary["extras"]["monotone_c0"]
    assert summary["extras"]["monotone_gap"]


def test_sweep_small_slope_in_json(tmp_path):
    assert run(tmp_path, "sweep-small", *BASE) == 0
    with open(tmp_path / "sweep-small-11.json") as fh:
        summary = json.load(fh)
    assert 0.9 <= summary["slopes"]["dist_sup"]["slope"] <= 1.1


def test_unknown_config_field_is_exit_1(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"bogus": 1}')
    assert main(["price", "--config", str(cfg), "--out", str(tmp_path)]) == 1


def test_runconfig_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        RunConfig.from_mapping({"command": "price", "alpha": 1.0, "frob": 2})
    cfg = RunConfig.from_mapping({"command": "price", "alpha": 2.0})
    assert cfg.alpha == 2.0


@pytest.mark.parametrize("argv", [
    ["price", "--alpha", "-3"],
    ["sweep-small", "--alpha-grid", "1.0,0.5"],
    ["price", "--claim", "frob(S1)"],
    ["frobnicate"],
    ["price", "--config", "/nonexistent/cfg.json"],
])
def test_config_errors_exit_1(tmp_path, argv):
    assert main([*argv, "--out", str(tmp_path)]) == 1


def test_arbitrage_tree_fails_validate_with_exit_2(tmp_path):
    cfg = tmp_path / "arb.json"
    cfg.write_text(json.dumps({"tree": {"kind": "explicit", "nodes": [
        {"parent": None, "prices": [1.0]},
        {"parent": 0, "prices": [1.1], "p": 0.5},
        {"parent": 0, "prices": [1.2], "p": 0.5},
    ]}}))
    assert main(["validate", "--config", str(cfg), "--seed", "0",
                 "--out", str(tmp_path)]) == 2
    with open(tmp_path / "validate-0.json") as fh:
        summary = json.load(fh)
    assert not summary["ok"]
    assert summary["failure"]["node"] == 0
    # valuation on the same tree dies in the kernel solver, also exit 2
    assert main(["price", "--config", str(cfg), "--seed", "0",
                 "--out", str(tmp_path)]) == 2


def test_newton_failure_maps_to_exit_3(tmp_path, monkeypatch):
    from indifftree import cli as cli_mod

    def boom(cfg, tol):
        raise NewtonConvergenceError("stalled")

    monkeypatch.setitem(cli_mod._COMMANDS, "price", boom)
    assert main(["price", *BASE, "--out", str(tmp_path)]) == 3


# the documented exit code of every error type in errors.py
EXIT_CODES = {"ConfigError": 1, "NoArbitrageViolated": 2,
              "NonMartingaleKernel": 2, "NewtonConvergenceError": 3,
              "TreeStructureError": 3, "StoppingRuleError": 3}


def test_every_error_type_has_its_exit_code(tmp_path, monkeypatch, capsys):
    from indifftree import cli as cli_mod

    types = [c for _, c in inspect.getmembers(errors, inspect.isclass)
             if issubclass(c, Exception) and c.__module__ == errors.__name__]
    assert sorted(c.__name__ for c in types) == sorted(EXIT_CODES)
    for exc in types:
        def boom(cfg, tol, exc=exc):
            raise exc("boom")

        monkeypatch.setitem(cli_mod._COMMANDS, "price", boom)
        assert main(["price", *BASE, "--out", str(tmp_path)]) == \
            EXIT_CODES[exc.__name__], exc.__name__
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.rstrip().endswith("boom")


def test_dual_underflow_at_large_alpha_is_exit_3(tmp_path, capsys):
    # D2: the claim-tilted kernels underflow and the measure is rejected
    assert main(["price", "--seed", "3", "--depth", "4", "--branching", "3",
                 "--alpha", "1000", "--out", str(tmp_path)]) == 3
    assert "strictly positive" in capsys.readouterr().err


def test_import_leaves_scipy_optimize_unloaded():
    code = ("import sys, indifftree, indifftree.cli; "
            "print('scipy.optimize' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(indifftree.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True).stdout
    assert out.strip() == "False"


def test_claim_values_length_checked(tmp_path):
    cfg = tmp_path / "cv.json"
    cfg.write_text(json.dumps({
        "tree": {"kind": "random", "depth": 2, "branching": 2,
                 "assets": 1, "seed": 3},
        "claim_values": [0.1, 0.0]}))
    assert main(["price", "--config", str(cfg), "--seed", "3",
                 "--out", str(tmp_path)]) == 1
    cfg.write_text(json.dumps({
        "tree": {"kind": "random", "depth": 2, "branching": 2,
                 "assets": 1, "seed": 3},
        "claim_values": [0.1, 0.0, 0.3, 0.2]}))
    assert main(["price", "--config", str(cfg), "--seed", "3",
                 "--out", str(tmp_path)]) == 0


def test_cli_flags_override_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 1.0, "seed": 11,
                               "tree": {"kind": "random", "depth": 3,
                                        "branching": 3, "assets": 1,
                                        "seed": 11},
                               "claim": "call(S1, 1.0)"}))
    assert main(["price", "--config", str(cfg), "--alpha", "4.0",
                 "--out", str(tmp_path)]) == 0
    with open(tmp_path / "price-11.json") as fh:
        summary = json.load(fh)
    assert summary["alpha"] == 4.0
    assert summary["c0_primal"] > 0.06943319084140676  # monotone in alpha


@pytest.mark.parametrize("argv", [
    ["sweep-large", "--alpha-grid", "1,nan"],
    ["sweep-small", "--alpha-grid", "nan,0.5"],
    ["price", "--alpha", "inf"],
])
def test_non_finite_alpha_is_exit_1(tmp_path, capsys, argv):
    assert main([*argv, *BASE, "--out", str(tmp_path)]) == 1
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["price", "verify"])
@pytest.mark.parametrize("flags, field", [
    (["--depth", "-1"], "depth"),
    (["--branching", "0"], "branching"),
    (["--branching", "1,3"], "branching"),
    (["--assets", "0"], "assets"),
])
def test_bad_tree_shape_is_exit_1_naming_the_field(tmp_path, capsys, command,
                                                   flags, field):
    assert main([command, "--seed", "11", *flags, "--instances", "1",
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "bad tree spec" in err and field in err


@pytest.mark.parametrize("argv, config, field", [
    (["sweep-small", "--alpha-grid", "abc"], None, "--alpha-grid"),
    (["price", "--branching", "x"], None, "--branching"),
    (["price"], {"alpha": "abc"}, "alpha"),
    (["verify"], {"instances": "abc"}, "instances"),
    (["sweep-small"], {"alpha_grid": "abc"}, "alpha_grid"),
    (["price"], {"seed": 1.5}, "seed"),
    (["price"], {"tree": "abc"}, "tree"),
    (["price"], {"claim_values": "abc"}, "claim_values"),
    (["price"], {"tolerances": {"equality": "x"}}, "tolerances"),
    (["price"], {"alpha": True}, "alpha"),
    (["verify"], {"instances": True}, "instances"),
    (["price"], {"seed": True}, "seed"),
    (["sweep-small"], {"alpha_grid": [True, 2.0]}, "alpha_grid"),
], ids=["alpha-grid-flag", "branching-flag", "alpha-config", "instances-config",
        "alpha-grid-config", "seed-float", "tree-string", "claim-values-string",
        "tolerance-string", "alpha-bool", "instances-bool", "seed-bool",
        "alpha-grid-bool"])
def test_malformed_value_is_exit_1_without_traceback(tmp_path, capsys, argv,
                                                    config, field):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [*argv, "--config", str(cfg)]
    assert main([*argv, "--seed", "11", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "config error" in err and field in err


def test_verify_rejects_zero_instances(tmp_path, capsys):
    assert main(["verify", *BASE, "--instances", "0", "--out", str(tmp_path)]) == 1
    assert "instances" in capsys.readouterr().err
    assert not (tmp_path / "verify-11.json").exists()


@pytest.mark.parametrize("argv, tree, words", [
    (["verify", "--instances", "1"], {"depth": [1]}, "int()"),
    (["verify", "--instances", "1"], {"kind": "lattice", "steps": 2}, "'lattice'"),
    (["price"], {"kind": "explicit", "nodes": [5]}, "node 0: must be an object"),
], ids=["verify-depth-list", "verify-lattice", "explicit-non-object-node"])
def test_bad_tree_spec_is_exit_1_without_traceback(tmp_path, capsys, argv, tree,
                                                   words):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tree": tree}))
    assert main([*argv, "--config", str(cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "bad tree spec" in err and words in err
    assert not list(tmp_path.glob(f"{argv[0]}-*"))
