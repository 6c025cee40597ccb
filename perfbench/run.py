"""indifftree benchmark: one closed-loop client driving the public API.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload bigtree --seed 1 --seconds 20 --trace 0

``--trace 0`` runs ops back to back for ``--seconds`` seconds and prints
the end-to-end metrics: op latency p50/p90 over the ops that succeeded,
ops per second, the share of ops that succeeded, set-up time (median of
several fresh interpreters importing the package and building the
inputs) and peak RSS.  ``--trace 1`` runs a fixed list of ops, each once
with spans around every layer call and once without, and prints the
per-layer metrics: calls and busy time per layer function, exact
counters, failures by type, known failures on fixed inputs, one-step
kernel probes, import time and the tracing overhead.  The last line of stdout is one JSON object; the lines
before it, starting with ``#``, give provenance and a readable summary.
See NOTES.md in this directory for the workloads and their choice.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("bigtree", "corpus", "cli")
SETUP_REPEATS = 5

SPAN_FUNCS = (
    "lattice.random_tree", "lattice.random_claim", "lattice.validate_no_arbitrage",
    "lattice.gains", "measures.minimal_entropy_measure",
    "valuation.indifference_surface", "valuation.dual_surface",
    "valuation.property_checks", "bsde.exact_decomposition", "bsde.bsde_scheme",
    "superrep.superrep_surface", "asymptotics.small_alpha_sweep",
    "asymptotics.large_alpha_sweep", "claims.claim_from_expression", "cli.main",
    "cli.process",
)
MEASURED_COUNTS = ("measures.newton_iters", "valuation.newton_iters",
                   "measures.degenerate_nodes")
COMPUTED_COUNTS = ("onestep.kernel_calls", "onestep.kernel_rows", "lattice.lp_calls",
                   "superrep.vertex_nodes", "superrep.lp_nodes")


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in output order."""
    from probes import KERNEL_SHAPES, KERNELS, KNOWN_FAILURES
    from workloads import FAIL_KINDS
    spec = []
    for f in SPAN_FUNCS:
        spec += [(f"{f}.calls", "count", "lower"), (f"{f}.busy_s", "s", "lower")]
    spec += [(c, "count", "lower") for c in MEASURED_COUNTS]
    spec += [(c, "computed_count", "lower") for c in COMPUTED_COUNTS]
    spec += [(f"fail.{k}", "count", "lower") for k in FAIL_KINDS]
    spec += [(f"known_failure.{k}", "count", "lower") for k in KNOWN_FAILURES]
    for m, k, d in KERNEL_SHAPES:
        for name in KERNELS:
            key = f"onestep.{name}.m{m}_k{k}_d{d}"
            spec += [(f"{key}.us_per_call", "us", "lower"),
                     (f"{key}.rows_per_s", "1/s", "higher")]
    spec += [("cli.import_s", "s", "lower"), ("cli.import_scipy_optimize_s", "s", "lower"),
             ("trace.ops", "count", "lower"), ("trace.spans", "count", "lower"),
             ("trace.span_cost_us", "us", "lower"),
             ("trace.overhead_ratio", "ratio", "lower"),
             ("trace.overhead_ratio_computed", "ratio", "lower")]
    return spec


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs, print their digest and exit "
                        "(the fresh interpreter timed for setup_s)")
    return p.parse_args(argv)


def run_op(wl, i, rec):
    """Run op ``i``; returns (seconds, failure kind or None, known, detail)."""
    from workloads import classify
    rec.op_index = i
    start = time.perf_counter()
    try:
        wl.op(i, rec)
    except Exception as exc:  # every op failure is counted, then the loop goes on
        kind, known = classify(exc)
        rec.count(f"fail.{kind}", 1)
        outcome = (kind, known, f"{type(exc).__name__}: {exc}")
    else:
        outcome = (None, True, "")
    end = time.perf_counter()
    if rec.traced:
        rec.spans.append(("op", i, start, end))
    rec.op_index = None
    return (end - start, *outcome)


def setup_probes(args):
    """Wall time from spawning a fresh interpreter to inputs ready, repeated."""
    times, digests = [], set()
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
        if proc.returncode != 0 or not line.startswith("ready "):
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        digests.add(line.split()[1])
    return times, digests


def provenance(args, src_digest):
    import numpy
    import scipy
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "source_sha256": src_digest, "commit": None,
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        info["commit"] = proc.stdout.strip() or None
    return info


def timed_run(wl, args):
    from workloads import Recorder
    rec = Recorder(traced=False)
    run_op(wl, 0, rec)  # warm-up: lazy imports and first-call set-up
    ok_ms, fails, unknown, log = [], Counter(), [], []
    t0 = time.perf_counter()
    i = 0
    while True:
        start = time.perf_counter() - t0
        dt, kind, known, detail = run_op(wl, i, rec)
        log.append((start, dt, kind))
        i += 1
        if kind is None:
            ok_ms.append(dt * 1e3)
        else:
            fails[kind] += 1
            print(f"# op {i - 1} failed: {detail[:300]}")
            if not known:
                unknown.append(detail)
        if time.perf_counter() - t0 >= args.seconds:
            break
    elapsed = time.perf_counter() - t0
    return i, ok_ms, fails, unknown, elapsed, log


def end_to_end(wl, args, setup_times):
    import numpy as np
    attempted, ok_ms, fails, unknown, elapsed, log = timed_run(wl, args)
    n_ok = len(ok_ms)
    p50, p90 = np.percentile(ok_ms, [50, 90]) if n_ok else (0.0, 0.0)
    if wl.name == "cli":
        rss_kb = wl.child_maxrss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "op_p50_ms": (float(p50), "ms"),
        "op_p90_ms": (float(p90), "ms"),
        "ops_per_s": (n_ok / elapsed, "1/s"),
        "ok_ratio": (n_ok / attempted, "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    beyond = n_ok - 1 - int(0.9 * (n_ok - 1)) if n_ok else 0
    print(f"# {attempted} ops in {elapsed:.2f} s, {n_ok} ok; p90 from n={n_ok} "
          f"with {beyond} beyond it; fail_ratio {1 - n_ok / attempted:.4f} "
          f"{dict(fails) or ''}")
    print(f"# setup_s samples {[round(t, 4) for t in setup_times]}")
    return metrics, attempted, attempted - n_ok, unknown, log


def traced_run(wl, args, setup_rec):
    """Fixed op list, each op once traced and once untraced (order alternating)."""
    import probes
    from workloads import FAIL_KINDS, Recorder, classify
    traced, untraced = Recorder(traced=True), Recorder(traced=False)
    run_op(wl, 0, Recorder(traced=False))  # warm-up
    time_t = time_u = 0.0
    unknown = []
    for j in range(wl.trace_ops):
        order = (traced, untraced) if j % 2 == 0 else (untraced, traced)
        for rec in order:
            dt, kind, known, detail = run_op(wl, j, rec)
            if rec is traced:
                time_t += dt
                if kind is not None:
                    print(f"# op {j} failed: {detail[:300]}")
                    if not known:
                        unknown.append(detail)
            else:
                time_u += dt
    failed = sum(v for k, v in traced.counts.items() if k.startswith("fail."))
    repeat_ok = traced.counts == untraced.counts
    if not repeat_ok:
        print(f"# counters differ between the traced and untraced passes: "
              f"{dict(traced.counts)} vs {dict(untraced.counts)}")
    if wl.name == "cli":
        try:
            wl.in_process(traced)
        except Exception as exc:  # reported like an op failure
            kind, known = classify(exc)
            print(f"# in-process cli.main failed: {kind}: {exc}")
            if not known:
                unknown.append(f"{type(exc).__name__}: {exc}")
    spans = setup_rec.spans + traced.spans
    counts = setup_rec.counts + traced.counts
    values = {}
    for f in SPAN_FUNCS:
        durations = [end - start for name, _, start, end in spans if name == f]
        values[f"{f}.calls"] = len(durations)
        values[f"{f}.busy_s"] = sum(durations)
    for c in MEASURED_COUNTS + COMPUTED_COUNTS:
        values[c] = counts.get(c, 0)
    for k in FAIL_KINDS:
        values[f"fail.{k}"] = counts.get(f"fail.{k}", 0)
    reproduced, errors = probes.known_failures()
    values.update(reproduced)
    for name, detail in errors.items():
        print(f"# known failure {name} still fails: {detail[:300]}")
    values.update(probes.kernel_probes(args.seed))
    values.update(probes.import_probe(SRC))
    cost = probes.span_cost(Recorder)
    layer_spans = sum(1 for s in spans if s[0] != "op")
    values.update({
        "trace.ops": wl.trace_ops, "trace.spans": layer_spans,
        "trace.span_cost_us": cost,
        "trace.overhead_ratio": time_t / time_u - 1.0,
        "trace.overhead_ratio_computed": layer_spans * cost * 1e-6 / time_u,
    })
    op_busy = sum(e - s for name, _, s, e in traced.spans if name == "op")
    layer_busy = sum(e - s for name, i, s, e in traced.spans if name != "op" and i is not None)
    print(f"# traced pass {time_t:.3f} s, untraced pass {time_u:.3f} s over "
          f"{wl.trace_ops} ops; benchmark self time inside ops {op_busy - layer_busy:.3f} s; "
          f"counters repeat exactly: {repeat_ok}")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{wl.name}-{args.seed}.json", "w") as fh:
        json.dump([{"name": n, "op": i, "start": s, "end": e} for n, i, s, e in spans], fh)
    spec = per_layer_spec()
    metrics = {name: (float(values[name]), unit) for name, unit, _ in spec}
    return metrics, wl.trace_ops, failed, unknown, repeat_ok


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "indifftree" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'indifftree'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from probes import source_digest

    work_dir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.make(args.workload, work_dir)
        if args.setup_only:
            wl.setup(args.seed, workloads.Recorder(traced=False))
            print("ready", wl.digest(), flush=True)
            return 0
        info = provenance(args, source_digest(SRC))
        setup_times, digests = setup_probes(args)
        setup_rec = workloads.Recorder(traced=bool(args.trace))
        wl.setup(args.seed, setup_rec)
        for note in getattr(wl, "notes", ()):
            print(f"# {note}")
        same_inputs = digests == {wl.digest()}
        if not same_inputs:
            print(f"# set-up digests differ: {sorted(digests)} vs {wl.digest()}")
        if args.trace:
            metrics, attempted, failed, unknown, repeat_ok = traced_run(wl, args, setup_rec)
            op_log = []
        else:
            metrics, attempted, failed, unknown, op_log = end_to_end(wl, args, setup_times)
            repeat_ok = True
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for detail in unknown:
        print(f"# failure outside the documented errors and known checks: {detail[:300]}")
    correct = same_inputs and repeat_ok and not unknown
    info["correct"] = correct
    if args.trace:
        info["tracing_overhead_ratio"] = metrics["trace.overhead_ratio"][0]
    print("# provenance " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value:.6g} {unit}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w") as fh:
        # ops: (start s, duration s, failure kind or null) of each timed op
        json.dump({"provenance": info, **result, "ops": op_log}, fh, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
