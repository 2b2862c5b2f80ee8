"""Benchmark entry point: one workload, one seed, one fresh interpreter.

    python3 perfbench/run.py --workload family|scale|oracle --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src``.
It sets up (imports the package afresh and parses the workload's graphs,
five times, keeping the median), then calls the package for ``S`` seconds
as one closed-loop caller, checking every answer.  A ``scale`` run makes
a fixed number of sweeps instead, sized from ``S`` (see
``workloads.scale_sweeps``), so that every run of a seed makes the same
calls.  The last line of standard output is one JSON object: with
``--trace 0`` it carries the end-to-end metrics, with ``--trace 1`` the
per-layer ones from spans recorded around the package's public functions.
A fuller report (and the spans, in a traced run) goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

SETUP_REPS = 5
# Set iteration order inside the package follows the string hash seed, and
# a random one moves call latency by about 10% between runs of the same
# inputs.  numpy's BLAS starts a worker thread per CPU unless told not to;
# the caller is one thread.
PINNED_ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
ORACLE_CALLS = ("verify", "refute")


def percentile(values, q):
    """Linear-interpolated percentile ``q`` (0-100) of a nonempty list."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def latencies(calls, kinds=None, statuses=None):
    return [
        elapsed * 1000.0
        for kind, status, elapsed, _traced, _tag in calls
        if (kinds is None or kind in kinds) and (statuses is None or status in statuses)
    ]


def rate(calls, kinds=None, extra_s=0.0):
    """Calls that returned a correct answer, per second spent inside calls
    (plus ``extra_s`` charged to them)."""
    chosen = [c for c in calls if kinds is None or c[0] in kinds]
    busy = sum(c[2] for c in chosen) + extra_s
    return sum(c[1] == "ok" for c in chosen) / busy if busy else 0.0


def gmean_ms(calls):
    """Geometric-mean latency of the calls that returned a correct answer."""
    ms = latencies(calls, statuses=("ok",))
    return math.exp(statistics.fmean(math.log(max(t, 1e-6)) for t in ms))


def slope(points):
    """Least-squares slope of log(latency) against log(size); 0.0 with under two sizes."""
    pts = [(math.log(s), math.log(t)) for s, t in points if s > 0 and t > 0]
    if len({p[0] for p in pts}) < 2:
        return 0.0
    mx = statistics.fmean(p[0] for p in pts)
    my = statistics.fmean(p[1] for p in pts)
    return sum((a - mx) * (b - my) for a, b in pts) / sum((a - mx) ** 2 for a, _ in pts)


def environment():
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__, "nproc": os.cpu_count()}


def main(argv=None) -> int:
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        # Restart once with the pinned environment.
        os.environ.update(PINNED_ENV)
        os.execv(sys.executable, [sys.executable, *sys.orig_argv[1:]])
    started = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("family", "scale", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "adjustkit" / "__init__.py").is_file():
        print(f"error: no package at {root / 'src' / 'adjustkit'}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    out_dir = root / ".bench_out"
    scratch = out_dir / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        report, line = run_workload(args, started, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{name}.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    print(json.dumps(line))
    return 0


def fresh_import():
    """Import the package anew, as a new process would (its dependencies stay loaded)."""
    for name in [m for m in sys.modules if m == "adjustkit" or m.startswith("adjustkit.")]:
        del sys.modules[name]
    return importlib.import_module("adjustkit")


def run_workload(args, started, scratch):
    import gen
    import keys
    import spans
    import workloads

    seed, workload = args.seed, args.workload
    if workload == "scale":
        rng = random.Random(seed)
        texts = {
            (rung, i): gen.sparse_admg_text(rng, rung)
            for rung in gen.SCALE_RUNGS
            for i in range(workloads.SCALE_GRAPHS)
        }
    else:
        texts = dict(enumerate(gen.family_texts(seed, workloads.FAMILY_BLOCKS[workload])))
    chain_texts = []
    if workload == "oracle":
        rng = random.Random(seed)
        chain_texts = [gen.chain_text(rng, n, bi) for n, bi in workloads.CHAINS]

    def parse_all(ak):
        return {k: ak.parse_graph(t) for k, t in texts.items()}, [ak.parse_graph(t) for t in chain_texts]

    key_of = {k: keys.GraphKey(t) for k, t in texts.items()} if workload == "scale" else None
    # Memory is counted from here: what the benchmark itself holds by now
    # (numpy, networkx, the inputs and answer keys) is not the package's.
    harness_mb = workloads.peak_rss_mb()

    # Set-up is the package's import plus parsing the workload's graphs.
    # It is repeated and the median kept; numpy, which the benchmark also
    # loads, is imported once before and is not part of it.  What the
    # benchmark holds is frozen first, and each round's graphs are freed
    # before the next round starts, so that set-up's collections traverse
    # only the package's objects, as in a caller's process: traversing
    # scale's answer keys made its set-up about a third slower and noisier.
    gc.collect()
    gc.freeze()
    setup_times = []
    for _ in range(SETUP_REPS):
        ak = graphs = chains = None
        gc.collect()
        t0 = perf_counter()
        ak = fresh_import()
        graphs, chains = parse_all(ak)
        setup_times.append(perf_counter() - t0)
    setup_s = statistics.median(setup_times)
    from adjustkit import cli, criteria, graph, scm, separation, twin

    # The work limit goes in before the tracer collects what to wrap, so
    # the tracer leaves the counting lookup in place.
    work = workloads.WorkLimit(separation, workloads.WORK_LIMIT) if workload == "scale" else None
    tracer = spans.Tracer([ak, graph, separation, criteria, twin, scm, cli]) if args.trace else None
    if tracer:
        tracer.install()
        tracer.begin("setup.parse")
        graphs, chains = parse_all(ak)
        tracer.end()
        tracer.uninstall()

    limit = workloads.WALL_LIMIT_S if workload == "scale" else None
    runner = workloads.Runner(tracer, limit, work)
    ctx = workloads.Context(ak, cli, runner, texts, graphs, seed, bool(tracer), scratch)
    # Objects that live through the run (inputs, keys, the parsed graphs)
    # are moved out of the collector's reach, so full collections during
    # calls traverse what the calls themselves create.
    gc.collect()
    gc.freeze()
    runner.deadline = perf_counter() + args.seconds
    if workload == "scale":
        workloads.scale(ctx, key_of, workloads.scale_sweeps(args.seconds))
    elif workload == "family":
        workloads.family(ctx)
    else:
        workloads.oracle(ctx, chains)
    runner.stop()
    wall_s = perf_counter() - started

    peak_mb = workloads.peak_rss_mb() - harness_mb
    calls = list(runner.calls)
    statuses = [c[1] for c in calls]
    failed = len(calls) - statuses.count("ok")
    all_ms = latencies(calls)
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "call_p95_ms": (percentile(all_ms, 95), "ms"),
        "calls_per_s": (rate(calls, extra_s=runner.gc_between_s), "1/s"),
        "finished_share": (statuses.count("ok") / len(calls), "share"),
    }
    extra = {
        **{f"call_p{q}_ms": (percentile(all_ms, q), "ms") for q in (25, 50, 75, 99)},
        "finished_call_gmean_ms": (gmean_ms(calls), "ms"),
        "failed_share": (failed / len(calls), "share"),
        "gc_s": (runner.gc_s, "s"),
        "gc_between_calls_s": (runner.gc_between_s, "s"),
        "wall_s": (wall_s, "s"),
    }
    if workload in ("family", "scale"):
        verdict_ms = latencies(calls, workloads.VERDICTS)
        extra["verdict_p50_ms"] = (percentile(verdict_ms, 50), "ms")
        extra["verdict_p99_ms"] = (percentile(verdict_ms, 99), "ms")
        extra["verdicts_per_s"] = (rate(calls, workloads.VERDICTS), "1/s")
    if workload == "family":
        extra["cli_p50_ms"] = (percentile(latencies(calls, ("cli",)), 50), "ms")
    if workload == "oracle":
        oracle_ms = latencies(calls, ORACLE_CALLS)
        busy = sum(c[2] for c in calls if c[0] in ORACLE_CALLS and c[1] == "ok")
        extra["trials_per_s"] = (runner.counts["trials"] / busy, "1/s")
        extra["oracle_call_p50_ms"] = (percentile(oracle_ms, 50), "ms")
        extra["oracle_call_p95_ms"] = (percentile(oracle_ms, 95), "ms")
        extra["refute_found_share"] = (runner.counts["refutes_found"] / max(1, runner.counts["refutes"]), "share")
        extra["cf_joint_p50_ms"] = (percentile(latencies(calls, ("cf_joint",)), 50), "ms")

    rungs = {}
    if workload == "scale":
        for rung in gen.SCALE_RUNGS:
            mine = [c for c in calls if c[4] == rung]
            rungs[rung] = {
                "size": statistics.fmean(
                    workloads.graph_size(graphs[(rung, i)]) for i in range(workloads.SCALE_GRAPHS)
                ),
                "classes": ctx.classes[rung],
                "over_limit": sum(c[1] == "over" for c in mine),
                "over_by_kind": {
                    kind: n for kind in sorted({c[0] for c in mine})
                    if (n := sum(c[0] == kind and c[1] == "over" for c in mine))
                },
                "median_ms": {
                    kind: statistics.median(ms)
                    for kind in sorted({c[0] for c in mine})
                    if (ms := [c[2] * 1000 for c in mine if c[0] == kind and c[1] == "ok"])
                },
            }

    per_layer = layer_metrics(tracer, runner, calls, rungs) if tracer else {}
    metrics = per_layer if tracer else end_to_end
    line = {
        "correct": statuses.count("wrong") == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {
        "workload": workload,
        "seed": seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(),
        "calls": {s: statuses.count(s) for s in ("ok", "wrong", "over", "raised")},
        "over_wall_limit": runner.counts["over_wall"],
        "kinds": {
            k: {
                "calls": len(ms := latencies(calls, (k,))),
                "p50_ms": percentile(ms, 50),
                "mean_ms": statistics.fmean(ms),
                "busy_s": sum(ms) / 1000.0,
            }
            for k in sorted({c[0] for c in calls})
        },
        "errors": runner.errors,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in {**end_to_end, **extra}.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()},
        "rungs": rungs,
    }
    if tracer:
        name = f"{workload}-seed{seed}.spans.tsv"
        tracer.write(scratch.parent / name)
        report["spans_file"] = name
    return report, line


def layer_metrics(tracer, runner, calls, rungs):
    st, span_calls, counts = tracer.self_time, tracer.calls, tracer.counts
    out = {}
    for bucket in (
        "graph.parse", "graph.closure", "graph.transform", "graph.project",
        "separation.decide", "separation.witness", "separation.inducing",
        "criteria.adjustment", "criteria.backdoor", "criteria.magnified", "criteria.sets",
        "twin.build", "twin.ignorability",
        "scm.draw", "scm.joint", "scm.estimand", "scm.truth", "scm.dist", "scm.sweep", "scm.cf_joint",
    ):
        out[f"{bucket}_s"] = (st.get(bucket, 0.0), "s")
    for bucket in ("graph.closure", "graph.transform", "graph.project", "separation.decide"):
        out[f"{bucket}_calls"] = (span_calls.get(bucket, 0), "count")
    witnesses = counts.get("witnesses", 0)
    out["separation.witness_calls"] = (witnesses, "count")
    out["separation.paths_enumerated"] = (counts.get("paths_enumerated", 0), "count")
    out["separation.paths_per_witness"] = (counts.get("paths_enumerated", 0) / max(1, witnesses), "paths/witness")
    out["criteria.tests_per_set"] = (counts.get("set_tests", 0) / max(1, counts.get("sets_returned", 0)), "tests/set")
    out["scm.models_drawn"] = (counts.get("models_drawn", 0), "count")
    out["scm.cells_per_trial"] = (counts.get("cells", 0) / max(1, runner.counts["traced_trials"]), "cells/trial")
    out["scm.cf_cells"] = (counts.get("cf_cells", 0), "count")
    out["cli.run_self_s"] = (st.get("cli.run_self", 0.0), "s")
    out["gc.collect_s"] = (runner.gc_s, "s")

    size_of = {rung: info["size"] for rung, info in rungs.items()}
    for metric, name in (
        ("criteria.adjustment_exponent", "criteria.adjustment_criterion"),
        ("twin.ignorability_exponent", "twin.graphical_ignorability"),
        ("criteria.magnified_exponent", "criteria.magnification_check"),
        ("separation.decide_exponent", "separation.d_separated"),
    ):
        points = [
            (size_of.get(tag, tag), statistics.median(durations))
            for (sampled, tag), durations in tracer.samples.items()
            if sampled == name and tag is not None
        ]
        out[metric] = (slope(points), "slope")

    statuses = [c[1] for c in calls]
    out["ops.raised"] = (statuses.count("raised"), "count")
    out["ops.wrong"] = (statuses.count("wrong"), "count")
    out["ops.over_limit"] = (statuses.count("over"), "count")
    out["ops.failed_share"] = ((len(statuses) - statuses.count("ok")) / len(statuses), "share")
    out["trace.overhead_share"] = (overhead(calls), "share")
    out["trace.spans"] = (tracer.total_spans, "count")
    return out


def overhead(calls):
    """Traced over untraced time for the same mix of call kinds, minus one."""
    traced, plain = {}, {}
    for kind, status, elapsed, was_traced, _tag in calls:
        if status == "ok":
            side = traced if was_traced else plain
            side.setdefault(kind, []).append(elapsed)
    shared = [k for k in traced if k in plain]
    num = sum(len(traced[k]) * statistics.fmean(traced[k]) for k in shared)
    den = sum(len(traced[k]) * statistics.fmean(plain[k]) for k in shared)
    return num / den - 1.0 if den else 0.0


if __name__ == "__main__":
    sys.exit(main())
