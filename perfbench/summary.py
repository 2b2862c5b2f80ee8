"""Run every workload untraced and traced, and print all metrics and the scaling curve.

    python3 perfbench/summary.py [--seed N] [--seconds S]

Run it from the root of a checkout.  Each run is a separate
``perfbench/run.py`` process; the combined figures also go to
``.bench_out/summary.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("family", "scale", "oracle")
EXPONENTS = (
    "criteria.adjustment_exponent",
    "twin.ignorability_exponent",
    "criteria.magnified_exponent",
    "separation.decide_exponent",
)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return json.loads(Path(f".bench_out/{workload}-seed{seed}-trace{trace}.json").read_text())


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def show(title, metrics):
    print(title)
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args()
    reports = {}
    for workload in WORKLOADS:
        plain = run(workload, args.seed, args.seconds, 0)
        traced = run(workload, args.seed, args.seconds, 1)
        reports[workload] = {"untraced": plain, "traced": traced}
        print(f"== {workload} (seed {args.seed}, {args.seconds:g} s): calls {plain['calls']}")
        show("end-to-end (untraced run)", plain["end_to_end"])
        show("per-layer (traced run)", traced["per_layer"])
        for error in plain["errors"] + traced["errors"]:
            print(f"  error: {error}")

    env = reports["scale"]["untraced"]["environment"]
    print(f"== scaling curve on scale: python {env['python']}, numpy {env['numpy']}, "
          f"nproc {env['nproc']}, cpu {cpu_model()}")
    rungs = reports["scale"]["untraced"]["rungs"]
    kinds = sorted({k for info in rungs.values() for k in info["median_ms"]})
    print("  " + f"{'n':>6s} {'n+e':>8s} {'over':>5s} " + " ".join(f"{k:>12s}" for k in kinds) + "  queries")
    for rung, info in rungs.items():
        cells = " ".join(
            f"{info['median_ms'][k]:12.3f}" if k in info["median_ms"] else f"{'-':>12s}" for k in kinds
        )
        queries = " ".join(f"{cls} {n}" for cls, n in sorted(info["classes"].items()))
        print(f"  {rung:>6s} {info['size']:8.1f} {info['over_limit']:5d} {cells}  {queries}")
    print("  median ms of the calls that finished; 'over' counts calls that reached the limit;")
    print("  'queries' counts the run's queries by the keys' adjustment/back-door verdicts")
    layer = reports["scale"]["traced"]["per_layer"]
    for name in EXPONENTS:
        print(f"  {name:32s} {layer[name]['value']:.3f} (log-log slope against nodes + edges)")
    Path(".bench_out/summary.json").write_text(json.dumps(reports, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
