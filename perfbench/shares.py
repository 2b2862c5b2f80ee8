"""Measure the natural shares of query classes on the ``scale`` rungs.

    python3 perfbench/shares.py [--seeds 1-10] [--draws 20]

Run it from the root of a checkout.  For each seed it builds the graphs
``run.py`` builds, draws uniform |X| = |Y| = 1, |Z| ~ n/20 queries on each,
and classifies each with the answer keys by its adjustment verdict (hold,
forbidden, path) and its back-door verdict (hold, descendant, path).
``workloads.SCALE_MIX`` is set from these shares.
The package itself is not called.
"""

from __future__ import annotations

import argparse
import random
from collections import Counter

import gen
import keys
import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--draws", type=int, default=20, help="queries per graph")
    args = parser.parse_args()
    first, last = (int(s) for s in args.seeds.split("-"))
    shares = {rung: Counter() for rung in gen.SCALE_RUNGS}
    for seed in range(first, last + 1):
        rng = random.Random(seed)
        for rung, index in [(r, i) for r in gen.SCALE_RUNGS for i in range(workloads.SCALE_GRAPHS)]:
            key = keys.GraphKey(gen.sparse_admg_text(rng, rung))
            nodes = list(key.nodes)
            draw = random.Random(seed * 1_000_003 + rung * 10 + index)
            size = max(1, round(rung / 20))
            for _ in range(args.draws):
                x, y = draw.sample(nodes, 2)
                rest = [v for v in nodes if v not in (x, y)]
                query = (frozenset({x}), frozenset({y}), frozenset(draw.sample(rest, size)))
                shares[rung][workloads.query_class(key, query)] += 1
                key.forget()
    for rung in gen.SCALE_RUNGS:
        total = sum(shares[rung].values())
        print(f"n={rung:<5d} {total} draws, adjustment/back-door: "
              + ", ".join(f"{k} {v / total:.3f}" for k, v in shares[rung].most_common()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
