"""Seeded workload inputs, produced as graph text so the package parses them.

Everything here depends only on the seed handed in; the package under test
never sees the generator, only the text it produces and the queries drawn
from it.
"""

from __future__ import annotations

import random
from itertools import combinations, product

NAMES = "ABCDEFG"
FAMILY_SIZE = 300
SCALE_RUNGS = (12, 100, 400, 1000)


def graph_text(nodes, directed, bidirected) -> str:
    lines = ["node " + " ".join(nodes)]
    lines += [f"{a} -> {b}" for a, b in directed]
    lines += [f"{a} <-> {b}" for a, b in bidirected]
    return "\n".join(lines) + "\n"


def family_admg(rng: random.Random, max_edges: int = 8):
    """One acceptance-family graph: 2-5 nodes, at most ``max_edges`` edges.

    Draws in the same order as the test suite's ``random_admg`` so that
    family seed 0 reproduces the acceptance family exactly.
    """
    n = rng.randint(2, 5)
    nodes = list(NAMES[:n])
    order = nodes[:]
    rng.shuffle(order)
    pos = {v: i for i, v in enumerate(order)}
    dir_candidates = [(a, b) for a in nodes for b in nodes if pos[a] < pos[b]]
    bi_candidates = list(combinations(nodes, 2))
    budget = rng.randint(0, max_edges)
    n_dir = rng.randint(0, min(budget, len(dir_candidates)))
    directed = rng.sample(dir_candidates, n_dir)
    n_bi = min(budget - n_dir, len(bi_candidates))
    bidirected = rng.sample(bi_candidates, rng.randint(0, n_bi)) if n_bi > 0 else []
    return nodes, sorted(directed), sorted(bidirected)


def family_texts(seed: int, blocks: int = 1) -> list[str]:
    """``blocks`` consecutive 300-graph families for ``seed``.

    Seed 0's first block is the acceptance family itself.
    """
    base = 1000 + FAMILY_SIZE * blocks * seed
    return [graph_text(*family_admg(random.Random(base + i))) for i in range(FAMILY_SIZE * blocks)]


def all_splits(nodes):
    """Every (X, Y, Z) split with X and Y nonempty, in the test suite's order."""
    nodes = sorted(nodes)
    for assign in product(range(4), repeat=len(nodes)):
        x = frozenset(v for v, a in zip(nodes, assign) if a == 0)
        y = frozenset(v for v, a in zip(nodes, assign) if a == 1)
        if x and y:
            yield x, y, frozenset(v for v, a in zip(nodes, assign) if a == 2)


def sample_splits(nodes, count: int, seed: int):
    """``count`` splits drawn without replacement, kept in enumeration order."""
    splits = list(all_splits(nodes))
    if len(splits) <= count:
        return splits
    keep = sorted(random.Random(seed).sample(range(len(splits)), count))
    return [splits[i] for i in keep]


def singleton_pairs(nodes):
    for a, b in combinations(sorted(nodes), 2):
        yield frozenset({a}), frozenset({b})


def spread_order(classes) -> list[int]:
    """Indices ordered so that every prefix holds each class in about its overall share.

    A run stops wherever its time runs out; spreading each class evenly
    keeps the mix of graph sizes behind a run's figures the same from one
    seed to the next.
    """
    members: dict = {}
    for i, c in enumerate(classes):
        members.setdefault(c, []).append(i)
    keyed = [((r + 0.5) / len(idx), i) for idx in members.values() for r, i in enumerate(idx)]
    return [i for _, i in sorted(keyed)]


def sparse_admg_text(rng: random.Random, n: int) -> str:
    """Directed i->j (i<j) with probability 3/n, bidirected with 1/n."""
    names = [f"V{i}" for i in range(n)]
    directed, bidirected = [], []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 3.0 / n:
                directed.append((names[i], names[j]))
            if rng.random() < 1.0 / n:
                bidirected.append((names[i], names[j]))
    return graph_text(names, directed, bidirected)


def chain_text(rng: random.Random, n: int, n_bi: int) -> str:
    """V0 -> V1 -> ... -> V(n-1) plus ``n_bi`` distinct bidirected edges."""
    names = [f"V{i}" for i in range(n)]
    pairs = list(combinations(names, 2))
    return graph_text(names, list(zip(names, names[1:])), sorted(rng.sample(pairs, n_bi)))
