"""Shared fixtures: the example graphs, deterministic graph families, and
slow brute-force oracles that the fast implementations are checked against.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

from adjustkit import Admg, AdjustmentQuery, CycleError, Dist, joint_observed, parse_graph, random_scm
from adjustkit.separation import Path as GraphPath
from adjustkit.separation import Route, Step, enumerate_paths, path_blocked
from adjustkit.graph import HEAD, descendants, incident_marks

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"

NAMES = "ABCDEFG"


def load_fixture(name: str) -> Admg:
    return parse_graph((FIXTURE_DIR / name).read_text())


@pytest.fixture(scope="session")
def fig1a() -> Admg:
    return load_fixture("fig1a.g")


@pytest.fixture(scope="session")
def fig1b() -> Admg:
    return load_fixture("fig1b.g")


@pytest.fixture(scope="session")
def fig1c() -> Admg:
    return load_fixture("fig1c.g")


def graph_from_edges(directed=(), bidirected=(), nodes=()) -> Admg:
    """Convenience constructor used all over the tests."""
    lines = []
    if nodes:
        lines.append("node " + " ".join(nodes))
    lines += [f"{a} -> {b}" for a, b in directed]
    lines += [f"{a} <-> {b}" for a, b in bidirected]
    return parse_graph("\n".join(lines))


# --- deterministic graph families ------------------------------------------


@lru_cache(maxsize=None)
def all_mixed_graphs(n: int) -> tuple[Admg, ...]:
    """Every ADMG on n named nodes (small n only)."""
    nodes = tuple(NAMES[:n])
    dir_pairs = [(a, b) for a in nodes for b in nodes if a != b]
    bi_pairs = list(combinations(nodes, 2))
    out = []
    for dmask in range(1 << len(dir_pairs)):
        directed = frozenset(p for i, p in enumerate(dir_pairs) if dmask >> i & 1)
        try:
            base = Admg(nodes, directed, frozenset())
        except CycleError:
            continue
        out.append(base)
        for bmask in range(1, 1 << len(bi_pairs)):
            bidirected = frozenset(p for i, p in enumerate(bi_pairs) if bmask >> i & 1)
            out.append(Admg(nodes, directed, bidirected))
    return tuple(out)


@lru_cache(maxsize=None)
def all_dags(n: int) -> tuple[Admg, ...]:
    """Every directed-only graph on n nodes that is acyclic."""
    nodes = tuple(NAMES[:n])
    dir_pairs = [(a, b) for a in nodes for b in nodes if a != b]
    out = []
    for dmask in range(1 << len(dir_pairs)):
        directed = frozenset(p for i, p in enumerate(dir_pairs) if dmask >> i & 1)
        try:
            out.append(Admg(nodes, directed, frozenset()))
        except CycleError:
            continue
    return tuple(out)


def random_admg(rng: random.Random, n_nodes=None, max_edges: int = 8) -> Admg:
    """A random ADMG; directed edges follow a shuffled topological order so
    the result is acyclic by construction."""
    n = n_nodes if n_nodes is not None else rng.randint(2, 5)
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
    return Admg(tuple(nodes), frozenset(directed), frozenset(bidirected))


@lru_cache(maxsize=None)
def graph_family(count: int = 300, base_seed: int = 1000) -> tuple[Admg, ...]:
    """The seeded family the acceptance sweeps run over: ``count`` graphs on
    at most 5 nodes with at most 8 edges."""
    return tuple(
        random_admg(random.Random(base_seed + i), max_edges=8) for i in range(count)
    )


def chain_graph(n: int) -> Admg:
    """The directed chain V0 -> V1 -> ... -> V<n-1>."""
    names = tuple(f"V{i}" for i in range(n))
    return Admg(names, frozenset(zip(names, names[1:])), frozenset())


def all_queries(graph: Admg):
    """Every (X, Y, Z) split of the graph's nodes with X, Y nonempty.

    Each node independently plays treatment, outcome, covariate, or none;
    enumeration order is fixed by sorted node names.
    """
    nodes = sorted(graph.nodes)
    for assign in product(range(4), repeat=len(nodes)):
        x = frozenset(v for v, a in zip(nodes, assign) if a == 0)
        y = frozenset(v for v, a in zip(nodes, assign) if a == 1)
        if not x or not y:
            continue
        z = frozenset(v for v, a in zip(nodes, assign) if a == 2)
        yield AdjustmentQuery(x, y, z)


def singleton_pairs(graph: Admg):
    for a, b in combinations(sorted(graph.nodes), 2):
        yield frozenset({a}), frozenset({b})


def subsets_of(pool):
    pool = sorted(pool)
    for size in range(len(pool) + 1):
        for combo in combinations(pool, size):
            yield frozenset(combo)


# --- brute-force oracles ----------------------------------------------------


def brute_d_separated(graph: Admg, a, b, z) -> bool:
    """Path-enumeration reference for the reachability-based decision."""
    return all(path_blocked(graph, p, z) for p in enumerate_paths(graph, a, b))


def reference_path_blocked(graph: Admg, path: GraphPath, given) -> bool:
    """The per-collider blocking rule: a non-collider blocks when it is in
    ``given``, a collider when none of its own descendants is."""
    given = frozenset(given)
    visits = path.nodes
    for i in range(1, len(visits) - 1):
        if path.steps[i - 1].target_mark == HEAD and path.steps[i].source_mark == HEAD:
            if not descendants(graph, {visits[i]}) & given:
                return True
        elif visits[i] in given:
            return True
    return False


def networkx_closures(nxg, nodes) -> tuple[frozenset[str], frozenset[str]]:
    """Ancestors and descendants of ``nodes``, the nodes included, by
    networkx on the directed graph ``nxg``."""
    import networkx as nx

    nodes = frozenset(nodes)
    return (
        nodes.union(*(nx.ancestors(nxg, v) for v in nodes)),
        nodes.union(*(nx.descendants(nxg, v) for v in nodes)),
    )


def brute_proper_causal_nodes(graph: Admg, treatments, outcomes) -> frozenset[str]:
    """Nodes on some directed path from X to Y that avoids X after its start.

    Plain DFS over directed edges; paths may run through outcome nodes and
    keep going, and every prefix ending inside Y marks its nodes.
    """
    treatments = frozenset(treatments)
    outcomes = frozenset(outcomes)
    found: set[str] = set()

    def walk(v, trail):
        if v in outcomes:
            found.update(trail)
        for w in sorted(graph.children(v)):
            if w in treatments or w in trail:
                continue
            walk(w, trail + (w,))

    for x in sorted(treatments):
        walk(x, (x,))
    return frozenset(found)


def random_route(rng: random.Random, graph: Admg, max_steps: int | None = None):
    """A random walk through the graph's edges, or None if the start node
    has no incident edges."""
    if max_steps is None:
        max_steps = 3 * len(graph.nodes)
    start = rng.choice(graph.nodes)
    steps = []
    at = start
    for _ in range(rng.randint(1, max_steps)):
        options = incident_marks(graph, at)
        if not options:
            break
        w, mv, mw = rng.choice(options)
        steps.append(Step(at, w, mv, mw))
        at = w
    if not steps:
        return None
    return Route(start, tuple(steps))


def route_from_paths(first: GraphPath, second: GraphPath) -> Route:
    """Concatenate two paths sharing an endpoint into one route."""
    assert first.end == second.start
    return Route(first.start, first.steps + second.steps)


# --- exact-oracle references: one treatment value and one cell at a time -----


def reference_truth(scm, x, outcomes) -> np.ndarray:
    """P(outcomes | do(x)) over name-sorted outcome axes: the product of the
    non-intervened tables with each treatment clamped to its value."""
    names = sorted(scm.domains)
    acc = np.ones([scm.domains[n] for n in names])
    for v in names:
        if v in x:
            continue
        axes = scm.parent_list(v) + [v]
        table = np.transpose(scm.cpts[v], sorted(range(len(axes)), key=lambda i: names.index(axes[i])))
        shape = [scm.domains[n] if n in axes else 1 for n in names]
        acc = acc * table.reshape(shape)
    acc = acc[tuple(x[n] if n in x else slice(None) for n in names)]
    rest = [n for n in names if n not in x]
    acc = acc.sum(axis=tuple(i for i, n in enumerate(rest) if n not in outcomes))
    return acc / acc.sum()


def reference_estimand(joint: Dist, x, outcomes, covariates) -> np.ndarray:
    """sum_z P(y | x, z) P(z) for one x, by marginals and slices of ``joint``."""
    outcomes, covariates = frozenset(outcomes), frozenset(covariates)
    pxyz = joint.marginal(frozenset(x) | outcomes | covariates).slice_at(x)
    pxz = joint.marginal(frozenset(x) | covariates).slice_at(x)
    pz = joint.marginal(covariates)
    out = np.zeros([pxyz.sizes[pxyz.names.index(n)] for n in sorted(outcomes)])
    for cell in product(*[range(s) for s in pz.sizes]):
        z = dict(zip(pz.names, cell))
        if pz.cell(z) > 0:
            out += pxyz.slice_at(z).probs * pz.cell(z) / pxz.cell(z)
    return out


def reference_independence_gap(dist: Dist, first, second, given) -> float:
    """max |P(a, b, z) P(z) - P(a, z) P(b, z)| / P(z)^2 over cells with
    P(z) > 0, from four separate marginals of ``dist`` broadcast into the
    axis layout of the joint one."""
    first, second, given = frozenset(first), frozenset(second), frozenset(given)
    pabz = dist.marginal(first | second | given)

    def embed(names):
        m = dist.marginal(names)
        shape = [1] * len(pabz.names)
        for n, size in zip(m.names, m.sizes):
            shape[pabz.names.index(n)] = size
        return m.probs.reshape(shape)

    paz, pbz, pz = embed(first | given), embed(second | given), embed(given)
    gaps = np.zeros(pabz.probs.shape)
    mask = np.broadcast_to(pz > 0, gaps.shape)
    num = np.abs(pabz.probs * pz - paz * pbz)
    gaps[mask] = num[mask] / np.broadcast_to(pz * pz, gaps.shape)[mask]
    return float(gaps.max(initial=0.0))


def reference_gaps(graph: Admg, query: AdjustmentQuery, trials: int, seed: int):
    """Per trial, per x in product order: (scm, x, max-abs gap, total variation)."""
    names = sorted(query.treatments)
    for trial in range(trials):
        scm = random_scm(graph, seed + trial)
        joint = joint_observed(scm)
        for combo in product(*[range(scm.domains[n]) for n in names]):
            x = dict(zip(names, combo))
            diff = reference_estimand(joint, x, query.outcomes, query.covariates) - reference_truth(
                scm, x, query.outcomes
            )
            yield scm, trial, x, float(np.abs(diff).max()), 0.5 * float(np.abs(diff).sum())


def reference_verify(graph: Admg, query: AdjustmentQuery, trials: int, tol: float, seed: int):
    """(passed, failures, max gap) of a soundness check, one x at a time."""
    failures, max_gap = [], 0.0
    for scm, trial, x, gap, _tv in reference_gaps(graph, query, trials, seed):
        max_gap = max(max_gap, gap)
        if gap > tol:
            failures.append({"seed": seed + trial, "x": x, "gap": gap})
    return not failures, failures, max_gap


def reference_refute(graph: Admg, query: AdjustmentQuery, trials: int, delta: float, seed: int):
    """(trial, scm_seed, gap, x) of the first trial whose largest total
    variation, first in product order on ties, exceeds ``delta``; or None."""
    for trial in range(trials):
        worst_gap, worst_x = 0.0, None
        for _scm, _trial, x, _gap, tv in reference_gaps(graph, query, 1, seed + trial):
            if tv > worst_gap:
                worst_gap, worst_x = tv, x
        if worst_gap > delta:
            return trial, seed + trial, worst_gap, worst_x
    return None


def reference_counterfactual_joint(scm, terms) -> tuple[tuple[str, ...], np.ndarray]:
    """The counterfactual joint by a loop over every latent and free value."""
    by_label = {}
    for node, intervention in terms:
        items = tuple(sorted((intervention or {}).items()))
        label = node if not items else f"{node}@do({','.join(f'{k}={v}' for k, v in items)})"
        by_label[label] = (node, items)
    worlds = sorted({items for _, items in by_label.values()})
    intervened = [dict(items) for items in worlds]
    free = [(w, v) for w in range(len(worlds)) for v in scm.observed if v not in intervened[w]]
    order = tuple(sorted(by_label))
    probs = np.zeros([scm.domains[by_label[lab][0]] for lab in order])
    cum = {v: np.concatenate([np.zeros(scm.cpts[v].shape[:-1] + (1,)), np.cumsum(scm.cpts[v], axis=-1)], axis=-1) for v in scm.observed}
    for lat_vals in product(*[range(scm.domains[u]) for u in scm.latents]):
        lat = dict(zip(scm.latents, lat_vals))
        p_lat = float(np.prod([scm.cpts[u][val] for u, val in lat.items()]))
        for free_vals in product(*[range(scm.domains[v]) for _, v in free]):
            values = [dict(base) for base in intervened]
            for (w, v), val in zip(free, free_vals):
                values[w][v] = val
            p = p_lat
            for v in scm.observed:
                lo, hi = 0.0, 1.0
                for w in range(len(worlds)):
                    if v not in intervened[w]:
                        row = tuple(lat[q] if q in lat else values[w][q] for q in scm.parent_list(v))
                        lo = max(lo, float(cum[v][row + (values[w][v],)]))
                        hi = min(hi, float(cum[v][row + (values[w][v] + 1,)]))
                p *= max(hi - lo, 0.0)
            if p > 0.0:
                probs[tuple(values[worlds.index(by_label[lab][1])][by_label[lab][0]] for lab in order)] += p
    return order, probs / probs.sum()
