"""Exact discrete structural models for validating graphical verdicts.

Every graphical claim in this package can be checked numerically: a random
structural model is drawn over the graph (bidirected edges become explicit
latent parents), and the observed joint and the post-intervention
distributions are computed exactly as a dense product of the model's
tables with the treatments kept as axes, so one array holds
P(v | do(x)) for every treatment value x.  The adjustment functional is
computed over the same axes and compared against that ground truth for
every x at once.  Counterfactual joints use a canonical
functionalization: each node's mechanism draws one independent response per
parent-value row, so worlds that agree on a node's parents agree on the
node.  That pins cross-world behavior to one concrete model among the many
consistent with the conditional probability tables; the joint is computed
on a broadcast grid over the latent and free values.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .criteria import AdjustmentQuery, adjustment_criterion
from .graph import Admg, _node_set, expand_bidirected, latent_project

__all__ = [
    "Counterexample",
    "DiscreteScm",
    "Dist",
    "PositivityError",
    "SoundnessReport",
    "StateSpaceError",
    "adjustment_estimand",
    "counterfactual_joint",
    "independence_gap",
    "interventional",
    "joint_observed",
    "random_scm",
    "scm_from_json",
    "scm_to_json",
    "search_counterexample",
    "verify_soundness",
]

STATE_SPACE_LIMIT = 1 << 20
_KEPT_JOINT_CELLS = 1 << 13  # random_scm keeps a model whose joints have at most this many cells
_ROW_SUM_TOL = 1e-12
_DIST_SUM_TOL = 1e-9


class StateSpaceError(ValueError):
    """Raised when an exact computation would enumerate too many cells."""


class PositivityError(ValueError):
    """Raised when the adjustment functional hits P(x, z) = 0 with P(z) > 0."""

    def __init__(self, assignment: dict[str, int]):
        cell = ", ".join(f"{k}={v}" for k, v in sorted(assignment.items()))
        super().__init__(f"positivity violation at covariate cell {{{cell}}}")
        self.assignment = dict(assignment)


@dataclass
class Dist:
    """A dense joint distribution over name-sorted variables."""

    names: tuple[str, ...]
    sizes: tuple[int, ...]
    probs: np.ndarray

    def __post_init__(self):
        self.names = tuple(self.names)
        self.sizes = tuple(self.sizes)
        if self.names != tuple(sorted(self.names)):
            raise ValueError("Dist variables must be name-sorted")
        if len(self.names) != len(self.sizes):
            raise ValueError("names and sizes disagree")
        self.probs = np.asarray(self.probs, dtype=float)
        if self.probs.shape != self.sizes:
            raise ValueError(f"table shape {self.probs.shape} does not match sizes {self.sizes}")
        if not np.isfinite(self.probs).all():
            raise ValueError("non-finite probability cell")
        if self.probs.min(initial=0.0) < -_ROW_SUM_TOL:
            raise ValueError("negative probability cell")
        total = float(self.probs.sum())
        if abs(total - 1.0) > _DIST_SUM_TOL:
            raise ValueError(f"distribution sums to {total}, not 1")

    def marginal(self, names) -> "Dist":
        keep = tuple(sorted(_node_set(names)))
        missing = frozenset(keep) - frozenset(self.names)
        if missing:
            raise ValueError(f"variables not in distribution: {sorted(missing)}")
        arr = _marginal(self.names, self.probs, keep)
        return Dist(keep, arr.shape, arr)

    def slice_at(self, assignment: Mapping[str, int]) -> "Dist":
        """Unnormalized slice: fix some variables, keep the rest's axes."""
        arr = self.probs
        names = list(self.names)
        sizes = list(self.sizes)
        _check_values(names, sizes, assignment)
        for v in sorted(assignment, key=names.index, reverse=True):
            i = names.index(v)
            arr = np.take(arr, assignment[v], axis=i)
            del names[i], sizes[i]
        out = Dist.__new__(Dist)
        out.names = tuple(names)
        out.sizes = tuple(sizes)
        out.probs = arr
        return out

    def cell(self, assignment: Mapping[str, int]) -> float:
        if frozenset(assignment) != frozenset(self.names):
            raise ValueError("assignment must cover exactly the distribution's variables")
        _check_values(self.names, self.sizes, assignment)
        idx = tuple(assignment[n] for n in self.names)
        return float(self.probs[idx])

    def max_abs_diff(self, other: "Dist") -> float:
        if self.names != other.names or self.sizes != other.sizes:
            raise ValueError("distributions are over different variables")
        return float(np.abs(self.probs - other.probs).max())

    def total_variation(self, other: "Dist") -> float:
        if self.names != other.names or self.sizes != other.sizes:
            raise ValueError("distributions are over different variables")
        return 0.5 * float(np.abs(self.probs - other.probs).sum())


@dataclass(frozen=True, eq=False)
class DiscreteScm:
    """A discrete structural model over an expanded (explicit-latent) DAG.

    ``cpts[v]`` has one axis per parent (parents name-sorted) plus a final
    axis for ``v``; each row along the final axis sums to one.  The latent
    projection of ``expanded_dag`` over ``latents`` equals ``graph``.
    Models are read-only: ``domains`` and ``cpts`` are mapping proxies over
    copies of what was passed in, and every table is a read-only array, so
    a model handed out by :func:`random_scm` can be shared safely.
    """

    graph: Admg
    expanded_dag: Admg
    domains: Mapping[str, int]
    cpts: Mapping[str, np.ndarray]
    latents: tuple[str, ...]
    seed: int | None = None
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        cpts = {}
        for v, table in self.cpts.items():
            cpts[v] = np.array(table, dtype=float)
            cpts[v].flags.writeable = False
        object.__setattr__(self, "domains", MappingProxyType(dict(self.domains)))
        object.__setattr__(self, "cpts", MappingProxyType(cpts))

    @property
    def observed(self) -> tuple[str, ...]:
        return self.graph.nodes

    def parent_list(self, v: str) -> list[str]:
        return sorted(self.expanded_dag.parents(v))

    def _check_tables(self):
        for v in self.expanded_dag.nodes:
            expected = tuple(self.domains[p] for p in self.parent_list(v)) + (self.domains[v],)
            table = self.cpts[v]
            if table.shape != expected:
                raise ValueError(f"cpt for {v} has shape {table.shape}, expected {expected}")
            if not np.isfinite(table).all():
                raise ValueError(f"cpt for {v} has a non-finite entry")
            if table.min(initial=0.0) < 0:
                raise ValueError(f"cpt for {v} has a negative entry")
            sums = table.sum(axis=-1)
            if np.abs(sums - 1.0).max(initial=0.0) > _ROW_SUM_TOL:
                raise ValueError(f"cpt rows for {v} do not sum to 1")

    def validate(self):
        self._check_tables()
        if latent_project(self.expanded_dag, self.latents) != self.graph:
            raise ValueError("expanded DAG does not project back onto the model's graph")


@lru_cache(maxsize=32)
def _model_cache(graph: Admg) -> tuple[Admg, tuple[str, ...], dict]:
    """The expanded DAG and latents of ``graph``, and the models drawn on it
    so far keyed by (seed, domain_size, positivity_eps).

    Oracle sweeps draw the same seeds for every query on a graph, so models
    are kept per graph, for the 32 graphs used last.  A model whose joints
    have more than ``_KEPT_JOINT_CELLS`` cells is not kept here: it lives as
    long as its caller holds it, and keeps every joint it computes.
    """
    dag, mapping = expand_bidirected(graph)
    return dag, tuple(sorted(mapping.values())), {}


def random_scm(graph: Admg, seed: int, domain_size: int = 2, positivity_eps: float = 0.05) -> DiscreteScm:
    """Draw a random model over the graph, deterministically from the seed.

    Every node (latents included) gets ``domain_size`` states; each CPT row
    is uniform on the simplex shrunk so that all entries are at least
    ``positivity_eps``, which keeps every joint configuration possible.
    Models are read-only, and calls with equal arguments may share one.
    """
    seed, domain_size, positivity_eps = int(seed), int(domain_size), float(positivity_eps)
    if domain_size < 2:
        raise ValueError("domain_size must be at least 2")
    if not 0.0 <= positivity_eps < 1.0 / domain_size:
        raise ValueError("positivity_eps must lie in [0, 1/domain_size)")
    dag, latents, models = _model_cache(graph)
    key = (seed, domain_size, positivity_eps)
    if key in models:
        return models[key]
    domains = {v: domain_size for v in dag.nodes}
    rng = np.random.default_rng(seed)
    cpts: dict[str, np.ndarray] = {}
    for v in dag.nodes:
        parents = sorted(dag.parents(v))
        rows = int(np.prod([domains[p] for p in parents])) if parents else 1
        table = rng.dirichlet(np.ones(domain_size), size=rows)
        table = positivity_eps + (1.0 - domain_size * positivity_eps) * table
        shape = tuple(domains[p] for p in parents) + (domain_size,)
        cpts[v] = table.reshape(shape)
    scm = DiscreteScm(graph, dag, domains, cpts, latents, seed=seed)
    if domain_size ** len(graph.nodes) <= _KEPT_JOINT_CELLS:
        models[key] = scm
    return scm


def _guard(cells: int):
    if cells > STATE_SPACE_LIMIT:
        raise StateSpaceError(f"state space of {cells} cells exceeds the limit of {STATE_SPACE_LIMIT}")


def _post_joint(scm: DiscreteScm, treatments) -> tuple[tuple[str, ...], np.ndarray]:
    """P(observed nodes | do(X = x)) for every treatment value x at once.

    The product of every table except the treatments' keeps one axis per
    observed node (name-sorted, treatments included) with the latents summed
    out; its slice at each x sums to one.  Read-only.  A model whose joints
    have at most ``_KEPT_JOINT_CELLS`` cells (one :func:`random_scm` keeps)
    holds its observational joint and interventional ones while their cells
    total at most that, dropping the oldest first; a larger one holds all.
    """
    treatments = tuple(sorted(treatments))
    key = ("post", treatments)
    if key not in scm._cache:
        for v in treatments:
            if v not in scm.observed:
                raise ValueError(f"cannot intervene on {v}: not an observed node")
        names = sorted(scm.domains)
        pos = {n: i for i, n in enumerate(names)}
        _guard(math.prod(scm.domains.values()))
        acc = np.ones([scm.domains[n] for n in names])
        for v in names:
            if v in treatments:
                continue
            axes = scm.parent_list(v) + [v]
            order = sorted(range(len(axes)), key=lambda i: pos[axes[i]])
            shape = [1] * len(names)
            for n in axes:
                shape[pos[n]] = scm.domains[n]
            acc = acc * np.transpose(scm.cpts[v], order).reshape(shape)
        acc = acc.sum(axis=tuple(pos[u] for u in scm.latents))
        observed = tuple(n for n in names if n not in scm.latents)
        acc = acc / acc.sum(axis=tuple(i for i, n in enumerate(observed) if n not in treatments), keepdims=True)
        acc.flags.writeable = False
        if treatments and acc.size <= _KEPT_JOINT_CELLS:
            held = [k for k in scm._cache if k[1]]
            while acc.size + sum(scm._cache[k][1].size for k in held) > _KEPT_JOINT_CELLS:
                del scm._cache[held.pop(0)]
        scm._cache[key] = (observed, acc)
    return scm._cache[key]


def _marginal(names, probs: np.ndarray, keep) -> np.ndarray:
    """``probs`` summed over the axes not in ``keep``, axes in the order of ``keep``."""
    rest = [n for n in names if n in keep]
    summed = probs.sum(axis=tuple(i for i, n in enumerate(names) if n not in keep))
    return np.transpose(summed, [rest.index(n) for n in keep])


def _check_values(names, sizes, x: Mapping[str, int]):
    unknown = [v for v in x if v not in names]
    if unknown:
        raise ValueError(f"variables not in distribution: {sorted(unknown)}")
    for v, val in x.items():
        if not 0 <= val < sizes[names.index(v)]:
            raise ValueError(f"value {val} out of domain for {v}")


def joint_observed(scm: DiscreteScm) -> Dist:
    """Exact observational joint over the graph's nodes, latents summed out."""
    names, probs = _post_joint(scm, ())
    return Dist(names, probs.shape, probs)


def interventional(scm: DiscreteScm, x: Mapping[str, int], outcomes) -> Dist:
    """Ground-truth P(outcomes | do(x)) by truncated factorization.

    With ``x`` empty this reproduces observational marginals exactly, cell
    for cell, because the same summation runs in both cases.
    """
    outcomes = _node_set(outcomes)
    if not outcomes:
        raise ValueError("outcomes must be nonempty")
    overlap = outcomes & frozenset(x)
    if overlap:
        raise ValueError(f"outcomes overlap the intervention: {sorted(overlap)}")
    for v in outcomes:
        if v not in scm.observed:
            raise ValueError(f"unknown outcome node: {v}")
    names, probs = _post_joint(scm, x)
    _check_values(names, probs.shape, x)
    xs, ys = sorted(x), sorted(outcomes)
    arr = _marginal(names, probs, xs + ys)[tuple(x[v] for v in xs)]
    return Dist(ys, arr.shape, arr)


def _estimand(names, joint: np.ndarray, xs, ys, zs, at=None) -> np.ndarray:
    """The adjustment functional sum_z P(y | x, z) P(z) over axes xs + ys,
    for every treatment value x at once, or with ``at`` (one value per
    treatment) for that x alone on length-one treatment axes.

    Covariate cells with P(z) = 0 are skipped; a cell with P(z) > 0 but
    P(x, z) = 0 raises :class:`PositivityError` naming the first such cell
    of the first such x in product order.
    """
    nx, nxy = len(xs), len(xs) + len(ys)
    pxyz = _marginal(names, joint, xs + ys + zs)
    pz = pxyz.sum(axis=tuple(range(nxy)))
    if at is not None:
        pxyz = pxyz[tuple(slice(v, v + 1) for v in at)]
    pxz = pxyz.sum(axis=tuple(range(nx, nxy)))
    bad = (pz > 0) & (pxz <= 0)
    if bad.any():
        raise PositivityError(dict(zip(zs, np.argwhere(bad)[0][nx:].tolist())))
    ratio = np.divide(pz, pxz, out=np.zeros(pxz.shape), where=pxz > 0)
    weighted = pxyz * ratio.reshape(pxz.shape[:nx] + (1,) * len(ys) + pxz.shape[nx:])
    return weighted.sum(axis=tuple(range(nxy, weighted.ndim)))


def adjustment_estimand(dist: Dist, x: Mapping[str, int], outcomes, covariates) -> Dist:
    """The adjustment functional sum_z P(y | x, z) P(z) from an observed joint.

    Covariate cells with P(z) = 0 are skipped; a cell with P(z) > 0 but
    P(x, z) = 0 raises :class:`PositivityError` naming the cell.
    """
    x = dict(x)
    query = AdjustmentQuery(frozenset(x), outcomes, covariates)
    missing = (query.treatments | query.outcomes | query.covariates) - frozenset(dist.names)
    if missing:
        raise ValueError(f"variables not in distribution: {sorted(missing)}")
    _check_values(dist.names, dist.sizes, x)
    xs, ys = sorted(x), sorted(query.outcomes)
    arr = _estimand(dist.names, dist.probs, xs, ys, sorted(query.covariates), [x[v] for v in xs])[(0,) * len(xs)]
    return Dist(ys, arr.shape, arr)


def _world_label(node: str, intervention: Mapping[str, int]) -> str:
    if not intervention:
        return node
    inside = ",".join(f"{k}={v}" for k, v in sorted(intervention.items()))
    return f"{node}@do({inside})"


def counterfactual_joint(scm: DiscreteScm, terms) -> Dist:
    """Exact joint over counterfactual terms.

    ``terms`` is an iterable of ``(node, intervention)`` pairs; an empty or
    ``None`` intervention denotes the factual world.  Terms from worlds that
    share an intervention live in the same world.  Across worlds each node
    keeps one uniform response variable: given a parent row, the node's value
    is the inverse CDF of its table row at that response (domain order fixes
    the inversion).  A configuration's weight is then the measure of responses
    consistent with every world at once, so any single world reproduces the
    plain table semantics while cross-world behavior is pinned down
    canonically.  This is one functionalization among many consistent with
    the tables; independence claims tested elsewhere hold for all of them.

    The weights are computed at once on a grid with one axis per latent and
    per node left free in each world: a node's factor is the length of the
    intersection of its response intervals over the worlds that do not
    intervene on it.
    """
    parsed: list[tuple[str, tuple[tuple[str, int], ...]]] = []
    for node, intervention in terms:
        if node not in scm.observed:
            raise ValueError(f"unknown term node: {node}")
        items = tuple(sorted((intervention or {}).items()))
        for k, val in items:
            if k not in scm.observed:
                raise ValueError(f"cannot intervene on {k}: not an observed node")
            if not 0 <= val < scm.domains[k]:
                raise ValueError(f"value {val} out of domain for {k}")
        parsed.append((node, items))
    if not parsed:
        raise ValueError("at least one term is required")
    by_label: dict[str, tuple[str, tuple[tuple[str, int], ...]]] = {}
    for node, items in parsed:
        label = _world_label(node, dict(items))
        if label in by_label:
            raise ValueError(f"duplicate counterfactual term: {label}")
        by_label[label] = (node, items)

    worlds = sorted({items for _, items in parsed})
    intervened = [frozenset(dict(items)) for items in worlds]
    free = [(w, v) for w in range(len(worlds)) for v in scm.observed if v not in intervened[w]]
    sizes = [scm.domains[u] for u in scm.latents] + [scm.domains[v] for _, v in free]
    _guard(math.prod(sizes))

    # values[w][v] is v's value in world w: an intervention's constant, or
    # an index array along v's own grid axis (latents share theirs).
    grid = np.ix_(*[np.arange(s) for s in sizes])
    axis = {wv: len(scm.latents) + i for i, wv in enumerate(free)}
    values = [{**dict(zip(scm.latents, grid)), **dict(items)} for items in worlds]
    for (w, v), i in axis.items():
        values[w][v] = grid[i]
    p = np.ones(sizes)
    for u, g in zip(scm.latents, grid):
        p = p * scm.cpts[u][g]
    for v in scm.observed:
        # cum[row + (c,)] is P(v < c | row); the response interval for value
        # c under that row is [cum[row + (c,)], cum[row + (c + 1,)]).
        cum = np.concatenate([np.zeros(scm.cpts[v].shape[:-1] + (1,)), np.cumsum(scm.cpts[v], axis=-1)], axis=-1)
        lo, hi = 0.0, 1.0
        for w, world in enumerate(values):
            if v in intervened[w]:
                continue  # clamped by the intervention, no mechanism factor
            row = tuple(world[q] for q in scm.parent_list(v))
            lo = np.maximum(lo, cum[row + (world[v],)])
            hi = np.minimum(hi, cum[row + (world[v] + 1,)])
        p = p * np.maximum(hi - lo, 0.0)

    order = tuple(sorted(by_label))
    cells = [(worlds.index(by_label[lab][1]), by_label[lab][0]) for lab in order]
    used = {axis[c] for c in cells if c in axis}
    p = p.sum(axis=tuple(a for a in range(p.ndim) if a not in used), keepdims=True)
    probs = np.zeros(tuple(scm.domains[v] for _, v in cells))
    np.add.at(probs, tuple(np.broadcast_to(values[w][v], p.shape) for w, v in cells), p)
    return Dist(order, probs.shape, probs / probs.sum())


def independence_gap(dist: Dist, first, second, given) -> float:
    """Largest deviation from P(a, b | z) = P(a | z) P(b | z) over cells with P(z) > 0."""
    first = _node_set(first)
    second = _node_set(second)
    given = _node_set(given)
    if first & second or first & given or second & given:
        raise ValueError("sets must be pairwise disjoint")
    joint = dist.marginal(first | second | given)
    pabz = joint.probs
    a_axes = tuple(i for i, n in enumerate(joint.names) if n in first)
    b_axes = tuple(i for i, n in enumerate(joint.names) if n in second)
    paz = pabz.sum(axis=b_axes, keepdims=True)
    pbz = pabz.sum(axis=a_axes, keepdims=True)
    pz = paz.sum(axis=a_axes, keepdims=True)
    mask = np.broadcast_to(pz > 0, pabz.shape)
    num = np.abs(pabz * pz - paz * pbz)
    denom = np.broadcast_to(pz * pz, pabz.shape)
    gaps = np.zeros(pabz.shape)
    gaps[mask] = num[mask] / denom[mask]
    return float(gaps.max(initial=0.0))


@dataclass
class Counterexample:
    """A concrete model on which the adjustment functional is wrong."""

    scm: DiscreteScm
    gap: float
    x: dict[str, int]
    trial: int
    scm_seed: int

    def to_json(self) -> dict:
        return {
            "found": True,
            "trial": self.trial,
            "seed": self.scm_seed,
            "gap": self.gap,
            "x": dict(sorted(self.x.items())),
        }


@dataclass
class SoundnessReport:
    """Outcome of comparing the adjustment functional to ground truth."""

    passed: bool
    trials: int
    max_gap: float
    worst_seed: int | None
    worst_x: dict[str, int] | None
    failures: list[dict]

    def to_json(self) -> dict:
        return asdict(self)


def _gaps(scm: DiscreteScm, query: AdjustmentQuery) -> np.ndarray:
    """|estimand - truth| on one model, with one row per treatment value x
    in product order over the name-sorted treatments."""
    xs, ys, zs = (sorted(s) for s in (query.treatments, query.outcomes, query.covariates))
    estimate = _estimand(*_post_joint(scm, ()), xs, ys, zs)
    names, post = _post_joint(scm, xs)
    gaps = np.abs(estimate - _marginal(names, post, xs + ys))
    return gaps.reshape(math.prod(gaps.shape[: len(xs)]), -1)


def _x_at(scm: DiscreteScm, treatments, row: int) -> dict[str, int]:
    """The treatment value of gap row ``row``."""
    xs = sorted(treatments)
    return dict(zip(xs, map(int, np.unravel_index(row, [scm.domains[v] for v in xs]))))


def search_counterexample(
    graph: Admg,
    query: AdjustmentQuery,
    trials: int = 200,
    delta: float = 0.01,
    seed: int = 0,
    domain_size: int = 2,
    positivity_eps: float = 0.05,
) -> Counterexample | None:
    """Hunt for a model where adjusting on the covariates gets the
    interventional distribution wrong by more than ``delta`` total variation.

    Only meaningful when the criterion rejects the covariates; refuses
    otherwise.  Trial ``i`` uses model seed ``seed + i``, so reported
    witnesses are reproducible.
    """
    if trials < 1 or not delta >= 0:
        raise ValueError("trials must be at least 1 and delta non-negative")
    if adjustment_criterion(graph, query).holds:
        raise ValueError("the adjustment criterion holds; there is no counterexample to search for")
    for trial in range(trials):
        scm = random_scm(graph, seed + trial, domain_size, positivity_eps)
        tv = 0.5 * _gaps(scm, query).sum(axis=1)
        worst = int(tv.argmax())  # the first of equal gaps, as a strict scan keeps
        if tv[worst] > delta:
            return Counterexample(scm, float(tv[worst]), _x_at(scm, query.treatments, worst), trial, seed + trial)
    return None


def verify_soundness(
    graph: Admg,
    query: AdjustmentQuery,
    trials: int = 100,
    tol: float = 1e-9,
    seed: int = 0,
    domain_size: int = 2,
    positivity_eps: float = 0.05,
) -> SoundnessReport:
    """Check that the adjustment functional matches ground truth cell by cell
    on ``trials`` random models.  Refuses queries the criterion rejects.
    """
    if trials < 1 or not tol >= 0:
        raise ValueError("trials must be at least 1 and tol non-negative")
    if not adjustment_criterion(graph, query).holds:
        raise ValueError("the adjustment criterion fails; soundness verification is undefined")
    max_gap, worst_seed, worst_x = 0.0, None, None
    failures: list[dict] = []
    for trial in range(trials):
        scm = random_scm(graph, seed + trial, domain_size, positivity_eps)
        gaps = _gaps(scm, query).max(axis=1)
        worst = int(gaps.argmax())  # the first of equal gaps, as a strict scan keeps
        if gaps[worst] > max_gap:
            max_gap, worst_seed, worst_x = float(gaps[worst]), seed + trial, _x_at(scm, query.treatments, worst)
        for row in np.flatnonzero(gaps > tol):
            failures.append({"seed": seed + trial, "x": _x_at(scm, query.treatments, row), "gap": float(gaps[row])})
    return SoundnessReport(not failures, trials, max_gap, worst_seed, worst_x, failures)


def scm_to_json(scm: DiscreteScm) -> dict:
    """Serialize a model: nodes, domains, parents, CPT rows in row-major
    order of the name-sorted parents."""
    return {
        "nodes": list(scm.expanded_dag.nodes),
        "latents": list(scm.latents),
        "domains": {v: scm.domains[v] for v in scm.expanded_dag.nodes},
        "parents": {v: scm.parent_list(v) for v in scm.expanded_dag.nodes},
        "cpt": {v: scm.cpts[v].reshape(-1).tolist() for v in scm.expanded_dag.nodes},
        "seed": scm.seed,
    }


def scm_from_json(doc: dict) -> DiscreteScm:
    """Rebuild a model serialized by :func:`scm_to_json`."""
    nodes = tuple(doc["nodes"])
    latents = tuple(doc["latents"])
    domains = {v: int(doc["domains"][v]) for v in nodes}
    directed = frozenset(
        (p, v) for v in nodes for p in doc["parents"][v]
    )
    dag = Admg(nodes, directed, frozenset())
    cpts = {}
    for v in nodes:
        parents = sorted(dag.parents(v))
        if parents != list(doc["parents"][v]):
            raise ValueError(f"parents of {v} must be name-sorted in the document")
        shape = tuple(domains[p] for p in parents) + (domains[v],)
        cpts[v] = np.asarray(doc["cpt"][v], dtype=float).reshape(shape)
    graph = latent_project(dag, latents)
    scm = DiscreteScm(graph, dag, domains, cpts, latents, seed=doc.get("seed"))
    scm._check_tables()  # the graph is the DAG's projection by construction
    return scm
