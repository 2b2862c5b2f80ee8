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

A model is its tables and holds no joint or other mutable state, so
callers may share one; every joint is computed from the tables when asked
for.  :func:`random_scm` keeps recent models whose tables are small.

``verify_soundness`` and ``search_counterexample`` evaluate their trials in
blocks: the tables of a block's models are stacked on a leading axis, and
one product, one estimand and one comparison serve the whole block.  A
block holds at most ``_HELD_CELLS`` cells of joints (one trial when a
single model's joint is larger).  Verification takes the largest blocks
that fit; the counterexample search, which stops at its first find, starts
with one trial and doubles the block each time.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .criteria import AdjustmentQuery, _json_fields, adjustment_criterion
from .graph import Admg, _integers, _node_names, _node_set, expand_bidirected, latent_project

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
# The cells one held set of arrays may have: the tables of a model that
# random_scm keeps, and the joints of one block of trials in _trials
_HELD_CELLS = 1 << 13
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
        _check_values(self.names, self.sizes, assignment)
        out = Dist.__new__(Dist)
        out.names = tuple(n for n in self.names if n not in assignment)
        out.probs = self.probs[tuple(assignment.get(n, slice(None)) for n in self.names)].copy()
        out.sizes = out.probs.shape
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
    Models are read-only values that hold nothing but these fields:
    ``domains`` and ``cpts`` are mapping proxies over copies of what was
    passed in and every table is a read-only array, so a model handed out
    by :func:`random_scm` can be shared safely, across threads too.
    """

    graph: Admg
    expanded_dag: Admg
    domains: Mapping[str, int]
    cpts: Mapping[str, np.ndarray]
    latents: tuple[str, ...]
    seed: int | None = None

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
def _expanded(graph: Admg) -> tuple[Admg, tuple[str, ...], int]:
    """The expanded DAG of ``graph``, its latents and the most axes of any of
    its tables (one more than the largest in-degree), kept for the 32 graphs
    used last."""
    dag, mapping = expand_bidirected(graph)
    return dag, tuple(sorted(mapping.values())), 1 + max(map(len, dag._parents.values()), default=0)


def _draw(graph: Admg, seed: int, domain_size: int, positivity_eps: float) -> DiscreteScm:
    """The model :func:`random_scm` describes, drawn afresh; ``_kept`` keeps the 512 drawn last."""
    dag, latents, _ = _expanded(graph)
    rng = np.random.default_rng(seed)
    cpts: dict[str, np.ndarray] = {}
    for v in dag.nodes:
        rows = (domain_size,) * len(dag._parents[v])
        _guard(math.prod(rows) * domain_size)
        cpts[v] = positivity_eps + (1.0 - domain_size * positivity_eps) * rng.dirichlet(np.ones(domain_size), rows)
    return DiscreteScm(graph, dag, dict.fromkeys(dag.nodes, domain_size), cpts, latents, seed=seed)


# 512 models hit as often as an unbounded table on oracle sweeps, which draw
# the same 20 or 200 seeds for every query of a graph: at most 32 MB of tables
_kept = lru_cache(maxsize=512)(_draw)


def _reals(**values) -> list[float]:
    """``values`` as floats, refusing any that is not a real number; a ``bool`` or a ``str`` is none here."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
            raise ValueError(f"value {value!r} for {name} is not a real number")
    return [float(value) for value in values.values()]


def random_scm(graph: Admg, seed: int, domain_size: int = 2, positivity_eps: float = 0.05) -> DiscreteScm:
    """Draw a random model over the graph, deterministically from the seed.

    Every node (latents included) gets ``domain_size`` states; each CPT row
    is uniform on the simplex shrunk so that all entries are at least
    ``positivity_eps``, which keeps every joint configuration possible.
    Models hold their tables and no joint or other mutable state, and calls
    with equal arguments may share one: the 512 models asked for last whose
    tables have at most ``_HELD_CELLS`` cells (bounded as the node count
    times the largest table) are kept; a larger one is drawn for every call.
    """
    seed, domain_size = _integers(seed=seed, domain_size=domain_size)
    (positivity_eps,) = _reals(positivity_eps=positivity_eps)
    if domain_size < 2:
        raise ValueError("domain_size must be at least 2")
    if not 0.0 <= positivity_eps < 1.0 / domain_size:
        raise ValueError("positivity_eps must lie in [0, 1/domain_size)")
    dag, _, axes = _expanded(graph)
    kept = len(dag.nodes) * domain_size**axes <= _HELD_CELLS
    return (_kept if kept else _draw)(graph, seed, domain_size, positivity_eps)


def _guard(cells: int):
    if cells > STATE_SPACE_LIMIT:
        raise StateSpaceError(f"state space of {cells} cells exceeds the limit of {STATE_SPACE_LIMIT}")


def _stack(models) -> dict[str, np.ndarray]:
    """Each node's table of every model in ``models``, stacked on a leading axis."""
    return {v: np.array([m.cpts[v] for m in models]) for v in models[0].cpts}


def _product(models, tables: Mapping[str, np.ndarray], treatments) -> tuple[tuple[str, ...], np.ndarray]:
    """P(observed nodes | do(X = x)) for every treatment value x, for each of ``models`` at once.

    ``tables`` is ``_stack(models)``; the models share one expanded DAG and
    its domains, and hold only their tables, so the joints are the caller's
    and no model keeps one.  The product of every table except the
    treatments', taken in name order, keeps a leading axis over the models
    and one axis per observed node (name-sorted, treatments included) with
    the latents summed out; each model's slice at each x sums to one, and
    rounds as it does in a product of that model alone.
    """
    scm = models[0]
    names = sorted(scm.domains)
    pos = {n: i + 1 for i, n in enumerate(names)}
    _guard(math.prod(scm.domains.values()))
    acc = np.ones([len(models)] + [scm.domains[n] for n in names])
    for v in names:
        if v in treatments:
            continue
        axes = scm.parent_list(v) + [v]
        order = [0] + sorted(range(1, len(axes) + 1), key=lambda i: pos[axes[i - 1]])
        shape = [len(models)] + [1] * len(names)
        for n in axes:
            shape[pos[n]] = scm.domains[n]
        acc = acc * np.transpose(tables[v], order).reshape(shape)
    acc = acc.sum(axis=tuple(pos[u] for u in scm.latents))
    observed = tuple(n for n in names if n not in scm.latents)
    return observed, acc / acc.sum(axis=tuple(i + 1 for i, n in enumerate(observed) if n not in treatments), keepdims=True)


def _one(scm: DiscreteScm, treatments) -> tuple[tuple[str, ...], np.ndarray]:
    """``_product`` of the one model ``scm``, without the leading model axis."""
    names, probs = _product([scm], _stack([scm]), treatments)
    return names, probs[0]


def _marginal(names, probs: np.ndarray, keep) -> np.ndarray:
    """``probs`` summed over the axes not in ``keep``, axes in the order of ``keep``;
    axes before those of ``names`` (a stack of models) stay in front."""
    lead = probs.ndim - len(names)
    rest = [n for n in names if n in keep]
    summed = probs.sum(axis=tuple(lead + i for i, n in enumerate(names) if n not in keep))
    return np.transpose(summed, [*range(lead), *(lead + rest.index(n) for n in keep)])


def _check_values(names, sizes, x: Mapping[str, int]):
    """Refuse unknown variables and values outside their integer domains."""
    unknown = [v for v in x if v not in names]
    if unknown:
        raise ValueError(f"variables not in distribution: {sorted(unknown)}")
    _integers(**x)
    for v, val in x.items():
        if not 0 <= val < sizes[names.index(v)]:
            raise ValueError(f"value {val} out of domain for {v}")


def joint_observed(scm: DiscreteScm) -> Dist:
    """Exact observational joint over the graph's nodes, latents summed out."""
    names, probs = _one(scm, ())
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
    for v in x:
        if v not in scm.observed:
            raise ValueError(f"cannot intervene on {v}: not an observed node")
    names, probs = _one(scm, x)
    _check_values(names, probs.shape, x)
    xs, ys = sorted(x), sorted(outcomes)
    arr = _marginal(names, probs, xs + ys)[tuple(x[v] for v in xs)]
    return Dist(ys, arr.shape, arr)


def _estimand(names, joint: np.ndarray, xs, ys, zs, at=None) -> np.ndarray:
    """The adjustment functional sum_z P(y | x, z) P(z) over axes xs + ys,
    for every treatment value x at once, or with ``at`` (one value per
    treatment) for that x alone on length-one treatment axes.  A joint with
    a leading axis over a stack of models gives the functional of each.

    Covariate cells with P(z) = 0 are skipped; a cell with P(z) > 0 but
    P(x, z) = 0 raises :class:`PositivityError` naming the first such cell
    of the first such x in product order, of the first such model.
    """
    lead = joint.ndim - len(names)
    nx, nxy = lead + len(xs), lead + len(xs) + len(ys)
    pxyz = _marginal(names, joint, xs + ys + zs)
    pz = pxyz.sum(axis=tuple(range(lead, nxy)))
    if at is not None:
        pxyz = pxyz[(slice(None),) * lead + tuple(slice(v, v + 1) for v in at)]
    pxz = pxyz.sum(axis=tuple(range(nx, nxy)))
    pz = pz.reshape(pz.shape[:lead] + (1,) * len(xs) + pz.shape[lead:])
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
    observed_sizes = [scm.domains[v] for v in scm.observed]
    for node, intervention in terms:
        if node not in scm.observed:
            raise ValueError(f"unknown term node: {node}")
        items = tuple(sorted((intervention or {}).items()))
        for k, _ in items:
            if k not in scm.observed:
                raise ValueError(f"cannot intervene on {k}: not an observed node")
        _check_values(scm.observed, observed_sizes, dict(items))
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


def _block(models, xs, ys, zs) -> np.ndarray:
    """|estimand - truth| on each of ``models``: one row per treatment value x
    in product order over the name-sorted treatments ``xs``, per model."""
    tables = _stack(models)
    estimate = _estimand(*_product(models, tables, ()), xs, ys, zs)
    names, post = _product(models, tables, xs)
    gaps = np.abs(estimate - _marginal(names, post, xs + ys))
    return gaps.reshape(len(models), math.prod(gaps.shape[1 : 1 + len(xs)]), -1)


def _trials(graph: Admg, query: AdjustmentQuery, trials: int, seed: int, domain_size: int, positivity_eps, first: int):
    """The trials in blocks: per block, the model seed of its first trial, its
    models and ``_block`` of them.  Trial ``i`` draws model seed ``seed + i``
    through :func:`random_scm`.

    The first block has ``first`` trials and each later one twice as many,
    never more than fit ``_HELD_CELLS`` cells of joints (one trial when
    a single model's joint is larger).  A block in which a model breaks
    positivity is evaluated again one model at a time, so that the trials
    before that model still come out and it raises at its own trial.
    """
    xs, ys, zs = (sorted(s) for s in (query.treatments, query.outcomes, query.covariates))
    # random_scm refuses a domain below 2 at the first draw
    cap = max(1, _HELD_CELLS // max(domain_size, 2) ** len(_expanded(graph)[0].nodes))
    size, start, stop = min(first, cap), seed, seed + trials
    while start < stop:
        models = [random_scm(graph, s, domain_size, positivity_eps) for s in range(start, min(start + size, stop))]
        try:
            gaps = _block(models, xs, ys, zs)
        except PositivityError:
            if len(models) == 1:
                raise
            for i, scm in enumerate(models):
                yield start + i, [scm], _block([scm], xs, ys, zs)
        else:
            yield start, models, gaps
        start, size = start + len(models), min(2 * size, cap)


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
    trials, seed, domain_size = _integers(trials=trials, seed=seed, domain_size=domain_size)
    delta, positivity_eps = _reals(delta=delta, positivity_eps=positivity_eps)
    if trials < 1 or not delta >= 0:
        raise ValueError("trials must be at least 1 and delta non-negative")
    if adjustment_criterion(graph, query).holds:
        raise ValueError("the adjustment criterion holds; there is no counterexample to search for")
    for start, models, gaps in _trials(graph, query, trials, seed, domain_size, positivity_eps, 1):
        tv = 0.5 * gaps.sum(axis=2)
        over = np.flatnonzero(tv.max(axis=1) > delta)
        if over.size:
            i = int(over[0])
            worst = int(tv[i].argmax())  # the first of equal gaps, as a strict scan keeps
            scm = models[i]
            return Counterexample(scm, float(tv[i, worst]), _x_at(scm, query.treatments, worst), start + i - seed, start + i)
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
    trials, seed, domain_size = _integers(trials=trials, seed=seed, domain_size=domain_size)
    tol, positivity_eps = _reals(tol=tol, positivity_eps=positivity_eps)
    if trials < 1 or not tol >= 0:
        raise ValueError("trials must be at least 1 and tol non-negative")
    if not adjustment_criterion(graph, query).holds:
        raise ValueError("the adjustment criterion fails; soundness verification is undefined")
    max_gap, worst_seed, worst_x = 0.0, None, None
    failures: list[dict] = []
    for start, models, gaps in _trials(graph, query, trials, seed, domain_size, positivity_eps, trials):
        gaps = gaps.max(axis=2)
        # the first of equal gaps in trial, then treatment order, as a strict scan keeps
        i, worst = map(int, np.unravel_index(gaps.argmax(), gaps.shape))
        if gaps[i, worst] > max_gap:
            max_gap, worst_seed, worst_x = float(gaps[i, worst]), start + i, _x_at(models[i], query.treatments, worst)
        for i, row in np.argwhere(gaps > tol).tolist():
            failures.append({"seed": start + i, "x": _x_at(models[i], query.treatments, row), "gap": float(gaps[i, row])})
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
    nodes, latents, domains, parents, cpt = _json_fields(
        doc, ("nodes", "latents", "domains", "parents", "cpt"), "model document")
    nodes, latents = tuple(_node_names(nodes)), tuple(_node_names(latents))
    sizes = _json_fields(domains, nodes, "domains")
    domains = dict(zip(nodes, _integers(**{f"the domain of {v}": d for v, d in zip(nodes, sizes)})))
    parents = dict(zip(nodes, map(_node_names, _json_fields(parents, nodes, "parents"))))
    cpt = dict(zip(nodes, _json_fields(cpt, nodes, "cpt")))
    directed = frozenset((p, v) for v in nodes for p in parents[v])
    dag = Admg(nodes, directed, frozenset())
    cpts = {}
    for v in nodes:
        if sorted(dag.parents(v)) != list(parents[v]):
            raise ValueError(f"parents of {v} must be name-sorted in the document")
        shape = tuple(domains[p] for p in parents[v]) + (domains[v],)
        cpts[v] = np.asarray(cpt[v], dtype=float).reshape(shape)
    graph = latent_project(dag, latents)
    seed = doc.get("seed")
    scm = DiscreteScm(graph, dag, domains, cpts, latents, seed=None if seed is None else _integers(seed=seed)[0])
    scm._check_tables()  # the graph is the DAG's projection by construction
    return scm
