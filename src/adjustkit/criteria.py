"""Graphical validity tests for covariate adjustment.

The central question: given treatments X, outcomes Y, and candidate
covariates Z in a mixed graph, does conditioning on Z turn the observed
conditional distribution into the post-intervention one?  The adjustment
criterion here answers it exactly:

1. no covariate may descend, once edges into X are cut, from a non-treatment
   node sitting on a proper causal path from X to Y, and
2. every non-causal path from X to Y must be blocked by Z.

The back-door criterion is the classic sufficient test; the magnification
check is an equivalent formulation that trades counterfactual reasoning for
auxiliary nodes spliced into the graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from itertools import combinations
from typing import NamedTuple, Union

from .graph import (
    HEAD,
    TAIL,
    Admg,
    GraphError,
    NodeSet,
    _closure,
    _cut_ancestors,
    _node_names,
    _node_set,
    _pair_name,
    _proper_causal,
    _splice_latents,
)
from . import separation
from .separation import (
    Path,
    _decide,
    _disjoint_sets,
    _path_key,
    _view,
    enumerate_paths,
    path_blocked,
    path_from_string,
)

__all__ = [
    "AdjustmentQuery",
    "CriterionVerdict",
    "ForbiddenDescendant",
    "OpenBackdoorPath",
    "OpenNonCausalPath",
    "TreatmentDescendant",
    "adjustment_criterion",
    "backdoor_criterion",
    "canonical_adjustment_set",
    "enumerate_adjustment_sets",
    "exists_adjustment_set",
    "helper_conditioning_set",
    "magnification_check",
    "magnify",
    "proper_backdoor_graph",
    "strip_to_backdoor",
    "verdict_from_json",
    "verdict_to_json",
]


@dataclass(frozen=True)
class AdjustmentQuery:
    """Treatments, outcomes, and candidate covariates; sets must be disjoint."""

    treatments: frozenset[str]
    outcomes: frozenset[str]
    covariates: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "treatments", _node_set(self.treatments))
        object.__setattr__(self, "outcomes", _node_set(self.outcomes))
        object.__setattr__(self, "covariates", _node_set(self.covariates))
        if not self.treatments or not self.outcomes:
            raise ValueError("treatment and outcome sets must be nonempty")
        if (
            self.treatments & self.outcomes
            or self.treatments & self.covariates
            or self.outcomes & self.covariates
        ):
            raise ValueError("treatments, outcomes, and covariates must be pairwise disjoint")


@dataclass(frozen=True)
class ForbiddenDescendant:
    """A covariate descends (post-intervention) from a node on a proper causal path."""

    offender: str
    causal_node: str


@dataclass(frozen=True)
class OpenNonCausalPath:
    """A non-causal path from treatments to outcomes stays open given the covariates."""

    path: Path


@dataclass(frozen=True)
class TreatmentDescendant:
    """A covariate is a descendant of the treatment set."""

    offender: str


@dataclass(frozen=True)
class OpenBackdoorPath:
    """A path starting with an arrowhead at the treatments stays open."""

    path: Path


Failure = Union[ForbiddenDescendant, OpenNonCausalPath, TreatmentDescendant, OpenBackdoorPath]


@dataclass(frozen=True)
class CriterionVerdict:
    holds: bool
    failure: Failure | None = None

    @property
    def witness_path(self) -> Path | None:
        return getattr(self.failure, "path", None)


def _checked_query(graph: Admg, query: AdjustmentQuery) -> AdjustmentQuery:
    graph.node_subset(query.treatments | query.outcomes | query.covariates)
    return query


def backdoor_criterion(graph: Admg, query: AdjustmentQuery) -> CriterionVerdict:
    """Classic sufficient test: no covariate descends from the treatments,
    and the covariates block every path into the back of the treatment set.
    """
    _checked_query(graph, query)
    x, y, z = query.treatments, query.outcomes, query.covariates
    x_desc = _closure(x, graph._children.__getitem__)
    offenders = sorted(z & x_desc)
    if offenders:
        return CriterionVerdict(False, TreatmentDescendant(offenders[0]))
    verdict = _decide(_view(graph), x, y, z, x_desc)  # as in ``cut_outgoing(graph, x)``
    if verdict.separated:
        return CriterionVerdict(True)
    return CriterionVerdict(False, OpenBackdoorPath(verdict.witness))


def _is_causal(path: Path) -> bool:
    return all(s.source_mark == TAIL and s.target_mark == HEAD for s in path.steps)


class _Split(NamedTuple):
    """What every adjustment test of one (treatments, outcomes) pair shares."""

    view: tuple  # ``separation._view`` of the graph, swept without the edges from the treatments into ``amenable``
    treatments: NodeSet
    outcomes: NodeSet
    amenable: NodeSet  # proper causal nodes outside the treatments
    forbidden: NodeSet  # descendants of ``amenable`` once edges into the treatments are cut

    def admits(self, covariates: NodeSet) -> bool:
        """The adjustment criterion's decision, without a witness."""
        if covariates & self.forbidden:
            return False
        return _decide(self.view, self.treatments, self.outcomes, covariates, self.amenable).separated


def _split(graph: Admg, query: AdjustmentQuery) -> _Split:
    """The split of a query that :func:`_checked_query` passed."""
    treatments, outcomes = query.treatments, query.outcomes
    amenable = _proper_causal(graph, treatments, outcomes) - treatments
    forbidden = _closure(amenable, lambda v: graph._children[v] - treatments)
    return _Split(_view(graph), treatments, outcomes, amenable, forbidden)


def proper_backdoor_graph(graph: Admg, treatments, outcomes) -> Admg:
    """Remove the first edge of every proper causal path from the treatments."""
    query = _checked_query(graph, AdjustmentQuery(treatments, outcomes))
    amenable = _proper_causal(graph, query.treatments, query.outcomes) - query.treatments
    drop = {(a, b) for a in query.treatments for b in graph._children[a] & amenable}
    return graph._edit(drop_directed=drop) if drop else graph


def adjustment_criterion(graph: Admg, query: AdjustmentQuery, mode: str = "fast") -> CriterionVerdict:
    """Complete test for covariate-adjustment validity.

    ``fast`` decides the path condition by separation in the proper
    back-door graph; ``reference`` enumerates every non-causal path and
    checks blocking directly.  Both return the same ``holds``.
    """
    if mode not in ("fast", "reference"):
        raise ValueError(f"unknown mode: {mode!r}")
    split = _split(graph, _checked_query(graph, query))
    x, y, z = query.treatments, query.outcomes, query.covariates
    offenders = sorted(z & split.forbidden)
    if offenders:
        offender = offenders[0]
        causal_node = min(split.amenable & _cut_ancestors(graph, {offender}, x))
        return CriterionVerdict(False, ForbiddenDescendant(offender, causal_node))

    if mode == "reference":
        open_paths = [
            p
            for p in enumerate_paths(graph, x, y)
            if not _is_causal(p) and not path_blocked(graph, p, z)
        ]
        if open_paths:
            return CriterionVerdict(False, OpenNonCausalPath(min(open_paths, key=_path_key)))
        return CriterionVerdict(True)

    verdict = _decide(split.view, x, y, z, split.amenable)
    if verdict.separated:
        return CriterionVerdict(True)
    return CriterionVerdict(False, OpenNonCausalPath(verdict.witness))


def strip_to_backdoor(graph: Admg, query: AdjustmentQuery) -> frozenset[str]:
    """Drop treatment descendants from the covariates.

    When the adjustment criterion holds for the original covariates, the
    stripped set satisfies the back-door criterion.
    """
    _checked_query(graph, query)
    return query.covariates - _closure(query.treatments, graph._children.__getitem__)


def _canonical(graph: Admg, treatments: NodeSet, outcomes: NodeSet, causal: NodeSet) -> frozenset[str]:
    # ``causal`` may be the proper causal nodes or ``_Split.amenable``: they
    # differ only inside the treatments, which are subtracted anyway
    return _closure(treatments | outcomes, graph._parents.__getitem__) - treatments - outcomes - causal


def canonical_adjustment_set(graph: Admg, treatments, outcomes) -> frozenset[str]:
    """Ancestors of treatments or outcomes, minus both sets and minus every
    node on a proper causal path.  Valid whenever any valid set exists.
    """
    query = _checked_query(graph, AdjustmentQuery(treatments, outcomes))
    x, y = query.treatments, query.outcomes
    return _canonical(graph, x, y, _proper_causal(graph, x, y))


def exists_adjustment_set(graph: Admg, treatments, outcomes) -> bool:
    """Whether any covariate set makes adjustment valid for this pair."""
    split = _split(graph, _checked_query(graph, AdjustmentQuery(treatments, outcomes)))
    return split.admits(_canonical(graph, split.treatments, split.outcomes, split.amenable))


def enumerate_adjustment_sets(
    graph: Admg,
    treatments,
    outcomes,
    candidates=None,
    limit: int = 16,
) -> list[frozenset[str]]:
    """Valid adjustment sets drawn from ``candidates``, smallest first
    (ties in size broken lexicographically), up to ``limit`` of them.
    """
    if limit <= 0:
        raise ValueError("limit must be positive")
    split = _split(graph, _checked_query(graph, AdjustmentQuery(treatments, outcomes)))
    if candidates is None:
        candidates = frozenset(graph.nodes) - split.treatments - split.outcomes
    else:
        candidates = graph.node_subset(candidates)
        if candidates & (split.treatments | split.outcomes):
            raise GraphError("candidates must avoid treatments and outcomes")
    # the canonical set is valid whenever any set is, so when it fails no
    # subset of any candidate pool can pass
    if not split.admits(_canonical(graph, split.treatments, split.outcomes, split.amenable)):
        return []
    pool = sorted(candidates)
    out: list[frozenset[str]] = []
    for size in range(len(pool) + 1):
        for combo in combinations(pool, size):
            if split.admits(frozenset(combo)):
                out.append(frozenset(combo))
                if len(out) >= limit:
                    return out
    return out


def magnify(graph: Admg, mediated_edges=()) -> Admg:
    """Splice auxiliary nodes into the graph.

    Every bidirected edge {A, B} becomes an explicit observable source
    ``__W_<A>_<B>`` with edges into both ends; every directed edge in
    ``mediated_edges`` is replaced by a mediator ``__C_<A>_<B>`` (endpoints
    name-sorted) sitting between tail and head.  A ``@do`` end is spelled
    ``_do`` in these names.  The result is a DAG.
    """
    mediated = {tuple(_node_names(edge)) for edge in _node_names(mediated_edges)}
    unknown = mediated - set(graph.directed)
    if unknown:  # a pair of nodes that is not an edge, or not a pair at all
        edge = " -> ".join(map(str, sorted(unknown)[0]))
        raise GraphError(f"cannot mediate {edge}: not a directed edge of the graph")
    taken = set(graph.nodes)
    sources, directed = _splice_latents(graph, "__W", taken)
    extra = list(sources.values())
    for a, b in sorted(mediated):
        c = _pair_name("__C", *sorted((a, b)), taken)
        extra.append(c)
        directed.add((a, c))
        directed.add((c, b))
    return graph._edit(drop_directed=mediated, drop_bidirected=graph.bidirected,
                       add_nodes=extra, add_directed=directed)


def _magnified_view(graph: Admg, outcomes: NodeSet):
    """``magnify(graph, out-edges of outcomes)`` as a view (``separation._sweep``): the source
    of a bidirected pair {A, B} is ``("W", A, B)``, the mediator of ``Y -> C`` is ``("C", Y, C)``."""
    def edges(v):
        if isinstance(v, tuple):  # a source or a mediator: its two edges
            kind, a, b = v
            return [(a, TAIL, HEAD), (b, TAIL, HEAD)] if kind == "W" else [(a, HEAD, TAIL), (b, TAIL, HEAD)]
        out = []
        for w, mv, mw in separation.incident_marks(graph, v):
            if mv == mw:  # both heads: the pair's source instead
                w, mw = ("W", *sorted((v, w))), TAIL
            elif (v if mv == TAIL else w) in outcomes:  # an outcome's out-edge: its mediator instead
                w = ("C", v, w) if mv == TAIL else ("C", w, v)
            out.append((w, mv, mw))
        return out

    def parents(v):
        if isinstance(v, tuple):
            return frozenset({v[1]} if v[0] == "C" else ())  # a mediator's tail
        return frozenset(("C", p, v) if p in outcomes else p for p in graph._parents[v]).union(
            ("W", *sorted((v, s))) for s in graph._spouses[v])

    return edges, parents


def _helpers(view, treatments: frozenset, below: frozenset, outcomes: frozenset, covariates: frozenset) -> frozenset:
    """:func:`helper_conditioning_set` over a view (``separation._sweep``), given the treatments' descendants."""
    edges, parents = view
    pruned = (lambda v: [m for m in edges(v) if m[0] not in treatments], lambda v: parents(v) - treatments)
    layers, _ = separation._sweep(pruned, outcomes, frozenset(), covariates)
    linked = {v for layer in layers for v, _ in layer}
    return (_closure(covariates, parents) & linked) - below - covariates - outcomes


def helper_conditioning_set(graph: Admg, treatments, outcomes, covariates) -> frozenset[str]:
    """Covariate ancestors that the treatments cannot reach but the outcomes
    can: ancestors of the covariates, outside the treatments' descendants,
    still connected to the outcomes given the covariates once the treatment
    nodes are deleted.  Covariates and outcomes themselves are excluded.
    """
    x, y, z = _disjoint_sets(graph, treatments, outcomes, covariates)
    return _helpers(_view(graph), x, _closure(x, graph._children.__getitem__), y, z)


def magnification_check(graph: Admg, query: AdjustmentQuery) -> bool:
    """Adjustment validity decided on the magnified graph.

    Mediators replace the outcomes' outgoing edges, bidirected edges become
    explicit sources, and three separation statements are checked: the
    helper set plus non-descendant covariates satisfies the back-door
    criterion, the helpers are separated from the treatments given the
    covariates, and the descendant covariates are separated from the
    outcomes given everything else.  Agrees with ``adjustment_criterion``
    on every query.
    """
    _checked_query(graph, query)
    x, y, z = query.treatments, query.outcomes, query.covariates
    view = _magnified_view(graph, y)
    below = _closure(x, graph._children.__getitem__)
    x_desc = below.union(("C", a, c) for a in y & below for c in graph._children[a])  # and the mediators below
    z_nd = z - x_desc
    z_d = z & x_desc
    helpers = _helpers(view, x, x_desc, y, z)
    # helpers and z_nd avoid the treatments' descendants by construction, so
    # the back-door test of them is its separation half alone
    if not _decide(view, x, y, helpers | z_nd, x_desc).separated:
        return False
    if helpers and not _decide(view, x, helpers, z).separated:
        return False
    if z_d and not _decide(view, y, z_d, x | z_nd | helpers).separated:
        return False
    return True


_FAILURE_KINDS = {
    ForbiddenDescendant: "forbidden_descendant",
    OpenNonCausalPath: "open_noncausal_path",
    TreatmentDescendant: "treatment_descendant",
    OpenBackdoorPath: "open_backdoor_path",
}
_FAILURE_CLASSES = {kind: cls for cls, kind in _FAILURE_KINDS.items()}


def verdict_to_json(criterion: str, verdict: CriterionVerdict) -> dict:
    """Render a verdict as the stable JSON document the CLI emits."""
    f = verdict.failure
    failure = None
    if f is not None:
        failure = {"kind": _FAILURE_KINDS[type(f)]}
        failure.update((field.name, str(getattr(f, field.name))) for field in fields(f))
    witness = verdict.witness_path
    return {
        "criterion": criterion,
        "holds": verdict.holds,
        "failure": failure,
        "witness_path": None if witness is None else str(witness),
    }


def _json_fields(doc, keys, what: str) -> list:
    """``doc[key]`` for each of ``keys``, after raising ``ValueError`` if a
    document from outside is not a JSON object or lacks one of them."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(doc).__name__}")
    for key in keys:
        if key not in doc:
            raise ValueError(f"{what} lacks the key {key!r}")
    return [doc[key] for key in keys]


def verdict_from_json(doc: dict | str) -> tuple[str, CriterionVerdict]:
    """Parse a verdict document back into objects (inverse of verdict_to_json)."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    criterion, holds = _json_fields(doc, ("criterion", "holds"), "verdict document")
    failure = None
    raw = doc.get("failure")
    if raw is not None:
        (kind,) = _json_fields(raw, ("kind",), "failure document")
        cls = _FAILURE_CLASSES.get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise ValueError(f"unknown failure kind: {kind!r}")
        names = [f.name for f in fields(cls)]
        values = _json_fields(raw, names, f"{kind} failure document")
        failure = cls(*(path_from_string(v) if name == "path" else v for name, v in zip(names, values)))
    return criterion, CriterionVerdict(holds, failure)
