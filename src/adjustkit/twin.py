"""Twin networks: a factual and a post-intervention world in one DAG.

The construction duplicates every node the intervention can reach, leaves
the rest shared between worlds, replaces bidirected edges with explicit
exogenous parents feeding both worlds, and cuts all edges into the
intervened copies.  Counterfactual independence questions then reduce to
separation queries on the combined graph, swept as a view of the original.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import separation
from .graph import HEAD, TAIL, Admg, _closure, _fresh, _graph, _splice_latents

__all__ = ["TwinGraph", "graphical_ignorability", "noise_linked", "twin_network"]

COUNTERFACTUAL_SUFFIX = "@do"


@dataclass
class TwinGraph:
    """A two-world DAG plus a name map from the original graph.

    Each original node's factual copy keeps its name; ``counterfactual_of``
    maps it to the post-intervention copy, which for nodes the intervention
    cannot reach is the single shared copy.
    """

    graph: Admg
    counterfactual_of: dict[str, str] = field(repr=False)


def twin_network(graph: Admg, treatments) -> TwinGraph:
    """Build the two-world graph for an intervention on ``treatments``.

    Descendants of the treatments get a second copy named ``<stem>@do``,
    where ``<stem>`` is the node's name without a trailing ``@do``; when that
    name is taken, underscores are appended to the stem until it is free.
    Everything else is shared.  Each bidirected edge {A, B} becomes an
    exogenous node ``__U_<A>_<B>`` (a ``@do`` end spelled ``_do``) with
    edges into A and B in both worlds, except that no edge enters a
    treatment copy: the ``@do`` copies of the treatments are parentless.
    """
    treatments = graph.node_subset(treatments)
    affected = _closure(treatments, graph._children.__getitem__)
    taken = set(graph.nodes)
    copy_of = {}
    for v in graph.nodes:
        if v in affected:
            stem = v.removesuffix(COUNTERFACTUAL_SUFFIX)
            copy_of[v] = _fresh(stem, taken, COUNTERFACTUAL_SUFFIX)
        else:
            copy_of[v] = v
    redrawn = affected - treatments  # copies that keep their parents
    directed = {(copy_of[a], copy_of[b]) for b in redrawn for a in graph._parents[b]}
    latents, edges = _splice_latents(graph, "__U", taken)
    directed |= edges
    directed |= {(u, copy_of[end]) for u, end in edges if end in redrawn}
    copies = tuple(copy_of[v] for v in graph.nodes if v in affected)
    twin = _graph(graph.nodes + copies + tuple(latents.values()), graph.directed | directed, frozenset())
    return TwinGraph(twin, copy_of)


def noise_linked(twin: TwinGraph) -> Admg:
    """The twin graph with a bidirected edge tying each duplicated node to
    its copy.

    A duplicated node and its post-intervention copy are driven by the same
    exogenous noise, so the worlds stay dependent through it even when no
    directed cross-world path exists.  ``twin_network`` leaves these links
    implicit to keep the dumped structure minimal; separation queries must
    put them back or they claim independences no model satisfies.
    Intervened copies stay unlinked: setting a node by intervention severs
    its noise along with its parents.
    """
    links = frozenset(
        tuple(sorted((v, copy)))
        for v, copy in twin.counterfactual_of.items()
        # a parentless copy is an intervened one: every other duplicated
        # node inherits at least one parent from the mutilated graph
        if copy != v and twin.graph.parents(copy)
    )
    return _graph(twin.graph.nodes, twin.graph.directed, twin.graph.bidirected | links)


def _twin_view(graph: Admg, treatments, affected):
    """``noise_linked(twin_network(graph, treatments))`` as a view (``separation._sweep``) of
    (node, world) states, each latent read as bidirected edges among its children: being
    parentless and never conditioned on, it is an open fork on every walk."""
    redrawn = affected - treatments

    def edges(state):
        v, world = state
        marks = separation.incident_marks(graph, v)
        if world and v in treatments:  # an intervened copy keeps only its edges to copies
            return [((w, 1), mv, mw) for w, mv, mw in marks if mv == TAIL and w in redrawn]
        out = [((v, 1 - world), HEAD, HEAD)] if v in redrawn else []  # the noise link
        for w, mv, mw in marks:
            if mw == TAIL:  # a parent: a copy's parents are copies where they exist
                out.append(((w, int(world and w in affected)), mv, mw))
                continue
            if not world or mv == HEAD:  # the factual end, unless it is a copy's child
                out.append(((w, 0), mv, mw))
            if w in redrawn and (world or mv == HEAD or v not in affected):  # the copy, unless below a factual twin
                out.append(((w, 1), mv, mw))
        return out

    def parents(state):
        v, world = state
        intervened = world and v in treatments
        return frozenset((p, int(world and p in affected)) for p in (() if intervened else graph._parents[v]))

    return edges, parents


def graphical_ignorability(graph: Admg, query) -> bool:
    """Whether the post-intervention outcomes are separated from the
    treatments by the covariates, read off the twin network.

    True exactly when the adjustment criterion accepts the covariates.
    """
    x, y, z = query.treatments, query.outcomes, query.covariates
    graph.node_subset(x | y | z)
    affected = _closure(x, graph._children.__getitem__)
    x0, z0 = (frozenset((v, 0) for v in s) for s in (x, z))
    y1 = frozenset((v, int(v in affected)) for v in y)  # the outcomes' @do copies, where they exist
    return separation._decide(_twin_view(graph, x, affected), x0, y1, z0).separated
