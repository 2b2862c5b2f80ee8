"""Acyclic directed mixed graphs and their structural transforms.

An :class:`Admg` stores named nodes, directed edges, and bidirected edges.
A bidirected edge stands for an unobserved common cause that has been
marginalized out, so the graph is the latent-projection view of a causal
model; :func:`expand_bidirected` recovers an explicit-latent DAG when one
is needed.  Graphs are immutable: every transform returns a new instance.

A small text format is supported for files and pipelines::

    # comment
    node A B C
    A -> B
    B <-> C

Nodes may be declared up front with ``node`` lines or implicitly at first
mention in an edge; a line shaped like an edge is an edge, even when its
first node is named ``node``.  Node order is first-mention order and is
preserved by serialization.

Graphs come from two constructors.  The public ``Admg(...)`` (and so
``Admg.build``) checks names, edge ends, pair order and acyclicity.
``Admg._edit`` checks nothing and fills every graph's adjacency: results of
transforms and ``latent_project`` are valid by construction, and the
grammar of ``parse_graph`` leaves only acyclicity to check.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass

HEAD = "head"
TAIL = "tail"

NodeSet = frozenset[str]

__all__ = [
    "HEAD",
    "TAIL",
    "Admg",
    "CycleError",
    "GraphError",
    "GraphParseError",
    "UnknownNodeError",
    "ancestors",
    "cut_incoming",
    "cut_outgoing",
    "descendants",
    "expand_bidirected",
    "incident_marks",
    "latent_project",
    "parse_graph",
    "proper_causal_nodes",
    "remove_nodes",
    "topological_order",
]


def _node_names(names):
    """``names`` itself, after refusing a bare ``str``: iterating it would read
    one multi-character node name as one node per character."""
    if isinstance(names, str):
        raise TypeError(f"expected a collection of node names, not the string {names!r}")
    return names


def _node_set(names) -> NodeSet:
    """``names`` as a frozenset; a bare ``str`` is refused."""
    return frozenset(_node_names(names))


class GraphError(ValueError):
    """Base class for graph construction and query errors."""


class GraphParseError(GraphError):
    """Raised on malformed graph text; carries the 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class CycleError(GraphError):
    """Raised when the directed part of a graph contains a cycle."""


class UnknownNodeError(GraphError):
    """Raised when an operation names a node the graph does not contain."""


# the node names both Admg and the text format accept; the word part is never
# cut short, so a run of names splits one way and a bad node line fails fast
_NAME = r"[A-Za-z_][A-Za-z0-9_]*(?![A-Za-z0-9_])(?:@do)?"
_NAME_RE = re.compile(_NAME)
# the two line shapes; an edge is tried first, so ``node -> A`` is an edge
_EDGE_RE = re.compile(rf"\s*({_NAME})\s*(<->|->)\s*({_NAME})\s*")
_NODE_LINE_RE = re.compile(rf"\s*node\s+((?:{_NAME}\s*)+)")
# one token (an arrow or a name) or the first character that starts none
_TOKEN_RE = re.compile(rf"\s*(?:(<->|->|{_NAME})|(\S))")


@dataclass(frozen=True, repr=False)
class Admg:
    """Acyclic directed mixed graph.

    Directed edges are (tail, head) pairs; bidirected edges are stored as
    name-sorted pairs.  ``nodes`` keeps first-mention order, which is what
    serialization and derived graphs preserve.
    """

    nodes: tuple[str, ...] = ()
    directed: frozenset[tuple[str, str]] = frozenset()
    bidirected: frozenset[tuple[str, str]] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(_node_names(self.nodes)))
        object.__setattr__(self, "directed", frozenset(self.directed))
        object.__setattr__(self, "bidirected", frozenset(self.bidirected))
        known = set()
        for name in self.nodes:
            if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
                raise GraphError(f"bad node name: {name!r}")
            if name in known:
                raise GraphError(f"node {name} listed twice")
            known.add(name)
        for arrow, edges in (("->", self.directed), ("<->", self.bidirected)):
            for pair in edges:
                a, b = pair
                if arrow == "<->" and (a, b) != tuple(sorted(pair)):
                    raise GraphError(f"bidirected pair {pair} is not name-sorted")
                if a not in known or b not in known:
                    raise UnknownNodeError(f"edge {a} {arrow} {b} uses an undeclared node")
                if a == b:
                    raise GraphError(f"self-loop on {a}")
        built = _EMPTY._edit(add_nodes=self.nodes, add_directed=self.directed, add_bidirected=self.bidirected)
        self.__dict__.update(_parents=built._parents, _children=built._children, _spouses=built._spouses)
        _acyclic(self)

    def _edit(self, drop_nodes=frozenset(), drop_directed=frozenset(), drop_bidirected=frozenset(),
              add_nodes=(), add_directed=frozenset(), add_bidirected=frozenset()) -> "Admg":
        """A graph derived from this one without any check: the caller adds
        fresh legal nodes (they go last), known ends and sorted pairs, drops
        every edge at a dropped node and closes no directed cycle (a build on
        the empty graph checks that itself).  Only changed entries are rebuilt."""
        tables = (dict(self._parents), dict(self._children), dict(self._spouses))
        for table in tables:
            for v in drop_nodes:
                del table[v]
            table.update(dict.fromkeys(add_nodes, frozenset()))
        for op, directed, bidirected in ((frozenset.difference, drop_directed, drop_bidirected),
                                         (frozenset.union, add_directed, add_bidirected)):
            if not directed and not bidirected:
                continue
            delta: tuple[dict[str, list[str]], ...] = ({}, {}, {})  # per table: node -> changed neighbours
            for a, b in directed:
                delta[0].setdefault(b, []).append(a)
                delta[1].setdefault(a, []).append(b)
            for a, b in bidirected:
                delta[2].setdefault(a, []).append(b)
                delta[2].setdefault(b, []).append(a)
            for table, changed in zip(tables, delta):
                for v, neighbours in changed.items():
                    if v in table:  # a dropped node's entry is gone
                        table[v] = op(table[v], neighbours)
        nodes = tuple(v for v in self.nodes if v not in drop_nodes) if drop_nodes else self.nodes
        out = object.__new__(Admg)
        out.__dict__.update(  # frozen dataclass: set the fields directly
            nodes=nodes + tuple(add_nodes),
            directed=self.directed - drop_directed | add_directed,
            bidirected=self.bidirected - drop_bidirected | add_bidirected,
            _parents=tables[0], _children=tables[1], _spouses=tables[2],
        )
        return out

    @classmethod
    def build(cls, directed=(), bidirected=(), nodes=()) -> "Admg":
        """Build a graph collecting nodes in first-mention order."""
        order = dict.fromkeys(_node_names(nodes))
        directed, bidirected = list(directed), list(bidirected)
        for a, b in directed + bidirected:
            order.setdefault(a, None)
            order.setdefault(b, None)
        bidirected = [tuple(sorted(pair)) for pair in bidirected]
        return cls(tuple(order), frozenset(map(tuple, directed)), frozenset(bidirected))

    def parents(self, v: str) -> NodeSet:
        self._require(v)
        return self._parents[v]

    def children(self, v: str) -> NodeSet:
        self._require(v)
        return self._children[v]

    def spouses(self, v: str) -> NodeSet:
        """Nodes joined to ``v`` by a bidirected edge."""
        self._require(v)
        return self._spouses[v]

    def _require(self, v: str):
        if v not in self._parents:
            raise UnknownNodeError(f"unknown node: {v}")

    def node_subset(self, names) -> NodeSet:
        out = _node_set(names)
        for v in out:
            self._require(v)
        return out

    def to_text(self) -> str:
        """Serialize to the graph text format (round-trips through parse_graph)."""
        lines = []
        if self.nodes:
            lines.append("node " + " ".join(self.nodes))
        for a, b in sorted(self.directed):
            lines.append(f"{a} -> {b}")
        for a, b in sorted(self.bidirected):
            lines.append(f"{a} <-> {b}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        d = ", ".join(f"{a} -> {b}" for a, b in sorted(self.directed))
        bi = ", ".join(f"{a} <-> {b}" for a, b in sorted(self.bidirected))
        edges = "; ".join(s for s in (d, bi) if s)
        return f"<Admg [{' '.join(self.nodes)}] {edges}>"


def _line_error(line: str, lineno: int):
    """Raise the :class:`GraphParseError` of a line that is neither an edge nor
    a node line, at its first offending token; return if the line is blank."""
    toks = []
    for m in _TOKEN_RE.finditer(line):
        if m.group(2) is not None:
            raise GraphParseError(f"unexpected character {m.group(2)!r}", lineno, m.start(2) + 1)
        toks.append((m.group(1), m.start(1) + 1))
    if not toks:
        return
    if toks[0][0] == "node":
        if len(toks) < 2:
            raise GraphParseError("node line declares no nodes", lineno, toks[0][1])
        # names alone would have matched the node-line pattern, so an arrow is here
        col = next(c for tok, c in toks if tok in ("->", "<->"))
        raise GraphParseError("arrow in node declaration", lineno, col)
    col = toks[0][1]
    for i, (tok, c) in enumerate(toks):
        if i > 2 or (tok in ("->", "<->")) != (i == 1):
            col = c
            break
    raise GraphParseError("expected 'A -> B', 'A <-> B', or a node declaration", lineno, col)


def parse_graph(text: str) -> Admg:
    """Parse graph text into an :class:`Admg`.

    Raises :class:`GraphParseError` on syntax problems (with line and
    column), on duplicate edges, and :class:`CycleError` when the directed
    part is cyclic.
    """
    order: dict[str, None] = {}
    seen_directed: set[tuple[str, str]] = set()
    seen_bidirected: set[tuple[str, str]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        edge = _EDGE_RE.fullmatch(line)
        if edge is None:
            declared = _NODE_LINE_RE.fullmatch(line)
            if declared is None:
                _line_error(line, lineno)
            else:
                order.update(dict.fromkeys(_NAME_RE.findall(declared[1])))
            continue
        tail, arrow, head = edge.groups()
        order.setdefault(tail, None)
        order.setdefault(head, None)
        if arrow == "->":
            seen, pair = seen_directed, (tail, head)
        else:
            seen, pair = seen_bidirected, tuple(sorted((tail, head)))
        if tail == head:
            raise GraphParseError(f"self-loop on {tail}", lineno, edge.start(1) + 1)
        if pair in seen:
            raise GraphParseError(f"duplicate edge {tail} {arrow} {head}", lineno, edge.start(1) + 1)
        seen.add(pair)
    return _acyclic(_EMPTY._edit(add_nodes=tuple(order), add_directed=seen_directed, add_bidirected=seen_bidirected))


def _fresh(stem: str, taken: set[str], suffix: str = "") -> str:
    """Take the first free name of ``stem + suffix``, ``stem + "_" + suffix``, ..."""
    name = stem + suffix
    while name in taken:
        stem += "_"
        name = stem + suffix
    taken.add(name)
    return name


def _pair_name(prefix: str, a: str, b: str, taken: set[str]) -> str:
    """Fresh name ``<prefix>_<a>_<b>`` for a node standing for the pair.

    A ``@do`` end is spelled ``_do`` inside the name, which the text format
    could not read back otherwise (``@do`` may only end a name).
    """
    return _fresh(f"{prefix}_{a}_{b}".replace("@do", "_do"), taken)


def _splice_latents(graph: Admg, prefix: str, taken: set[str]):
    """A fresh latent ``<prefix>_<A>_<B>`` for each bidirected pair, named in
    pair order from ``taken``: the map from pair to latent, and the latents'
    directed edges into both ends."""
    latents: dict[tuple[str, str], str] = {}
    edges = set()
    for a, b in sorted(graph.bidirected):
        u = latents[(a, b)] = _pair_name(prefix, a, b, taken)
        edges.add((u, a))
        edges.add((u, b))
    return latents, edges


def _closure(seeds, neighbors) -> NodeSet:
    """``seeds`` and every node reachable from them through ``neighbors``,
    found in one traversal from all seeds at once."""
    out = set(seeds)
    stack = list(seeds)
    while stack:
        v = stack.pop()
        for w in neighbors(v):
            if w not in out:
                out.add(w)
                stack.append(w)
    return frozenset(out)


def ancestors(graph: Admg, nodes) -> NodeSet:
    """Reflexive transitive closure over parent edges."""
    return _closure(graph.node_subset(nodes), graph._parents.__getitem__)


def descendants(graph: Admg, nodes) -> NodeSet:
    """Reflexive transitive closure over child edges."""
    return _closure(graph.node_subset(nodes), graph._children.__getitem__)


def _cut_ancestors(graph: Admg, nodes, stop) -> NodeSet:
    """Ancestors of ``nodes`` once the edges into ``stop`` are cut: the climb
    reaches members of ``stop`` but never goes past them."""
    parents = graph._parents
    return _closure(nodes, lambda v: () if v in stop else parents[v])


def cut_incoming(graph: Admg, targets) -> Admg:
    """Drop every edge with an arrowhead at a member of ``targets``.

    Directed edges pointing into the set and bidirected edges touching it
    are removed; this is the graph after an intervention on ``targets``.
    """
    into, _, bidirected = _edges_at(graph, graph.node_subset(targets))
    return graph._edit(drop_directed=into, drop_bidirected=bidirected)


def cut_outgoing(graph: Admg, sources) -> Admg:
    """Drop directed edges whose tail is in ``sources``; bidirected edges stay."""
    return graph._edit(drop_directed=_edges_at(graph, graph.node_subset(sources))[1])


def remove_nodes(graph: Admg, dropped) -> Admg:
    """Delete nodes together with every edge that touches them."""
    dropped = graph.node_subset(dropped)
    into, out, bidirected = _edges_at(graph, dropped)
    return graph._edit(drop_nodes=dropped, drop_directed=into | out, drop_bidirected=bidirected)


def _edges_at(graph: Admg, nodes: NodeSet):
    """Directed edges into and out of ``nodes``, and bidirected pairs touching them."""
    return (
        {(p, v) for v in nodes for p in graph._parents[v]},
        {(v, c) for v in nodes for c in graph._children[v]},
        {tuple(sorted((v, s))) for v in nodes for s in graph._spouses[v]},
    )


def incident_marks(graph: Admg, v: str):
    """Edges at ``v`` as (other_end, mark_at_v, mark_at_other) triples.

    Deterministic order: by neighbor name, then outgoing directed,
    incoming directed, bidirected.
    """
    graph._require(v)
    out = []
    for w in graph._children[v]:
        out.append((w, 0, TAIL, HEAD))
    for w in graph._parents[v]:
        out.append((w, 1, HEAD, TAIL))
    for w in graph._spouses[v]:
        out.append((w, 2, HEAD, HEAD))
    out.sort()
    return [(w, mv, mw) for w, _, mv, mw in out]


def latent_project(graph: Admg, hidden) -> Admg:
    """Marginalize ``hidden`` out of the graph.

    Retained nodes A, B gain a directed edge A -> B when some directed path
    A -> ... -> B runs entirely through hidden nodes, and a bidirected edge
    when some collider-free path with arrowheads at both ends does.
    Projecting the empty set returns the graph unchanged.

    Such a path climbs from each end through hidden ancestors: A -> B when
    A is a parent of B's hidden-ancestor closure, and A <-> B when the two
    closures share a hidden node or a bidirected edge joins them.
    """
    hidden = graph.node_subset(hidden)
    keep = tuple(v for v in graph.nodes if v not in hidden)
    up = {b: _closure((b,), lambda v: graph._parents[v] & hidden) for b in keep}
    holders: dict[str, list[str]] = {}  # node -> kept nodes whose closure holds it
    for b in keep:
        for v in up[b]:
            holders.setdefault(v, []).append(b)
    directed = {(a, b) for b in keep for v in up[b] for a in graph._parents[v] - hidden}
    bidirected = {
        tuple(sorted((a, b)))
        for a in keep
        for v in up[a]
        for u in graph._spouses[v] | {v}
        for b in holders.get(u, ())
        if b != a
    }
    return _EMPTY._edit(add_nodes=keep, add_directed=directed, add_bidirected=bidirected)


def proper_causal_nodes(graph: Admg, treatments, outcomes) -> NodeSet:
    """Nodes lying on a directed path from ``treatments`` to ``outcomes``
    that meets the treatment set only at its start.

    Endpoints are included.  These are the descendants of the treatments
    that are ancestors of the outcomes once the edges into the treatments are
    cut, and neither closure needs the cut graph built: cutting those edges
    removes no descendant, since every treatment is a seed, and it only stops
    the climb from the outcomes at a treatment, which has no parents left.
    """
    treatments = graph.node_subset(treatments)
    outcomes = graph.node_subset(outcomes)
    if treatments & outcomes:
        raise GraphError("treatment and outcome sets overlap")
    return _proper_causal(graph, treatments, outcomes)


def _proper_causal(graph: Admg, treatments: NodeSet, outcomes: NodeSet) -> NodeSet:
    """:func:`proper_causal_nodes` of checked, disjoint sets."""
    return _closure(treatments, graph._children.__getitem__) & _cut_ancestors(graph, outcomes, treatments)


def expand_bidirected(graph: Admg) -> tuple[Admg, dict[tuple[str, str], str]]:
    """Replace each bidirected edge with an explicit exogenous parent.

    Returns the expanded DAG plus a map from each original bidirected pair
    to the fresh latent node that replaced it.  Latents are named
    ``__U_<A>_<B>`` with name-sorted endpoints (a ``@do`` end spelled
    ``_do``).
    """
    mapping, directed = _splice_latents(graph, "__U", set(graph.nodes))
    expanded = graph._edit(drop_bidirected=graph.bidirected, add_nodes=mapping.values(), add_directed=directed)
    return expanded, mapping


def topological_order(graph: Admg) -> tuple[str, ...]:
    """Topological order of the directed part, stable in node order.

    A node on or below a directed cycle never becomes ready, so it is left
    out; ``_acyclic`` reads a short order as a cycle.
    """
    index = {v: i for i, v in enumerate(graph.nodes)}
    indeg = {v: len(graph._parents[v]) for v in graph.nodes}
    ready = [index[v] for v in graph.nodes if indeg[v] == 0]  # ascending: already a heap
    out = []
    while ready:
        v = graph.nodes[heapq.heappop(ready)]
        out.append(v)
        for c in graph._children[v]:
            indeg[c] -= 1
            if indeg[c] == 0:
                heapq.heappush(ready, index[c])
    return tuple(out)


def _acyclic(graph: Admg) -> Admg:
    """``graph``, after raising :class:`CycleError` if its directed part has a cycle."""
    order = topological_order(graph)
    if len(order) != len(graph.nodes):
        cycle = sorted(set(graph.nodes).difference(order))  # the nodes on or below a cycle
        raise CycleError(f"cycle detected in directed part (involving {', '.join(cycle)})")
    return graph


_EMPTY = object.__new__(Admg)  # made by hand, since Admg() builds its own tables from it
_EMPTY.__dict__.update(nodes=(), directed=frozenset(), bidirected=frozenset(), _parents={}, _children={}, _spouses={})
