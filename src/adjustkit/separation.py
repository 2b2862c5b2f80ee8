"""Paths, routes, blocking, and separation queries over mixed graphs.

Bidirected edges carry arrowheads at both ends, so every rule here treats
them exactly like a hidden common cause would: a node is a collider on a
walk when both adjacent edge marks point into it.  One breadth-first sweep
over (node, arrived-by-arrowhead) states answers every question: it decides
separation, lists the nodes connected to a set and finds inducing paths, and
the witness of a failing decision is the least open path read off the
layers of the sweep that decided it, in linear time.  A sweep reads a view,
a node's edges and its parents: a graph's own (``_view``), or that of a
graph derived from it that is never built.  It can take the edges from its
sources into chosen nodes as cut, so no criterion builds a cut graph.  The
public functions check their node sets once; the sweep beneath them checks
nothing.  The path enumerator survives only as the reference checker.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import (
    HEAD,
    TAIL,
    Admg,
    GraphError,
    _closure,
    incident_marks,
)

__all__ = [
    "Path",
    "Route",
    "SepVerdict",
    "Step",
    "d_connected_nodes",
    "d_separated",
    "direct_route",
    "enumerate_paths",
    "find_inducing_path",
    "path_blocked",
    "path_from_string",
]

_ARROWS = {(TAIL, HEAD): "->", (HEAD, TAIL): "<-", (HEAD, HEAD): "<->"}
_MARKS = {arrow: marks for marks, arrow in _ARROWS.items()}


@dataclass(frozen=True)
class Step:
    """One edge traversal: marks are the edge's arrow ends at each node."""

    source: str
    target: str
    source_mark: str
    target_mark: str

    def __post_init__(self):
        if self.source == self.target:
            raise GraphError("step endpoints must differ")
        if (self.source_mark, self.target_mark) not in _ARROWS:
            raise GraphError(
                f"illegal mark pair ({self.source_mark}, {self.target_mark})"
            )

    @property
    def arrow(self) -> str:
        return _ARROWS[(self.source_mark, self.target_mark)]

    def exists_in(self, graph: Admg) -> bool:
        if self.source_mark == TAIL:
            return (self.source, self.target) in graph.directed
        if self.target_mark == TAIL:
            return (self.target, self.source) in graph.directed
        return tuple(sorted((self.source, self.target))) in graph.bidirected


def _check_chain(start: str, steps: tuple[Step, ...]):
    at = start
    for s in steps:
        if s.source != at:
            raise GraphError(f"steps do not chain at {s.source} (expected {at})")
        at = s.target


class _Walk:
    """Checking and printing shared by paths and routes: a start node plus
    chained steps, printed as 'X -> A <-> B <- Y'."""

    @property
    def nodes(self) -> tuple[str, ...]:
        return (self.start,) + tuple(s.target for s in self.steps)

    @property
    def end(self) -> str:
        return self.steps[-1].target if self.steps else self.start

    def validate_in(self, graph: Admg):
        for v in (self.start, *(s.target for s in self.steps)):
            graph._require(v)
        for s in self.steps:
            if not s.exists_in(graph):
                raise GraphError(f"step {s.source} {s.arrow} {s.target} is not an edge of the graph")

    def __str__(self):
        out = [self.start]
        for s in self.steps:
            out.append(s.arrow)
            out.append(s.target)
        return " ".join(out)


@dataclass(frozen=True)
class Path(_Walk):
    """A walk that visits no node twice."""

    start: str
    steps: tuple[Step, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        _check_chain(self.start, self.steps)
        seen = {self.start}
        for s in self.steps:
            if s.target in seen:
                raise GraphError(f"node {s.target} repeated on path")
            seen.add(s.target)


@dataclass(frozen=True)
class Route(_Walk):
    """A walk that may revisit nodes; visits carry occurrence labels."""

    start: str
    steps: tuple[Step, ...]
    occurrence_labels: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        if not self.steps:
            raise GraphError("a route needs at least one step")
        _check_chain(self.start, self.steps)
        counts: dict[str, int] = {}
        labels = []
        for v in self.nodes:
            labels.append(counts.get(v, 0))
            counts[v] = labels[-1] + 1
        object.__setattr__(self, "occurrence_labels", tuple(labels))


def path_from_string(text: str) -> Path:
    """Inverse of ``str(path)``: parse 'X -> A <-> B <- Y' into a Path."""
    toks = text.split() if isinstance(text, str) else ()
    if not toks or len(toks) % 2 == 0:
        raise GraphError(f"malformed path text: {text!r}")
    start = toks[0]
    steps = []
    at = start
    for i in range(1, len(toks), 2):
        arrow, nxt = toks[i], toks[i + 1]
        if arrow not in _MARKS:
            raise GraphError(f"malformed path text: {text!r}")
        sm, tm = _MARKS[arrow]
        steps.append(Step(at, nxt, sm, tm))
        at = nxt
    return Path(start, tuple(steps))


def path_blocked(graph: Admg, path: Path | Route, given) -> bool:
    """Whether conditioning on ``given`` blocks the path.

    A non-collider on the path blocks when it is in ``given``; a collider
    blocks when neither it nor any of its descendants is.
    """
    path.validate_in(graph)
    given = graph.node_subset(given)
    visits, steps = path.nodes, path.steps
    # a collider has a descendant in ``given`` exactly when it is an ancestor of it
    open_colliders = _closure(given, graph._parents.__getitem__)
    for i in range(1, len(visits) - 1):
        collider = steps[i - 1].target_mark == HEAD and steps[i].source_mark == HEAD
        if collider:
            if visits[i] not in open_colliders:
                return True
        elif visits[i] in given:
            return True
    return False


def enumerate_paths(graph: Admg, sources, sinks, max_len: int | None = None) -> list[Path]:
    """All paths from ``sources`` to ``sinks`` touching sources only at the
    start and sinks only at the end, in deterministic (lexicographic) order.

    ``max_len`` caps the number of steps; by default it is the node count,
    which no simple path can exceed.  A negative cap raises ``ValueError``.
    """
    if max_len is not None and max_len < 0:
        raise ValueError("max_len must be non-negative")
    sources = graph.node_subset(sources)
    sinks = graph.node_subset(sinks)
    if sources & sinks:
        raise GraphError("endpoint sets overlap")
    if max_len is None:
        max_len = len(graph.nodes)
    found: list[Path] = []
    for a in sorted(sources):
        # depth-first, one iterator over incident edges per node on the trail
        steps: list[Step] = []
        visited = {a}
        stack = [iter(incident_marks(graph, a))] if max_len > 0 else []
        while stack:
            v = steps[-1].target if steps else a
            for w, mv, mw in stack[-1]:
                step = Step(v, w, mv, mw)
                if w in sinks:
                    found.append(Path(a, (*steps, step)))
                elif w not in sources and w not in visited and len(steps) + 1 < max_len:
                    steps.append(step)
                    visited.add(w)
                    stack.append(iter(incident_marks(graph, w)))
                    break
            else:
                stack.pop()
                if steps:
                    visited.discard(steps.pop().target)
    return found


def _path_key(path: Path):
    return (len(path.steps), path.nodes, tuple(s.arrow for s in path.steps))


def _onward(v, marks, came_head: bool | None, given: frozenset, open_colliders: frozenset):
    """The edges ``marks`` at ``v`` that continue an open walk which reached ``v``.

    ``came_head`` says whether the walk arrived through an arrowhead; it is
    ``None`` at the walk's start, where every edge may be taken.  Openness is
    judged per visit: entering and leaving through arrowheads needs ``v`` in
    ``open_colliders`` (the ancestors of ``given``), anything else needs
    ``v`` outside ``given``.
    """
    if came_head is None:
        return marks
    through = v not in given
    into = came_head and v in open_colliders
    return [m for m in marks if (into if came_head and m[1] == HEAD else through)]


def _view(graph: Admg):
    """``graph`` as a view: a node's edges, by :func:`incident_marks`, and its parent set."""
    return lambda v: incident_marks(graph, v), graph._parents.__getitem__


def _sweep(view, first: frozenset, second: frozenset, given: frozenset, cut_into=frozenset()):
    """Breadth-first layers of (node, arrived-by-arrowhead) states on walks
    from ``first`` kept open by ``given``, up to the first layer that
    reaches ``second`` (to the end when none does, so an empty last layer
    means separated).

    Walks never re-enter ``first`` and, stopping at the layer that reaches
    ``second``, never pass through it.  Returns the layers and, for each
    state before the last layer, its edges onward as (next state, step
    marks) pairs into the next layer.

    Directed edges from ``first`` into ``cut_into`` count as absent: no walk
    re-enters ``first``, so only starts and the open-collider climb meet them.

    ``view`` is a graph's :func:`_view`, or the view of a graph derived
    from it, which is swept without being built; such a view's nodes may be
    any hashables, so its sweep only decides.
    """
    edges_at, parents = view
    open_colliders = _closure(given, lambda v: parents(v) - first if v in cut_into else parents(v))
    layers = [[(a, None) for a in sorted(first)]]
    depth = {state: 0 for state in layers[0]}
    onward: dict = {}
    while layers[-1] and not any(v in second for v, _ in layers[-1]):
        d = len(layers)
        nxt = []
        for state in layers[-1]:
            v, came_head = state
            edges = onward[state] = []
            for w, mv, mw in _onward(v, edges_at(v), came_head, given, open_colliders):
                if w in first or (came_head is None and mv == TAIL and w in cut_into):
                    continue
                after = (w, mw == HEAD)
                if after not in depth:
                    depth[after] = d
                    nxt.append(after)
                elif depth[after] != d:
                    continue
                edges.append((after, (v, w, mv, mw)))
        layers.append(nxt)
    return layers, onward


def _least_path(layers: list, onward: dict, second: frozenset[str]) -> Path | None:
    """The open path with the least ``_path_key`` (length, then node
    sequence, then arrows) in a :func:`_sweep` toward ``second``, or
    ``None`` when the sweep never reached it.

    Two passes over the layers, each linear in the graph: a backward pass
    keeping the states that lie on a shortest open walk, then a forward
    walk taking the least next node at each layer and, per state, the
    least arrow prefix that reaches it.  A shortest open walk never repeats
    a node (:func:`direct_route` would shorten it), so the walk found is
    the least open path.
    """
    if not layers[-1]:
        return None
    alive = {state for state in layers[-1] if state[0] in second}
    for layer in reversed(layers[:-1]):
        alive.update(s for s in layer if any(after in alive for after, _ in onward[s]))

    start = next(s for s in layers[0] if s in alive)
    rank = {start: 0}  # a state's place among its layer's least arrow prefixes
    back = {start: None}  # the state one layer back and the step taken
    current = [start]
    for _ in range(len(layers) - 1):
        w = min(after[0] for s in current for after, _ in onward[s] if after in alive)
        reach: dict = {}
        for s in current:
            for after, marks in onward[s]:
                if after[0] == w and after in alive:
                    key = (rank[s], _ARROWS[marks[2:]])
                    if after not in reach or key < reach[after][0]:
                        reach[after] = (key, s, marks)
        keys = sorted({key for key, _, _ in reach.values()})
        for after, (key, s, marks) in reach.items():
            rank[after] = keys.index(key)
            back[after] = (s, marks)
        current = list(reach)
    state = min(current, key=rank.__getitem__)
    steps = []
    while back[state] is not None:
        state, marks = back[state]
        steps.append(Step(*marks))
    return Path(start[0], tuple(reversed(steps)))


class SepVerdict:
    """Outcome of a separation query.

    ``witness`` is ``None`` when separated; otherwise it is the shortest
    open path (ties broken by lexicographic node sequence, then arrows),
    read on first access off the layers of the sweep that decided the
    query, in time linear in the graph.
    """

    __slots__ = ("separated", "_sweep", "_witness")

    def __init__(self, layers: list, onward: dict, second: frozenset[str]):
        self.separated = not layers[-1]
        self._sweep = None if self.separated else (layers, onward, second)
        self._witness = None

    @property
    def witness(self) -> Path | None:
        if self._sweep is not None:
            self._witness = _least_path(*self._sweep)
            self._sweep = None
        return self._witness

    def __repr__(self):
        return f"SepVerdict(separated={self.separated})"


def _disjoint_sets(graph: Admg, *sets) -> list[frozenset[str]]:
    """Each of ``sets`` checked against ``graph``, after refusing any two that overlap."""
    out = [graph.node_subset(s) for s in sets]
    if any(a & b for i, a in enumerate(out) for b in out[i + 1:]):
        raise GraphError("query sets must be pairwise disjoint")
    return out


def d_separated(graph: Admg, first, second, given) -> SepVerdict:
    """Decide whether ``given`` blocks every path between the node sets.

    The three sets must be pairwise disjoint.  The decision is one
    reachability sweep; the witness, when the sets are connected, is the
    least open path under a fixed order, so repeated runs agree exactly.
    """
    first, second, given = _disjoint_sets(graph, first, second, given)
    return _decide(_view(graph), first, second, given)


def _decide(view, first, second, given, cut_into=frozenset()) -> SepVerdict:
    """:func:`d_separated` on sets the caller checked, swept and cut as in :func:`_sweep`."""
    return SepVerdict(*_sweep(view, first, second, given, cut_into), second)


def d_connected_nodes(graph: Admg, sources, given) -> frozenset[str]:
    """Nodes joined to ``sources`` by at least one open path given ``given``.

    Members of ``sources`` count as connected to themselves.
    """
    sources, given = _disjoint_sets(graph, sources, given)
    layers, _ = _sweep(_view(graph), sources, frozenset(), given)
    return frozenset(v for layer in layers for v, _ in layer)


def direct_route(graph: Admg, route: Route) -> Path:
    """Collapse a route onto the path it carries.

    Starting from the last visit of the start node, each hop follows the
    route's next edge and then jumps forward to the last visit of the node
    just reached, until the route's final node is the current one.  The
    result never repeats a node, and openness under any conditioning set
    survives the collapse.
    """
    route.validate_in(graph)
    seq = route.nodes
    last = {v: i for i, v in enumerate(seq)}
    pos = last[seq[0]]
    steps: list[Step] = []
    while pos != len(seq) - 1:
        steps.append(route.steps[pos])
        pos = last[seq[pos + 1]]
    return Path(seq[0], tuple(steps))


def find_inducing_path(graph: Admg, first, second) -> Path | None:
    """Find a path between the sets whose interior nodes are all colliders
    and whose every node is an ancestor of one of the sets.

    Such a path exists exactly when no conditioning set separates the two
    sets.  Returns the shortest one (lexicographic tie-break) or ``None``.
    It is the least open path given every such ancestor outside the two
    sets: there a non-collider always blocks and a collider never does.  A
    walk that steps off the ancestors enters a non-ancestor through an
    arrowhead and can only go on along directed edges to non-ancestors, so
    it never reaches ``second``.
    """
    first, second = _disjoint_sets(graph, first, second)
    given = _closure(first | second, graph._parents.__getitem__) - first - second
    return _least_path(*_sweep(_view(graph), first, second, given), second)
