"""Property-based checks tying the fast implementations to brute-force
reference behaviour on randomly drawn graphs.
"""

from itertools import combinations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adjustkit import (
    AdjustmentQuery,
    Admg,
    Route,
    Step,
    adjustment_criterion,
    ancestors,
    canonical_adjustment_set,
    cut_incoming,
    cut_outgoing,
    d_separated,
    descendants,
    direct_route,
    enumerate_paths,
    exists_adjustment_set,
    expand_bidirected,
    graphical_ignorability,
    latent_project,
    magnification_check,
    parse_graph,
    path_blocked,
    proper_causal_nodes,
    verify_soundness,
)
from adjustkit.graph import incident_marks
from conftest import brute_d_separated, brute_proper_causal_nodes, subsets_of

NAMES = "ABCDE"


@st.composite
def admgs(draw, max_nodes: int = 5, max_edges: int = 8) -> Admg:
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    nodes = list(NAMES[:n])
    order = draw(st.permutations(nodes))
    pos = {v: i for i, v in enumerate(order)}
    dir_pairs = [(a, b) for a in nodes for b in nodes if pos[a] < pos[b]]
    directed = draw(st.sets(st.sampled_from(dir_pairs), max_size=max_edges))
    bidirected = draw(
        st.sets(st.sampled_from(list(combinations(nodes, 2))), max_size=max_edges)
    )
    return Admg(tuple(nodes), frozenset(directed), frozenset(bidirected))


@st.composite
def separation_cases(draw, max_nodes: int = 5):
    """A graph plus disjoint nonempty endpoint sets and a conditioning set."""
    graph = draw(admgs(max_nodes=max_nodes))
    nodes = sorted(graph.nodes)
    a_seed = draw(st.sampled_from(nodes))
    b_seed = draw(st.sampled_from([v for v in nodes if v != a_seed]))
    first, second, cond = {a_seed}, {b_seed}, set()
    for v in nodes:
        if v in (a_seed, b_seed):
            continue
        bucket = draw(st.sampled_from("fsgn"))
        if bucket == "f":
            first.add(v)
        elif bucket == "s":
            second.add(v)
        elif bucket == "g":
            cond.add(v)
    return graph, frozenset(first), frozenset(second), frozenset(cond)


@st.composite
def adjustment_cases(draw, max_nodes: int = 5):
    graph = draw(admgs(max_nodes=max_nodes))
    nodes = sorted(graph.nodes)
    x_seed = draw(st.sampled_from(nodes))
    y_seed = draw(st.sampled_from([v for v in nodes if v != x_seed]))
    x, y, z = {x_seed}, {y_seed}, set()
    for v in nodes:
        if v in (x_seed, y_seed):
            continue
        bucket = draw(st.sampled_from("xyzn"))
        if bucket == "x":
            x.add(v)
        elif bucket == "y":
            y.add(v)
        elif bucket == "z":
            z.add(v)
    return graph, AdjustmentQuery(frozenset(x), frozenset(y), frozenset(z))


@st.composite
def walks(draw, max_nodes: int = 4, max_steps: int = 8):
    """A graph plus a random edge walk through it (repeats allowed)."""
    graph = draw(admgs(max_nodes=max_nodes))
    start = draw(st.sampled_from(sorted(graph.nodes)))
    steps = []
    at = start
    for _ in range(draw(st.integers(min_value=1, max_value=max_steps))):
        options = sorted(incident_marks(graph, at))
        if not options:
            break
        w, mv, mw = draw(st.sampled_from(options))
        steps.append(Step(at, w, mv, mw))
        at = w
    assume(steps)
    return graph, Route(start, tuple(steps))


@given(admgs())
@settings(deadline=None, max_examples=150)
def test_ancestor_descendant_duality(graph):
    for v in graph.nodes:
        for w in graph.nodes:
            assert (v in ancestors(graph, {w})) == (w in descendants(graph, {v}))


@given(admgs(), st.sets(st.sampled_from(NAMES)))
@settings(deadline=None, max_examples=100)
def test_edge_cuts_are_idempotent(graph, raw):
    targets = frozenset(raw) & frozenset(graph.nodes)
    incoming = cut_incoming(graph, targets)
    assert cut_incoming(incoming, targets) == incoming
    outgoing = cut_outgoing(graph, targets)
    assert cut_outgoing(outgoing, targets) == outgoing


@given(admgs())
@settings(deadline=None, max_examples=150)
def test_text_dump_round_trips(graph):
    assert parse_graph(graph.to_text()) == graph


@given(separation_cases())
@settings(deadline=None, max_examples=200)
def test_reachability_matches_path_enumeration(case):
    graph, first, second, cond = case
    verdict = d_separated(graph, first, second, cond)
    assert verdict.separated == brute_d_separated(graph, first, second, cond)
    if not verdict.separated:
        witness = verdict.witness
        assert witness.start in first and witness.end in second
        assert not path_blocked(graph, witness, cond)


@given(separation_cases(), st.sets(st.sampled_from(NAMES), max_size=2))
@settings(deadline=None, max_examples=150)
def test_latent_projection_preserves_separation(case, raw_hidden):
    graph, first, second, cond = case
    hidden = (frozenset(raw_hidden) & frozenset(graph.nodes)) - first - second - cond
    projected = latent_project(graph, hidden)
    assert (
        d_separated(projected, first, second, cond).separated
        == d_separated(graph, first, second, cond).separated
    )


@given(separation_cases())
@settings(deadline=None, max_examples=150)
def test_bidirected_expansion_preserves_separation(case):
    graph, first, second, cond = case
    dag, latents = expand_bidirected(graph)
    assert dag.bidirected == frozenset()
    assert len(latents) == len(graph.bidirected)
    assert (
        d_separated(dag, first, second, cond).separated
        == d_separated(graph, first, second, cond).separated
    )


@given(separation_cases())
@settings(deadline=None, max_examples=100)
def test_paths_block_the_same_as_single_visit_routes(case):
    graph, first, second, cond = case
    for path in enumerate_paths(graph, first, second)[:20]:
        route = Route(path.start, path.steps)
        assert path_blocked(graph, route, cond) == path_blocked(graph, path, cond)


@given(walks(), st.sets(st.sampled_from(NAMES)))
@settings(deadline=None, max_examples=200)
def test_direct_route_yields_an_open_path(case, raw_given):
    graph, route = case
    given = frozenset(raw_given) & frozenset(graph.nodes)
    path = direct_route(graph, route)
    path.validate_in(graph)
    assert path.start == route.start and path.end == route.end
    assert len(set(path.nodes)) == len(path.nodes)
    assert set(path.nodes) <= set(route.nodes)
    if route.start != route.end and not path_blocked(graph, route, given):
        assert not path_blocked(graph, path, given)


@given(adjustment_cases())
@settings(deadline=None, max_examples=200)
def test_proper_causal_nodes_match_brute_force(case):
    graph, query = case
    assert proper_causal_nodes(
        graph, query.treatments, query.outcomes
    ) == brute_proper_causal_nodes(graph, query.treatments, query.outcomes)


@given(adjustment_cases())
@settings(deadline=None, max_examples=150)
def test_fast_mode_matches_reference_mode(case):
    graph, query = case
    fast = adjustment_criterion(graph, query, mode="fast")
    reference = adjustment_criterion(graph, query, mode="reference")
    assert fast.holds == reference.holds


@given(adjustment_cases())
@settings(deadline=None, max_examples=150)
def test_twin_separation_matches_criterion(case):
    graph, query = case
    assert graphical_ignorability(graph, query) == adjustment_criterion(graph, query).holds


@given(adjustment_cases())
@settings(deadline=None, max_examples=150)
def test_magnified_graph_check_matches_criterion(case):
    graph, query = case
    assert magnification_check(graph, query) == adjustment_criterion(graph, query).holds


@given(adjustment_cases(max_nodes=4))
@settings(deadline=None, max_examples=75)
def test_existence_matches_subset_search(case):
    graph, query = case
    x, y = query.treatments, query.outcomes
    pool = frozenset(graph.nodes) - x - y
    brute = any(
        adjustment_criterion(graph, AdjustmentQuery(x, y, z)).holds
        for z in subsets_of(pool)
    )
    assert exists_adjustment_set(graph, x, y) == brute
    if brute:
        canonical = canonical_adjustment_set(graph, x, y)
        assert adjustment_criterion(graph, AdjustmentQuery(x, y, canonical)).holds


@given(adjustment_cases(max_nodes=4), st.integers(min_value=0, max_value=10_000))
@settings(deadline=None, max_examples=25)
def test_valid_sets_are_numerically_sound(case, seed):
    graph, query = case
    assume(adjustment_criterion(graph, query).holds)
    report = verify_soundness(graph, query, trials=1, tol=1e-9, seed=seed)
    assert report.passed
    assert report.max_gap <= 1e-9
