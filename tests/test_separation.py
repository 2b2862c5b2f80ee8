"""Path machinery, blocking, separation decisions, routes, inducing paths."""

import random
import time
from collections import Counter
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjustkit import (
    AdjustmentQuery,
    GraphError,
    Path,
    Route,
    Step,
    adjustment_criterion,
    ancestors,
    backdoor_criterion,
    d_connected_nodes,
    d_separated,
    descendants,
    direct_route,
    enumerate_adjustment_sets,
    enumerate_paths,
    expand_bidirected,
    find_inducing_path,
    graphical_ignorability,
    magnification_check,
    parse_graph,
    path_blocked,
    path_from_string,
)
from adjustkit import separation
from adjustkit.graph import HEAD, TAIL, Admg
from adjustkit.separation import _path_key
from conftest import (
    all_dags,
    all_mixed_graphs,
    all_queries,
    brute_d_separated,
    chain_graph,
    graph_from_edges,
    networkx_closures,
    random_admg,
    random_route,
    reference_path_blocked,
    subsets_of,
)


def p(text: str) -> Path:
    return path_from_string(text)


class TestStepAndPath:
    def test_step_marks_encode_arrows(self):
        assert Step("A", "B", TAIL, HEAD).arrow == "->"
        assert Step("A", "B", HEAD, TAIL).arrow == "<-"
        assert Step("A", "B", HEAD, HEAD).arrow == "<->"

    def test_step_rejects_tail_tail(self):
        with pytest.raises(GraphError):
            Step("A", "B", TAIL, TAIL)

    def test_step_rejects_self_edge(self):
        with pytest.raises(GraphError):
            Step("A", "A", TAIL, HEAD)

    def test_path_string_round_trip(self):
        for text in ("X -> Y", "X <- Z -> Y", "X -> Z <-> Y <- W"):
            assert str(p(text)) == text

    def test_path_rejects_broken_chain(self):
        with pytest.raises(GraphError):
            Path("A", (Step("B", "C", TAIL, HEAD),))

    def test_path_rejects_repeat(self):
        with pytest.raises(GraphError):
            p("A -> B -> A")

    def test_trivial_path(self):
        path = Path("A")
        assert path.nodes == ("A",)
        assert path.end == "A"

    def test_path_from_string_rejects_garbage(self):
        for text in ("", "A ->", "A => B", "-> A"):
            with pytest.raises(GraphError):
                path_from_string(text)

    def test_validate_in_checks_edges(self, fig1a):
        p("X <- Z -> Y").validate_in(fig1a)
        with pytest.raises(GraphError):
            p("X -> Z").validate_in(fig1a)
        with pytest.raises(GraphError):
            p("X <-> Y").validate_in(fig1a)

    def test_route_occurrence_labels(self):
        route = Route(
            "X",
            (
                Step("X", "A", TAIL, HEAD),
                Step("A", "B", HEAD, TAIL),
                Step("B", "A", TAIL, HEAD),
                Step("A", "Y", TAIL, HEAD),
            ),
        )
        assert route.nodes == ("X", "A", "B", "A", "Y")
        assert route.occurrence_labels == (0, 0, 0, 1, 0)

    def test_route_needs_a_step(self):
        with pytest.raises(GraphError):
            Route("A", ())


class TestBlocking:
    def test_fork_blocked_by_middle(self, fig1a):
        assert path_blocked(fig1a, p("X <- Z -> Y"), {"Z"})
        assert not path_blocked(fig1a, p("X <- Z -> Y"), set())

    def test_collider_blocked_when_unconditioned(self):
        g = graph_from_edges([("A", "C"), ("B", "C")])
        assert path_blocked(g, p("A -> C <- B"), set())
        assert not path_blocked(g, p("A -> C <- B"), {"C"})

    def test_collider_opened_by_descendant(self):
        g = graph_from_edges([("A", "C"), ("B", "C"), ("C", "D")])
        assert not path_blocked(g, p("A -> C <- B"), {"D"})

    def test_bidirected_ends_are_heads(self, fig1c):
        # X <-> Y has no interior, so nothing can block it.
        assert not path_blocked(fig1c, p("X <-> Y"), {"Z"})
        assert not path_blocked(fig1c, p("X <-> Y"), set())

    def test_chain_middle_in_given(self, fig1c):
        assert path_blocked(fig1c, p("X -> Z -> Y"), {"Z"})

    def test_matches_per_collider_rule_on_every_three_node_path(self):
        for graph in all_mixed_graphs(3):
            for a, b in permutations(graph.nodes, 2):
                for path in enumerate_paths(graph, {a}, {b}):
                    for z in subsets_of(graph.nodes):
                        assert path_blocked(graph, path, z) == reference_path_blocked(graph, path, z), (path, z)

    def test_collider_via_bidirected_marks(self):
        g = graph_from_edges([("A", "C")], [("B", "C")])
        # C has a head from A -> C and a head from C <-> B.
        assert path_blocked(g, p("A -> C <-> B"), set())
        assert not path_blocked(g, p("A -> C <-> B"), {"C"})

    def test_route_blocking_uses_per_visit_triples(self):
        g = graph_from_edges([("X", "A"), ("B", "A"), ("A", "Y")])
        route = Route(
            "X",
            (
                Step("X", "A", TAIL, HEAD),
                Step("A", "B", HEAD, TAIL),
                Step("B", "A", TAIL, HEAD),
                Step("A", "Y", TAIL, HEAD),
            ),
        )
        # First visit of A is a collider (X -> A <- B); given {A} it is open,
        # and the second visit (B -> A -> Y) is a non-collider in the given
        # set, so the route is blocked.
        assert path_blocked(g, route, {"A"})
        # Given nothing, the collider visit blocks instead.
        assert path_blocked(g, route, set())
        # Given a descendant of A, the collider opens and the non-collider
        # visit stays unconditioned.
        g2 = graph_from_edges([("X", "A"), ("B", "A"), ("A", "Y"), ("A", "D")])
        assert not path_blocked(g2, route, {"D"})


class TestEnumeratePaths:
    def test_fig1a_two_paths(self, fig1a):
        paths = enumerate_paths(fig1a, {"X"}, {"Y"})
        assert [str(q) for q in paths] == ["X -> Y", "X <- Z -> Y"]

    def test_fig1c_two_paths(self, fig1c):
        paths = enumerate_paths(fig1c, {"X"}, {"Y"})
        assert sorted(str(q) for q in paths) == ["X -> Z -> Y", "X <-> Y"]

    def test_disconnected(self):
        g = parse_graph("node A B\n")
        assert enumerate_paths(g, {"A"}, {"B"}) == []

    def test_interior_avoids_both_sets(self):
        g = graph_from_edges([("A", "M"), ("M", "B"), ("A", "B2"), ("B2", "M")])
        paths = enumerate_paths(g, {"A"}, {"B", "B2"})
        for path in paths:
            assert not set(path.nodes[1:-1]) & {"A", "B", "B2"}

    def test_max_len_caps_steps(self, fig1a):
        paths = enumerate_paths(fig1a, {"X"}, {"Y"}, max_len=1)
        assert [str(q) for q in paths] == ["X -> Y"]

    def test_negative_max_len_rejected(self, fig1a):
        assert enumerate_paths(fig1a, {"X"}, {"Y"}, max_len=0) == []
        with pytest.raises(ValueError, match="max_len"):
            enumerate_paths(fig1a, {"X"}, {"Y"}, max_len=-1)
        for max_len in (1.5, True, "2"):  # a cap that is not an integer
            with pytest.raises(ValueError, match="max_len is not an integer"):
                enumerate_paths(fig1a, {"X"}, {"Y"}, max_len=max_len)

    def test_overlapping_sets_rejected(self, fig1a):
        with pytest.raises(GraphError):
            enumerate_paths(fig1a, {"X"}, {"X", "Y"})

    def test_deterministic_order(self, fig1c):
        first = [str(q) for q in enumerate_paths(fig1c, {"X"}, {"Y"})]
        second = [str(q) for q in enumerate_paths(fig1c, {"X"}, {"Y"})]
        assert first == second

    def test_parallel_edges_give_two_paths(self):
        g = graph_from_edges([("A", "B")], [("A", "B")])
        paths = enumerate_paths(g, {"A"}, {"B"})
        assert sorted(str(q) for q in paths) == ["A -> B", "A <-> B"]

    def test_long_chain_does_not_recurse(self):
        chain = parse_graph("\n".join(f"V{i} -> V{i + 1}" for i in range(1499)))
        paths = enumerate_paths(chain, {"V0"}, {"V1499"})
        assert [len(q.steps) for q in paths] == [1499]
        witness = d_separated(chain, {"V0"}, {"V1499"}, set()).witness
        assert witness == paths[0]


class TestDSeparated:
    def test_fig1b_screening(self, fig1b):
        assert d_separated(fig1b, {"Z"}, {"Y"}, {"X"}).separated

    def test_fig1a_connected_with_witness(self, fig1a):
        verdict = d_separated(fig1a, {"Z"}, {"Y"}, {"X"})
        assert not verdict.separated
        assert str(verdict.witness) == "Z -> Y"

    def test_no_path_separated_by_nothing(self):
        g = parse_graph("node A B")
        assert d_separated(g, {"A"}, {"B"}, set()).separated

    def test_witness_none_when_separated(self, fig1b):
        assert d_separated(fig1b, {"Z"}, {"Y"}, {"X"}).witness is None

    def test_witness_is_open(self, fig1a, fig1c):
        for g, z in ((fig1a, set()), (fig1c, {"Z"})):
            verdict = d_separated(g, {"X"}, {"Y"}, z)
            assert not verdict.separated
            assert not path_blocked(g, verdict.witness, z)

    def test_witness_shortest_then_lexicographic(self):
        g = graph_from_edges([("A", "M"), ("M", "B"), ("A", "K"), ("K", "B")])
        verdict = d_separated(g, {"A"}, {"B"}, set())
        assert str(verdict.witness) == "A -> K -> B"

    def test_disjointness_required(self, fig1a):
        with pytest.raises(GraphError):
            d_separated(fig1a, {"X"}, {"Y"}, {"X"})
        with pytest.raises(GraphError):
            d_separated(fig1a, {"X"}, {"X"}, set())

    def test_symmetric(self, fig1a, fig1c):
        for g in (fig1a, fig1c):
            for z in subsets_of(set(g.nodes) - {"X", "Y"}):
                assert (
                    d_separated(g, {"X"}, {"Y"}, z).separated
                    == d_separated(g, {"Y"}, {"X"}, z).separated
                )

    def test_collider_descendant_conditioning_connects(self):
        g = graph_from_edges([("A", "C"), ("B", "C"), ("C", "D")])
        assert d_separated(g, {"A"}, {"B"}, set()).separated
        assert not d_separated(g, {"A"}, {"B"}, {"D"}).separated

    def test_d_connected_nodes(self, fig1a):
        assert d_connected_nodes(fig1a, {"X"}, set()) == {"X", "Y", "Z"}
        # Z is still reached (a path may end at a conditioned node), but
        # nothing is reached through it.
        g = graph_from_edges([("X", "M"), ("M", "W")])
        assert d_connected_nodes(g, {"X"}, {"M"}) == {"X", "M"}

    def test_d_connected_nodes_rejects_overlap(self, fig1a):
        with pytest.raises(GraphError):
            d_connected_nodes(fig1a, {"X"}, {"X"})

    def test_long_chain_given_every_other_node(self):
        # An(given) is one closure of the whole set, not one per member
        chain = chain_graph(3000)
        given = set(chain.nodes[1:-1:2])
        started = time.perf_counter()
        assert d_separated(chain, {"V0"}, {"V2999"}, given).separated
        assert time.perf_counter() - started < 0.5


class TestLookupCount:
    """``perfbench/workloads.py`` caps each scale call at a number of
    neighbourhood lookups, counted by rebinding ``separation.incident_marks``.
    A sweep that read adjacency some other way would lift that cap unseen."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"lookups": 0, "states": 0}
        lookup, sweep = separation.incident_marks, separation._sweep

        def counted_lookup(graph, v):
            counts["lookups"] += 1
            return lookup(graph, v)

        def counted_sweep(*args):
            layers, onward = sweep(*args)
            counts["states"] += len(onward)  # one entry per state expanded
            return layers, onward

        monkeypatch.setattr(separation, "incident_marks", counted_lookup)
        monkeypatch.setattr(separation, "_sweep", counted_sweep)
        return counts

    def test_one_lookup_per_state_of_a_chain_decision(self, counts):
        assert not d_separated(chain_graph(200), {"V0"}, {"V199"}, set()).separated
        assert counts["states"] == 199
        assert counts["lookups"] >= counts["states"]

    def test_one_lookup_per_state_of_a_set_enumeration(self, counts, fig1a):
        assert enumerate_adjustment_sets(fig1a, {"X"}, {"Y"}) == [{"Z"}]
        assert counts["states"] > 0
        assert counts["lookups"] >= counts["states"]

    @pytest.mark.parametrize(
        "verdict", [adjustment_criterion, backdoor_criterion, graphical_ignorability, magnification_check]
    )
    def test_every_verdict_sweeps_through_the_counted_lookups(self, counts, verdict):
        verdict(chain_graph(200), AdjustmentQuery(frozenset({"V0"}), frozenset({"V199"})))
        assert counts["states"] > 0
        assert counts["lookups"] >= counts["states"]

    @pytest.mark.parametrize("verdict", [graphical_ignorability, magnification_check])
    def test_view_sweeps_look_up_every_expanded_node_of_the_graph(self, monkeypatch, verdict):
        """The twin and magnified verdicts sweep views of the graph: a state
        (v, world) or v of the graph costs a lookup of v, and only the view's
        own sources and mediators, ("W", A, B) and ("C", Y, C), cost none."""
        lookups, states = Counter(), []
        lookup, sweep = separation.incident_marks, separation._sweep

        def counted_lookup(graph, v):
            lookups[v] += 1
            return lookup(graph, v)

        def recorded_sweep(*args):
            layers, onward = sweep(*args)
            states.extend(v for v, _ in onward)
            return layers, onward

        monkeypatch.setattr(separation, "incident_marks", counted_lookup)
        monkeypatch.setattr(separation, "_sweep", recorded_sweep)
        g = parse_graph("A -> X\nX -> M\nM -> Y\nY -> D\nY -> E\nA <-> Y\nM <-> D\nB <-> X\nB -> E")
        for query in all_queries(g):
            verdict(g, query)
        expanded = Counter(v if isinstance(v, str) else v[0] for v in states if isinstance(v, str) or len(v) == 2)
        assert set(expanded) == set(g.nodes)
        assert any(isinstance(v, tuple) and v[-1] != 0 for v in states)  # @do copies, sources or mediators
        assert all(lookups[v] >= n for v, n in expanded.items())


def _agreement_queries(graph, rng=None, cap=None):
    """(first, second, given) triples for the oracle comparison."""
    nodes = sorted(graph.nodes)
    triples = []
    for a in nodes:
        for b in nodes:
            if b <= a:
                continue
            rest = [v for v in nodes if v not in (a, b)]
            for given in subsets_of(rest):
                triples.append((frozenset({a}), frozenset({b}), given))
    if cap is not None and len(triples) > cap:
        triples = rng.sample(triples, cap)
    return triples


class TestReachabilityMatchesEnumeration:
    """The linear-time decision must agree with brute-force path checking."""

    def test_exhaustive_three_node_mixed(self):
        for g in all_mixed_graphs(3):
            for a, b, z in _agreement_queries(g):
                assert d_separated(g, a, b, z).separated == brute_d_separated(g, a, b, z)

    def test_exhaustive_four_node_dags(self):
        for g in all_dags(4):
            for a, b, z in _agreement_queries(g):
                assert d_separated(g, a, b, z).separated == brute_d_separated(g, a, b, z)

    def test_sampled_larger_mixed_graphs(self):
        rng = random.Random(42)
        for size in (4, 5, 6):
            for i in range(500):
                g = random_admg(random.Random(9000 + size * 1000 + i), n_nodes=size, max_edges=size + 3)
                for a, b, z in _agreement_queries(g, rng, cap=12):
                    assert (
                        d_separated(g, a, b, z).separated
                        == brute_d_separated(g, a, b, z)
                    ), (g, a, b, z)

    def test_set_valued_queries(self):
        rng = random.Random(7)
        for i in range(200):
            g = random_admg(random.Random(500 + i), n_nodes=5, max_edges=8)
            nodes = sorted(g.nodes)
            for _ in range(8):
                labels = [rng.randrange(4) for _ in nodes]
                a = frozenset(v for v, s in zip(nodes, labels) if s == 0)
                b = frozenset(v for v, s in zip(nodes, labels) if s == 1)
                z = frozenset(v for v, s in zip(nodes, labels) if s == 2)
                if not a or not b:
                    continue
                assert d_separated(g, a, b, z).separated == all(
                    path_blocked(g, q, z) for q in enumerate_paths(g, a, b)
                )


class TestDirectRoute:
    def test_plain_path_is_unchanged(self, fig1a):
        path = p("X <- Z -> Y")
        route = Route(path.start, path.steps)
        assert direct_route(fig1a, route) == path

    def test_detour_is_skipped(self):
        g = graph_from_edges([("X", "A"), ("B", "A"), ("A", "Y")])
        route = Route(
            "X",
            (
                Step("X", "A", TAIL, HEAD),
                Step("A", "B", HEAD, TAIL),
                Step("B", "A", TAIL, HEAD),
                Step("A", "Y", TAIL, HEAD),
            ),
        )
        assert str(direct_route(g, route)) == "X -> A -> Y"

    def test_repeated_fork_node(self):
        g = graph_from_edges([("C", "A"), ("C", "B"), ("C", "D")])
        route = Route(
            "A",
            (
                Step("A", "C", HEAD, TAIL),
                Step("C", "B", TAIL, HEAD),
                Step("B", "C", HEAD, TAIL),
                Step("C", "D", TAIL, HEAD),
            ),
        )
        assert str(direct_route(g, route)) == "A <- C -> D"

    def test_closed_loop_route_collapses_to_trivial_path(self):
        g = graph_from_edges([("A", "B")])
        route = Route("A", (Step("A", "B", TAIL, HEAD), Step("B", "A", HEAD, TAIL)))
        path = direct_route(g, route)
        assert path.nodes == ("A",)

    def test_output_is_always_a_path_and_openness_survives(self):
        """Collapsing a route yields a valid path; an open route never
        collapses to a blocked path (checked on 20 graphs x 1000 routes in
        the acceptance suite; a smaller sweep here for quick feedback)."""
        for i in range(5):
            g = random_admg(random.Random(100 + i), n_nodes=5, max_edges=8)
            rng = random.Random(i)
            for _ in range(150):
                route = random_route(rng, g)
                if route is None:
                    continue
                path = direct_route(g, route)
                path.validate_in(g)
                assert len(set(path.nodes)) == len(path.nodes)
                assert path.start == route.nodes[0]
                assert path.end == route.end
                others = set(g.nodes) - {route.nodes[0], route.end}
                for given in subsets_of(others):
                    if not path_blocked(g, route, given):
                        assert not path_blocked(g, path, given), (route, path, given)


class TestInducingPaths:
    def test_direct_bidirected_edge(self, fig1c):
        path = find_inducing_path(fig1c, {"X"}, {"Y"})
        assert str(path) == "X <-> Y"

    def test_adjacent_nodes_always_inducing(self, fig1a):
        path = find_inducing_path(fig1a, {"Z"}, {"Y"})
        assert str(path) == "Z -> Y"

    def test_mediated_chain_has_none(self):
        g = graph_from_edges([("A", "M"), ("M", "B")])
        assert find_inducing_path(g, {"A"}, {"B"}) is None

    def test_collider_interior_must_be_ancestral(self):
        # A <-> C <-> B with C a pure sink: C is a collider on the path but
        # not an ancestor of either endpoint, so the path does not qualify.
        g = graph_from_edges([], [("A", "C"), ("B", "C")])
        assert find_inducing_path(g, {"A"}, {"B"}) is None
        # Adding C -> A makes the interior ancestral and the path inducing.
        g2 = graph_from_edges([("C", "A")], [("A", "C"), ("B", "C")])
        assert str(find_inducing_path(g2, {"A"}, {"B"})) == "A <-> C <-> B"

    def test_inducing_iff_inseparable_small(self):
        """Existence of an inducing path should coincide with no conditioning
        set separating the pair (exhaustive over 3-node mixed graphs)."""
        for g in all_mixed_graphs(3):
            nodes = sorted(g.nodes)
            for a in nodes:
                for b in nodes:
                    if b <= a:
                        continue
                    rest = [v for v in nodes if v not in (a, b)]
                    inseparable = all(
                        not d_separated(g, {a}, {b}, z).separated
                        for z in subsets_of(rest)
                    )
                    has_inducing = find_inducing_path(g, {a}, {b}) is not None
                    assert has_inducing == inseparable, (g, a, b)

    def test_ancestral_set_separates_when_no_inducing_path(self):
        rng = random.Random(77)
        for i in range(150):
            g = random_admg(random.Random(40_000 + i), n_nodes=5, max_edges=8)
            nodes = sorted(g.nodes)
            a, b = rng.sample(nodes, 2)
            if find_inducing_path(g, {a}, {b}) is not None:
                continue
            blocker = ancestors(g, {a, b}) - {a, b}
            assert d_separated(g, {a}, {b}, blocker).separated, (g, a, b)

    def test_overlap_rejected(self, fig1a):
        with pytest.raises(GraphError):
            find_inducing_path(fig1a, {"X"}, {"X", "Y"})


def reference_witness(graph, first, second, given):
    """The least open path by full enumeration, or None."""
    open_paths = [q for q in enumerate_paths(graph, first, second) if not path_blocked(graph, q, given)]
    return min(open_paths, key=_path_key, default=None)


def reference_inducing_path(graph, first, second):
    """The least inducing path by full enumeration, or None."""
    anc = ancestors(graph, first | second)
    inducing = [
        q
        for q in enumerate_paths(graph, first, second)
        if set(q.nodes) <= anc
        and all(q.steps[i - 1].target_mark == HEAD and q.steps[i].source_mark == HEAD for i in range(1, len(q.steps)))
    ]
    return min(inducing, key=_path_key, default=None)


@st.composite
def witness_cases(draw, max_nodes: int = 7):
    """A graph of up to ``max_nodes`` nodes, parallel ``->``/``<->`` pairs
    included, plus disjoint nonempty endpoint sets and a conditioning set."""
    nodes = "ABCDEFG"[: draw(st.integers(min_value=2, max_value=max_nodes))]
    order = draw(st.permutations(nodes))
    dir_pairs = [(a, b) for i, a in enumerate(order) for b in order[i + 1 :]]
    directed = draw(st.sets(st.sampled_from(dir_pairs), max_size=10))
    bidirected = draw(st.sets(st.sampled_from(list(combinations(nodes, 2))), max_size=6))
    parallel = draw(st.sets(st.sampled_from(sorted(directed)), max_size=3)) if directed else set()
    bidirected |= {tuple(sorted(e)) for e in parallel}
    graph = Admg(tuple(nodes), frozenset(directed), frozenset(bidirected))
    roles = draw(st.lists(st.sampled_from("fsgn"), min_size=len(nodes), max_size=len(nodes)))
    roles[0], roles[-1] = "f", "s"
    sets = {r: frozenset(v for v, role in zip(nodes, roles) if role == r) for r in "fsg"}
    return graph, sets["f"], sets["s"], sets["g"]


class TestWitnessMatchesEnumeration:
    """The layered search returns exactly the least enumerated path."""

    def test_exhaustive_three_node_mixed(self):
        for g in all_mixed_graphs(3):
            for a, b, z in _agreement_queries(g):
                verdict = d_separated(g, a, b, z)
                assert str(verdict.witness) == str(reference_witness(g, a, b, z)), (g, a, b, z)
                assert str(find_inducing_path(g, a, b)) == str(reference_inducing_path(g, a, b)), (g, a, b)

    @given(witness_cases())
    @settings(deadline=None, max_examples=300)
    def test_random_graphs_with_parallel_edges(self, case):
        g, a, b, z = case
        assert str(d_separated(g, a, b, z).witness) == str(reference_witness(g, a, b, z))
        assert str(find_inducing_path(g, a, b)) == str(reference_inducing_path(g, a, b))


class TestLargeGraphs:
    """Agreement at a size path enumeration cannot reach."""

    def test_thousand_nodes_against_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(2024)
        n = 1000
        names = [f"V{i}" for i in range(n)]
        directed = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 3 / n]
        bidirected = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 1 / n]
        g = Admg.build(directed, bidirected, names)
        dag, _ = expand_bidirected(g)
        nxg = nx.DiGraph(list(dag.directed))
        nxg.add_nodes_from(dag.nodes)
        failing = 0
        for _ in range(40):
            x, y, *z = rng.sample(names, 2 + n // 20)
            verdict = d_separated(g, {x}, {y}, z)
            assert verdict.separated == nx.is_d_separator(nxg, {x}, {y}, set(z)), (x, y)
            if not verdict.separated:
                failing += 1
                witness = verdict.witness
                assert (witness.start, witness.end) == (x, y)
                assert not path_blocked(g, witness, z)
        assert failing >= 10
        directed_part = nx.DiGraph(list(g.directed))
        directed_part.add_nodes_from(names)
        for size in (1, 1, 2, 5, 20, 100, 500):
            nodes = rng.sample(names, size)
            assert (ancestors(g, nodes), descendants(g, nodes)) == networkx_closures(directed_part, nodes)

    def test_connected_nodes_against_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(77)
        n = 200
        names = [f"V{i}" for i in range(n)]
        directed = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 3 / n]
        bidirected = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 1 / n]
        g = Admg.build(directed, bidirected, names)
        dag, _ = expand_bidirected(g)
        nxg = nx.DiGraph(list(dag.directed))
        nxg.add_nodes_from(dag.nodes)
        for _ in range(5):
            drawn = rng.sample(names, 3 + n // 10)
            sources, given = set(drawn[:3]), set(drawn[3:])
            connected = d_connected_nodes(g, sources, given)
            for v in set(names) - sources - given:
                assert (v in connected) == (not nx.is_d_separator(nxg, sources, {v}, given)), v
