"""Graph type, parser, and structural transforms."""

import random
import re
import time
import tracemalloc
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjustkit import (
    AdjustmentQuery,
    Admg,
    CycleError,
    Dist,
    GraphError,
    GraphParseError,
    UnknownNodeError,
    adjustment_criterion,
    ancestors,
    backdoor_criterion,
    canonical_adjustment_set,
    cut_incoming,
    cut_outgoing,
    d_separated,
    descendants,
    enumerate_adjustment_sets,
    exists_adjustment_set,
    expand_bidirected,
    graphical_ignorability,
    interventional,
    latent_project,
    magnification_check,
    magnify,
    parse_graph,
    proper_backdoor_graph,
    proper_causal_nodes,
    random_scm,
    remove_nodes,
    topological_order,
)
from adjustkit.cli import run
from adjustkit.graph import HEAD, TAIL
from adjustkit.scm import independence_gap
from adjustkit.separation import enumerate_paths, find_inducing_path
from adjustkit.twin import noise_linked, twin_network
from conftest import (
    FIXTURE_DIR,
    all_mixed_graphs,
    chain_graph,
    graph_family,
    graph_from_edges,
    load_fixture,
    networkx_closures,
    sparse_admg,
    subsets_of,
)


def adjacency(g: Admg):
    """Parent, child and spouse tables, with their key order."""
    return [list(table.items()) for table in (g._parents, g._children, g._spouses)]


def reference_adjacency(g: Admg):
    """The same tables read off the edge sets."""
    return [
        [(v, frozenset(a for a, b in g.directed if b == v)) for v in g.nodes],
        [(v, frozenset(b for a, b in g.directed if a == v)) for v in g.nodes],
        [(v, frozenset(w for pair in g.bidirected if v in pair for w in pair if w != v)) for v in g.nodes],
    ]


class TestParse:
    def test_fig1a_shape(self, fig1a):
        assert fig1a.nodes == ("Z", "X", "Y")
        assert fig1a.directed == {("Z", "X"), ("Z", "Y"), ("X", "Y")}
        assert fig1a.bidirected == frozenset()

    def test_empty_text_gives_empty_graph(self):
        g = parse_graph("")
        assert g.nodes == ()
        assert g.directed == frozenset()

    def test_first_mention_order(self):
        g = parse_graph("B -> C\nA -> B")
        assert g.nodes == ("B", "C", "A")

    def test_node_line_declares_order(self):
        g = parse_graph("node P Q R\nR -> P")
        assert g.nodes == ("P", "Q", "R")

    def test_comments_and_blank_lines(self):
        g = parse_graph("# top\n\nA -> B  # trailing\n   \n")
        assert g.directed == {("A", "B")}

    def test_bidirected_stored_sorted(self):
        g = parse_graph("B <-> A")
        assert g.bidirected == {("A", "B")}

    def test_parallel_directed_and_bidirected(self):
        g = parse_graph("A -> B\nA <-> B")
        assert ("A", "B") in g.directed
        assert ("A", "B") in g.bidirected

    def test_cycle_rejected(self):
        with pytest.raises(CycleError):
            parse_graph("A -> B\nB -> A")

    def test_longer_cycle_rejected(self):
        with pytest.raises(CycleError):
            parse_graph("A -> B\nB -> C\nC -> A")

    def test_cycle_error_names_the_nodes_on_or_below_a_cycle(self):
        # B and C form the cycle, D hangs below it; A feeds it and E is apart
        with pytest.raises(CycleError) as err:
            parse_graph("node E\nD <-> E\nA -> B\nB -> C\nC -> B\nC -> D")
        assert str(err.value) == "cycle detected in directed part (involving B, C, D)"

    def test_self_loop_rejected(self):
        with pytest.raises(GraphParseError):
            parse_graph("A -> A")

    def test_duplicate_directed_edge(self):
        with pytest.raises(GraphParseError) as err:
            parse_graph("A -> B\nA -> B")
        assert err.value.line == 2

    def test_duplicate_bidirected_either_orientation(self):
        with pytest.raises(GraphParseError):
            parse_graph("A <-> B\nB <-> A")

    def test_bad_token_reports_position(self):
        cases = [
            ("A -> B\nA => B", 2, 3, "unexpected character '='"),
            ("A -> B@", 1, 7, "unexpected character '@'"),
            ("A -> B -> C", 1, 8, "expected 'A -> B'"),
            ("node A\n\t A <- B", 2, 5, "unexpected character '<'"),
            ("A -> B # ok\nA\u00a0-> C$", 2, 7, "unexpected character '$'"),
            # every kind of error, each at its line and column
            ("A -> B\n  node  # nothing declared", 2, 3, "node line declares no nodes"),
            ("node A B -> C", 1, 10, "arrow in node declaration"),
            ("A -> B\nB -> B", 2, 1, "self-loop on B"),
            ("A -> B\n A <-> C\n\n  A -> B", 4, 3, "duplicate edge A -> B"),
            ("A <-> B\n\tB <-> A", 2, 2, "duplicate edge B <-> A"),
            ("X -> A@doB", 1, 10, "expected 'A -> B'"),
            ("A@doB -> C", 1, 5, "expected 'A -> B'"),
            ("node\u00a0A\u00a0B\u00a0->\u00a0C", 1, 10, "arrow in node declaration"),
            ("node\u00a0A\u00a0B\u00a0%", 1, 10, "unexpected character '%'"),
            # ``node -> A`` is an edge, so a second one is a duplicate, and
            # ``node -> A -> B`` is a node line with an arrow in it
            ("node -> A\nnode -> A", 2, 1, "duplicate edge node -> A"),
            ("node -> A -> B", 1, 6, "arrow in node declaration"),
            ("A -> B\nnode node\nnode -> node", 3, 1, "self-loop on node"),
        ]
        for text, line, column, message in cases:
            with pytest.raises(GraphParseError, match=re.escape(message)) as err:
                parse_graph(text)
            assert (err.value.line, err.value.column) == (line, column)

    def test_bad_node_line_fails_fast(self):
        # a node-line pattern that could split one run of letters into names
        # in many ways takes exponential time to reject this line (1.5 s at 24)
        started = time.perf_counter()
        with pytest.raises(GraphParseError, match="column 36: unexpected character '!'"):
            parse_graph("node " + "a" * 30 + "!")
        assert time.perf_counter() - started < 1.0

    def test_malformed_edge_line(self):
        with pytest.raises(GraphParseError):
            parse_graph("A ->")
        with pytest.raises(GraphParseError):
            parse_graph("A -> B -> C")
        with pytest.raises(GraphParseError):
            parse_graph("-> B")

    def test_empty_node_line(self):
        with pytest.raises(GraphParseError):
            parse_graph("node")

    def test_do_suffix_names_parse(self):
        g = parse_graph("X@do -> Y@do")
        assert g.nodes == ("X@do", "Y@do")

    def test_round_trip_through_text(self, fig1c):
        # a node named ``node`` may start an edge line
        named_node = Admg.build([("node", "A")], [("B", "node")])
        assert "node -> A" in named_node.to_text()
        for g in (fig1c, named_node):
            assert parse_graph(g.to_text()) == g

    def test_round_trip_preserves_node_order(self):
        g = parse_graph("node Q A\nA -> Q")
        assert parse_graph(g.to_text()).nodes == ("Q", "A")


class TestAdmgValue:
    def test_build_collects_first_mention_order(self):
        g = Admg.build(directed=[("B", "C"), ("A", "B")])
        assert g.nodes == ("B", "C", "A")

    def test_build_sorts_bidirected(self):
        g = Admg.build(bidirected=[("B", "A")])
        assert g.bidirected == {("A", "B")}

    def test_constructor_rejects_undeclared_endpoint(self):
        with pytest.raises(UnknownNodeError):
            Admg(("A",), frozenset({("A", "B")}), frozenset())

    def test_constructor_rejects_unsorted_bidirected(self):
        with pytest.raises(GraphError):
            Admg(("A", "B"), frozenset(), frozenset({("B", "A")}))

    def test_constructor_rejects_duplicate_node(self):
        with pytest.raises(GraphError):
            Admg(("A", "A"), frozenset(), frozenset())

    def test_constructor_rejects_bad_name(self):
        with pytest.raises(GraphError):
            Admg(("A B",), frozenset(), frozenset())

    @pytest.mark.parametrize("name", ["", 7, None, ("A",), "A\tB", "A\u00a0B", "A\n", "A-B", "1x", "\u00e9", "A@B"])
    def test_constructor_rejects_empty_non_str_and_spaced_names(self, name):
        with pytest.raises(GraphError, match="bad node name"):
            Admg((name,), frozenset(), frozenset())

    @given(st.lists(st.sampled_from(["A", "z", "_", "7", "@do", "@", "-", "\u00e9", " ", "#", "node", "->"]),
                    max_size=4).map("".join))
    @settings(deadline=None, max_examples=300)
    def test_constructor_accepts_exactly_the_names_the_parser_reads(self, name):
        try:
            read = parse_graph(f"node {name}").nodes == (name,)
        except GraphParseError:
            read = False
        try:
            g = Admg((name, "Q"), {(name, "Q")}, {tuple(sorted((name, "Q")))})
        except GraphError as e:
            assert not read and str(e) == f"bad node name: {name!r}"
        else:
            assert read
            again = parse_graph(g.to_text())
            assert again == g and adjacency(again) == adjacency(g)

    def test_parser_builds_what_the_checked_constructor_builds(self):
        texts = [path.read_text() for path in sorted(FIXTURE_DIR.glob("*.g"))]
        texts += [g.to_text() for g in graph_family()]
        for text in texts:
            parsed = parse_graph(text)
            checked = Admg(parsed.nodes, parsed.directed, parsed.bidirected)
            assert parsed == checked
            assert adjacency(parsed) == adjacency(checked) == reference_adjacency(parsed)

    def test_constructor_rejects_direct_cycle(self):
        with pytest.raises(CycleError):
            Admg(("A", "B", "C"), frozenset({("A", "B"), ("B", "C"), ("C", "A")}), frozenset())

    def test_constructor_rejects_directed_self_loop(self):
        with pytest.raises(GraphError, match="self-loop on A"):
            Admg(("A",), frozenset({("A", "A")}), frozenset())

    def test_constructor_rejects_bidirected_self_loop(self):
        with pytest.raises(GraphError, match="self-loop on A"):
            Admg(("A",), frozenset(), frozenset({("A", "A")}))

    def test_equality_is_structural(self):
        a = graph_from_edges([("A", "B")])
        b = Admg(("A", "B"), frozenset({("A", "B")}), frozenset())
        assert a == b
        assert hash(a) == hash(b)

    def test_accessors(self, fig1a):
        assert fig1a.parents("Y") == {"Z", "X"}
        assert fig1a.children("Z") == {"X", "Y"}
        assert fig1a.spouses("X") == frozenset()

    def test_spouses(self, fig1c):
        assert fig1c.spouses("X") == {"Y"}
        assert fig1c.spouses("Y") == {"X"}

    def test_unknown_node_accessor(self, fig1a):
        with pytest.raises(UnknownNodeError):
            fig1a.parents("Q")

    def test_node_subset_validates(self, fig1a):
        with pytest.raises(UnknownNodeError):
            fig1a.node_subset({"Z", "Q"})

    def test_bare_string_is_not_a_node_set(self):
        # "AB" is one legal node name; iterating the string would read A and B
        g = parse_graph("AB -> C\nA -> B\nB -> C\n")
        dist = Dist(("A", "AB", "B"), (2, 2, 2), np.full((2, 2, 2), 0.125))
        scm = random_scm(g, seed=0)
        calls = [
            lambda: g.node_subset("AB"),
            lambda: descendants(g, "AB"),
            lambda: d_separated(g, "AB", "C", ()),
            lambda: AdjustmentQuery("AB", {"C"}),
            lambda: AdjustmentQuery({"AB"}, "C"),
            lambda: AdjustmentQuery({"AB"}, {"C"}, "B"),
            lambda: dist.marginal("AB"),
            lambda: interventional(scm, {}, "AB"),
            lambda: independence_gap(dist, {"B"}, "AB", ()),
            lambda: Admg("AB"),
            lambda: Admg.build(nodes="AB"),
        ]
        for call in calls:
            with pytest.raises(TypeError, match="not the string"):
                call()
        assert descendants(g, {"AB"}) == {"AB", "C"}
        assert dist.marginal({"AB"}).names == ("AB",)
        assert independence_gap(dist, {"B"}, {"AB"}, ()) == 0.0
        assert Admg(["AB", "A"]).nodes == Admg.build(nodes=("AB", "A")).nodes == ("AB", "A")


class TestAncestry:
    def test_ancestors_fig1a(self, fig1a):
        assert ancestors(fig1a, {"Y"}) == {"Z", "X", "Y"}

    def test_ancestors_fig1c(self, fig1c):
        assert ancestors(fig1c, {"Y"}) == {"X", "Z", "Y"}

    def test_ancestors_empty(self, fig1a):
        assert ancestors(fig1a, set()) == frozenset()

    def test_descendants_fig1b(self, fig1b):
        assert descendants(fig1b, {"X"}) == {"X", "Y", "Z"}

    def test_descendants_fig1a(self, fig1a):
        assert descendants(fig1a, {"Z"}) == {"Z", "X", "Y"}

    def test_descendants_empty(self, fig1b):
        assert descendants(fig1b, set()) == frozenset()

    def test_reflexive(self, fig1a):
        for v in fig1a.nodes:
            assert v in ancestors(fig1a, {v})
            assert v in descendants(fig1a, {v})

    def test_bidirected_does_not_carry_ancestry(self, fig1c):
        assert "X" not in ancestors(fig1c, {"Y"}) - descendants(fig1c, {"X"}) or True
        assert ancestors(fig1c, {"X"}) == {"X"}

    def test_unknown_node(self, fig1a):
        with pytest.raises(UnknownNodeError):
            ancestors(fig1a, {"nope"})

    def test_every_three_node_subset_against_networkx(self):
        nx = pytest.importorskip("networkx")
        for graph in all_mixed_graphs(3):
            nxg = nx.DiGraph(list(graph.directed))
            nxg.add_nodes_from(graph.nodes)
            for nodes in subsets_of(graph.nodes):
                assert (ancestors(graph, nodes), descendants(graph, nodes)) == networkx_closures(nxg, nodes)

    def test_closure_of_every_chain_node_is_one_set(self):
        # one traversal from all seeds, not one closure kept per seed
        chain = chain_graph(3000)
        tracemalloc.start()
        try:
            assert ancestors(chain, chain.nodes) == frozenset(chain.nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20


class TestCuts:
    def test_cut_incoming_fig1a(self, fig1a):
        g = cut_incoming(fig1a, {"X"})
        assert g.directed == {("Z", "Y"), ("X", "Y")}
        assert g.nodes == fig1a.nodes

    def test_cut_incoming_empty_set_is_identity(self, fig1a):
        assert cut_incoming(fig1a, set()) == fig1a

    def test_cut_incoming_drops_bidirected_at_target(self, fig1c):
        g = cut_incoming(fig1c, {"X"})
        assert g.directed == {("X", "Z"), ("Z", "Y")}
        assert g.bidirected == frozenset()

    def test_cut_outgoing_fig1a(self, fig1a):
        g = cut_outgoing(fig1a, {"X"})
        assert g.directed == {("Z", "X"), ("Z", "Y")}

    def test_cut_outgoing_keeps_bidirected(self, fig1c):
        g = cut_outgoing(fig1c, {"X"})
        assert g.directed == {("Z", "Y")}
        assert g.bidirected == {("X", "Y")}

    def test_cut_outgoing_empty_is_identity(self, fig1c):
        assert cut_outgoing(fig1c, set()) == fig1c

    def test_cuts_idempotent(self, fig1a, fig1c):
        for g in (fig1a, fig1c):
            for x in ({"X"}, {"X", "Y"}):
                once = cut_incoming(g, x)
                assert cut_incoming(once, x) == once
                once = cut_outgoing(g, x)
                assert cut_outgoing(once, x) == once

    def test_remove_nodes(self, fig1c):
        g = remove_nodes(fig1c, {"Z"})
        assert g.nodes == ("X", "Y")
        assert g.directed == frozenset()
        assert g.bidirected == {("X", "Y")}


def reference_projection(graph, hidden):
    """Latent projection read off every collider-free path whose interior
    lies in ``hidden``, one enumeration per ordered pair of kept nodes."""
    keep = tuple(v for v in graph.nodes if v not in hidden)
    directed, bidirected = set(), set()
    for a, b in permutations(keep, 2):
        for q in enumerate_paths(graph, {a}, {b}):
            if not set(q.nodes[1:-1]) <= set(hidden):
                continue
            if any(q.steps[i - 1].target_mark == HEAD and q.steps[i].source_mark == HEAD for i in range(1, len(q.steps))):
                continue
            marks = (q.steps[0].source_mark, q.steps[-1].target_mark)
            if marks == (TAIL, HEAD):
                directed.add((a, b))
            elif marks == (HEAD, HEAD):
                bidirected.add(tuple(sorted((a, b))))
    return Admg(keep, frozenset(directed), frozenset(bidirected))


@st.composite
def hidden_cases(draw, max_nodes: int = 7):
    """A graph of up to ``max_nodes`` nodes, parallel ``->``/``<->`` pairs
    included, and a set of nodes to hide."""
    nodes = "ABCDEFG"[: draw(st.integers(min_value=2, max_value=max_nodes))]
    order = draw(st.permutations(nodes))
    dir_pairs = [(a, b) for i, a in enumerate(order) for b in order[i + 1 :]]
    directed = draw(st.sets(st.sampled_from(dir_pairs), max_size=10))
    bidirected = draw(st.sets(st.sampled_from(list(combinations(nodes, 2))), max_size=6))
    parallel = draw(st.sets(st.sampled_from(sorted(directed)), max_size=3)) if directed else set()
    bidirected |= {tuple(sorted(e)) for e in parallel}
    hidden = draw(st.sets(st.sampled_from(nodes)))
    return Admg(tuple(nodes), frozenset(directed), frozenset(bidirected)), frozenset(hidden)


class TestLatentProjection:
    def test_sparse_projection_is_output_sized(self):
        # no pair of kept nodes shares a closure, so no pair is examined
        nodes = tuple(f"K{i}" for i in range(20000)) + ("H",)
        graph = Admg(nodes, frozenset(), frozenset())
        started = time.perf_counter()
        projected = latent_project(graph, {"H"})
        assert time.perf_counter() - started < 1.0
        assert projected.nodes == nodes[:-1]
        assert not projected.directed and not projected.bidirected

    def test_hidden_confounder_becomes_bidirected(self, fig1c):
        g = graph_from_edges([("U", "X"), ("U", "Y"), ("X", "Z"), ("Z", "Y")])
        projected = latent_project(g, {"U"})
        assert projected.directed == fig1c.directed
        assert projected.bidirected == fig1c.bidirected

    def test_empty_projection_is_identity(self, fig1a, fig1c):
        assert latent_project(fig1a, set()) == fig1a
        assert latent_project(fig1c, set()) == fig1c

    def test_directed_chain_through_latents(self):
        g = graph_from_edges([("A", "M1"), ("M1", "M2"), ("M2", "B")])
        projected = latent_project(g, {"M1", "M2"})
        assert projected.nodes == ("A", "B")
        assert projected.directed == {("A", "B")}
        assert projected.bidirected == frozenset()

    def test_collider_inside_latents_projects_nothing(self):
        g = graph_from_edges([("A", "M"), ("B", "M")])
        projected = latent_project(g, {"M"})
        assert projected.directed == frozenset()
        assert projected.bidirected == frozenset()

    def test_latent_sink_with_spouse(self):
        # A -> M <-> B with M hidden: the path into M ends with a head at M,
        # and M <-> B leaves with another head, so M is a collider; nothing
        # survives the projection.
        g = graph_from_edges([("A", "M")], [("B", "M")])
        projected = latent_project(g, {"M"})
        assert projected.directed == frozenset()
        assert projected.bidirected == frozenset()

    def test_hidden_node_with_two_spouse_edges_is_a_collider(self):
        # A <-> M <-> B puts arrowheads on both sides of M, so M blocks the
        # path and marginalizing it yields no edge between A and B.
        g = graph_from_edges([], [("M", "A"), ("B", "M")])
        projected = latent_project(g, {"M"})
        assert projected.bidirected == frozenset()
        assert projected.directed == frozenset()

    def test_hidden_common_cause_of_spouses(self):
        # M -> A and M <-> B: the M end of the bidirected edge is a tail on
        # the A side path (M is a non-collider), and the path A <- M <-> B
        # has heads at both A and B, so projection keeps A <-> B.
        g = graph_from_edges([("M", "A")], [("B", "M")])
        projected = latent_project(g, {"M"})
        assert projected.bidirected == {("A", "B")}

    def test_idempotent_on_projected_graph(self, fig1c):
        assert latent_project(fig1c, set()) == fig1c

    def test_expand_then_project_round_trips(self, fig1c):
        dag, mapping = expand_bidirected(fig1c)
        assert latent_project(dag, set(mapping.values())) == fig1c

    def test_projection_is_what_the_checked_constructor_builds(self):
        for g in all_mixed_graphs(3):
            for size in range(4):
                for hidden in combinations(g.nodes, size):
                    projected = latent_project(g, hidden)
                    checked = Admg(projected.nodes, projected.directed, projected.bidirected)
                    assert projected == checked
                    assert adjacency(projected) == adjacency(checked) == reference_adjacency(projected)

    def test_matches_collider_free_paths_on_all_three_node_graphs(self):
        for g in all_mixed_graphs(3):
            for size in range(4):
                for hidden in combinations(g.nodes, size):
                    assert latent_project(g, hidden) == reference_projection(g, hidden), (g, hidden)

    @given(hidden_cases())
    @settings(deadline=None, max_examples=200)
    def test_matches_collider_free_paths_on_random_graphs(self, case):
        g, hidden = case
        assert latent_project(g, hidden) == reference_projection(g, hidden)

    def test_long_hidden_chain(self, tmp_path):
        names = [f"V{i}" for i in range(1500)]
        g = Admg.build(zip(names, names[1:]))
        projected = latent_project(g, names[1:-1])
        assert projected == Admg.build([("V0", "V1499")])
        path = tmp_path / "chain.g"
        path.write_text(g.to_text())
        assert run(["project", "--graph", str(path), "-M", ",".join(names[1:-1])]) == 0

    def test_dense_hidden_dag_is_fast(self):
        hidden = [f"H{i}" for i in range(14)]
        order = ["A", *hidden, "B"]
        g = Admg.build(combinations(order, 2))
        start = time.perf_counter()
        projected = latent_project(g, hidden)
        assert time.perf_counter() - start < 1.0
        assert projected == Admg.build([("A", "B")])


class TestProperCausalNodes:
    def test_fig1c(self, fig1c):
        assert proper_causal_nodes(fig1c, {"X"}, {"Y"}) == {"X", "Z", "Y"}

    def test_fig1b(self, fig1b):
        assert proper_causal_nodes(fig1b, {"X"}, {"Y"}) == {"X", "Y"}

    def test_unreachable_outcome(self):
        g = graph_from_edges([("Y", "X")])
        assert proper_causal_nodes(g, {"X"}, {"Y"}) == frozenset()

    def test_path_through_treatment_is_improper(self):
        # A -> B -> C with both A and B treatments: the only route from A to
        # C re-enters the treatment set, so A contributes nothing.
        g = graph_from_edges([("A", "B"), ("B", "C")])
        assert proper_causal_nodes(g, {"A", "B"}, {"C"}) == {"B", "C"}

    def test_overlapping_sets_rejected(self, fig1a):
        with pytest.raises(GraphError):
            proper_causal_nodes(fig1a, {"X"}, {"X"})

    def test_contained_in_descendant_ancestor_intersection(self, fig1a, fig1b, fig1c):
        for g in (fig1a, fig1b, fig1c):
            pcn = proper_causal_nodes(g, {"X"}, {"Y"})
            assert pcn <= descendants(g, {"X"}) & ancestors(g, {"Y"})


def derived_graphs(graph, targets):
    """Every transform's result on ``graph`` for the node set ``targets``."""
    twin = twin_network(graph, targets)
    out = [
        cut_incoming(graph, targets),
        cut_outgoing(graph, targets),
        remove_nodes(graph, targets),
        expand_bidirected(graph)[0],
        magnify(graph, {e for e in graph.directed if e[0] in targets}),
        twin.graph,
        noise_linked(twin),
    ]
    rest = [v for v in graph.nodes if v not in targets]
    if targets and rest:
        out.append(proper_backdoor_graph(graph, targets, rest[:1]))
    return out


def assert_matches_checked_build(derived):
    """``derived`` equals the checked constructor's graph on its own edges,
    adjacency tables and closures included."""
    checked = Admg(derived.nodes, derived.directed, derived.bidirected)
    assert derived.nodes == checked.nodes
    assert derived.directed == checked.directed
    assert derived.bidirected == checked.bidirected
    for table in ("_parents", "_children", "_spouses"):
        assert list(getattr(derived, table).items()) == list(getattr(checked, table).items())
    for v in derived.nodes:
        assert ancestors(derived, {v}) == ancestors(checked, {v})
        assert descendants(derived, {v}) == descendants(checked, {v})


class TestDerivedGraphs:
    """Transforms build their results through the unchecked ``graph._graph``."""

    def test_every_three_node_graph_and_target_set(self):
        for graph in all_mixed_graphs(3):
            for r in range(4):
                for targets in combinations(graph.nodes, r):
                    for derived in derived_graphs(graph, frozenset(targets)):
                        assert_matches_checked_build(derived)

    @given(hidden_cases())
    @settings(max_examples=200, deadline=None)
    def test_random_graphs_with_parallel_pairs(self, case):
        graph, targets = case
        for derived in derived_graphs(graph, targets):
            assert_matches_checked_build(derived)

    def test_seeded_sparse_graph(self):
        graph = sparse_admg(random.Random(29), 2000)
        targets = frozenset(random.Random(30).sample(graph.nodes, 10))
        for derived in derived_graphs(graph, targets):
            assert_matches_checked_build(derived)

    def test_no_transform_or_procedure_runs_the_checked_constructor(self, monkeypatch):
        graph = parse_graph(
            "X1 -> M\nM -> Y\nX2 -> Y\nW -> X1\nW -> Y\nM -> D\nX1 <-> Y\nX2 <-> W\nM <-> Y"
        )
        xs, ys = {"X1", "X2"}, {"Y"}
        queries = [AdjustmentQuery(xs, ys, z) for z in (set(), {"W"}, {"D"}, {"W", "D"})]
        calls = []
        checked = Admg.__post_init__
        monkeypatch.setattr(Admg, "__post_init__", lambda self: calls.append(1) or checked(self))
        steps = [lambda: derived_graphs(graph, frozenset(xs))]
        for q in queries:
            steps += [
                lambda q=q: adjustment_criterion(graph, q),
                lambda q=q: adjustment_criterion(graph, q, mode="reference"),
                lambda q=q: backdoor_criterion(graph, q),
                lambda q=q: graphical_ignorability(graph, q),
                lambda q=q: magnification_check(graph, q),
            ]
        steps += [
            lambda: canonical_adjustment_set(graph, xs, ys),
            lambda: exists_adjustment_set(graph, xs, ys),
            lambda: enumerate_adjustment_sets(graph, xs, ys),
            lambda: find_inducing_path(graph, {"X1"}, {"Y"}),
        ]
        for step in steps:
            step()
            assert calls == []
        Admg(("A",), frozenset(), frozenset())
        assert calls == [1]  # the counter sees the checked constructor


class TestExpandBidirected:
    def test_fig1c_gains_one_latent(self, fig1c):
        dag, mapping = expand_bidirected(fig1c)
        assert len(dag.nodes) == 4
        assert mapping == {("X", "Y"): "__U_X_Y"}
        assert ("__U_X_Y", "X") in dag.directed
        assert ("__U_X_Y", "Y") in dag.directed
        assert dag.bidirected == frozenset()

    def test_no_bidirected_is_identity_structure(self, fig1a):
        dag, mapping = expand_bidirected(fig1a)
        assert dag == fig1a
        assert mapping == {}

    def test_names_from_do_nodes_parse_back(self):
        g = graph_from_edges([("X", "Y@do")], [("Y@do", "Z")])
        dag, mapping = expand_bidirected(g)
        assert mapping == {("Y@do", "Z"): "__U_Y_do_Z"}
        assert parse_graph(dag.to_text()) == dag

    def test_name_collision_avoided(self):
        g = graph_from_edges([("__U_A_B", "A")], [("A", "B")])
        dag, mapping = expand_bidirected(g)
        assert mapping[("A", "B")] != "__U_A_B"

    def test_caller_edit_does_not_reach_later_calls(self):
        # Each call builds its own result: clearing one returned map must
        # not change what a later call, or a model drawn later, sees.
        edges = ([("Ea", "Eb")], [("Ea", "Eb")])
        expand_bidirected(graph_from_edges(*edges))[1].clear()
        again = graph_from_edges(*edges)
        assert random_scm(again, seed=0).latents == ("__U_Ea_Eb",)
        assert expand_bidirected(again)[1] == {("Ea", "Eb"): "__U_Ea_Eb"}


class TestTopologicalOrder:
    def test_respects_edges(self, fig1a):
        order = topological_order(fig1a)
        pos = {v: i for i, v in enumerate(order)}
        for a, b in fig1a.directed:
            assert pos[a] < pos[b]

    def test_stable_for_node_order(self):
        g = parse_graph("node C B A")
        assert topological_order(g) == ("C", "B", "A")


def test_fixture_files_parse():
    for name in ("fig1a.g", "fig1b.g", "fig1c.g", "fig2_twin.g"):
        g = load_fixture(name)
        assert g.nodes
