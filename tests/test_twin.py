"""Twin-network construction and counterfactual ignorability."""

import random
from itertools import combinations

import pytest

from adjustkit import (
    AdjustmentQuery,
    GraphError,
    adjustment_criterion,
    cut_incoming,
    d_separated,
    descendants,
    graphical_ignorability,
    latent_project,
    noise_linked,
    parse_graph,
    random_scm,
    twin_network,
)
from adjustkit.graph import incident_marks
from adjustkit.scm import counterfactual_joint, independence_gap
from adjustkit.twin import _twin_view
from conftest import all_mixed_graphs, all_queries, graph_family, graph_from_edges, random_admg


def q(x, y, z=()):
    return AdjustmentQuery(frozenset(x), frozenset(y), frozenset(z))


class TestConstruction:
    def test_fork_shares_the_confounder(self, fig1a):
        twin = twin_network(fig1a, {"X"})
        assert set(twin.graph.nodes) == {"Z", "X", "Y", "X@do", "Y@do"}
        assert twin.graph.directed == frozenset(
            {("Z", "X"), ("Z", "Y"), ("X", "Y"), ("Z", "Y@do"), ("X@do", "Y@do")}
        )
        assert twin.graph.parents("X@do") == frozenset()
        assert twin.counterfactual_of["Z"] == "Z"
        assert twin.counterfactual_of["X"] == "X@do"
        assert twin.counterfactual_of["Y"] == "Y@do"

    def test_latent_feeds_both_worlds(self, fig1c):
        twin = twin_network(fig1c, {"X"})
        assert set(twin.graph.nodes) == {
            "X", "Z", "Y", "X@do", "Z@do", "Y@do", "__U_X_Y",
        }
        assert twin.graph.directed == frozenset(
            {
                ("__U_X_Y", "X"),
                ("__U_X_Y", "Y"),
                ("__U_X_Y", "Y@do"),
                ("X", "Z"),
                ("Z", "Y"),
                ("X@do", "Z@do"),
                ("Z@do", "Y@do"),
            }
        )
        assert twin.graph.parents("X@do") == frozenset()

    def test_empty_intervention_is_the_original_graph(self):
        g = graph_from_edges([("A", "B")])
        twin = twin_network(g, set())
        assert twin.graph == g
        assert twin.counterfactual_of == {"A": "A", "B": "B"}

    def test_caller_edit_does_not_reach_later_calls(self):
        g = graph_from_edges([("Ta", "Tb")])
        twin_network(g, {"Ta"}).counterfactual_of["Tb"] = "Tb"
        again = graph_from_edges([("Ta", "Tb")])
        assert twin_network(again, {"Ta"}).counterfactual_of["Tb"] == "Tb@do"

    def test_copy_names_avoid_existing_do_nodes(self):
        # The parser accepts a node named Y@do; copies take the next free
        # name of the form <stem>_..._@do, which still parses.
        g = graph_from_edges([("X", "Y"), ("Y", "Y@do")])
        twin = twin_network(g, {"X"})
        assert twin.counterfactual_of == {"X": "X@do", "Y": "Y_@do", "Y@do": "Y__@do"}
        assert parse_graph(twin.graph.to_text()) == twin.graph
        for query in all_queries(g):
            assert (
                graphical_ignorability(g, query)
                == adjustment_criterion(g, query).holds
            ), query

    def test_latent_names_from_do_nodes_parse_back(self):
        g = graph_from_edges([("X", "Y@do")], [("Y@do", "Z")])
        twin = twin_network(g, {"X"})
        assert "__U_Y_do_Z" in twin.graph.nodes
        assert parse_graph(twin.graph.to_text()) == twin.graph

    def test_unknown_treatment_rejected(self, fig1a):
        with pytest.raises(GraphError):
            twin_network(fig1a, {"Q"})

    def test_bidirected_free(self, fig1a):
        assert twin_network(fig1a, {"X"}).graph.bidirected == frozenset()

    def test_treatment_copies_parentless_everywhere(self):
        for i in range(60):
            g = random_admg(random.Random(90_000 + i), n_nodes=5, max_edges=8)
            nodes = sorted(g.nodes)
            rng = random.Random(i)
            x = frozenset(rng.sample(nodes, rng.randint(1, 2)))
            twin = twin_network(g, x)
            for v in x:
                assert twin.graph.parents(twin.counterfactual_of[v]) == frozenset()

    def test_nondescendants_have_one_copy(self, fig1a):
        twin = twin_network(fig1a, {"Y"})
        # only Y descends from Y, so X and Z stay shared
        assert set(twin.graph.nodes) == {"Z", "X", "Y", "Y@do"}

    def test_counterfactual_world_is_the_mutilated_graph(self):
        for i in range(60):
            g = random_admg(random.Random(91_000 + i), n_nodes=5, max_edges=8)
            rng = random.Random(i)
            x = frozenset(rng.sample(sorted(g.nodes), rng.randint(1, 2)))
            twin = twin_network(g, x)
            copies = {twin.counterfactual_of[v] for v in g.nodes}
            induced = {
                (a, b)
                for a, b in twin.graph.directed
                if a in copies and b in copies
            }
            mutilated = cut_incoming(g, x)
            expected = {
                (twin.counterfactual_of[a], twin.counterfactual_of[b])
                for a, b in mutilated.directed
            }
            assert induced == expected, (g, x)

    def test_one_latent_per_bidirected_edge(self):
        g = graph_from_edges([("A", "B")], [("A", "B"), ("B", "C")])
        twin = twin_network(g, {"A"})
        latents = [v for v in twin.graph.nodes if v.startswith("__U_")]
        assert sorted(latents) == ["__U_A_B", "__U_B_C"]
        # each latent parents both factual endpoints, plus any affected
        # non-treatment copies
        assert ("__U_A_B", "A") in twin.graph.directed
        assert ("__U_A_B", "B") in twin.graph.directed
        assert ("__U_A_B", "B@do") in twin.graph.directed
        assert ("__U_A_B", "A@do") not in twin.graph.directed


class TestNoiseLinks:
    def test_links_duplicated_nontreatment_nodes(self, fig1a):
        twin = twin_network(fig1a, {"X"})
        linked = noise_linked(twin)
        assert linked.directed == twin.graph.directed
        assert linked.bidirected == frozenset({("Y", "Y@do")})

    def test_intervened_copies_stay_unlinked(self, fig1c):
        linked = noise_linked(twin_network(fig1c, {"X"}))
        assert ("X", "X@do") not in linked.bidirected
        assert linked.bidirected == frozenset({("Y", "Y@do"), ("Z", "Z@do")})

    def test_shared_noise_carries_dependence(self):
        """The dumped twin graph alone would call these worlds independent;
        the shared noise of A links them, which sampled models confirm
        (conditioning on nothing, A's copy still predicts C through A)."""
        g = graph_from_edges([("A", "C"), ("B", "A")])
        query = q(["B", "C"], ["A"])
        twin = twin_network(g, {"B", "C"})
        bare = d_separated(twin.graph, {"B", "C"}, {"A@do"}, set()).separated
        linked = d_separated(noise_linked(twin), {"B", "C"}, {"A@do"}, set()).separated
        assert bare and not linked
        assert not graphical_ignorability(g, query)
        assert not adjustment_criterion(g, query).holds
        worst = 0.0
        for seed in range(5):
            scm = random_scm(g, seed=seed, domain_size=2, positivity_eps=0.05)
            dist = counterfactual_joint(
                scm, [("A", {"B": 0, "C": 0}), ("B", {}), ("C", {})]
            )
            worst = max(
                worst, independence_gap(dist, {"A@do(B=0,C=0)"}, {"B", "C"}, set())
            )
        assert worst > 1e-3


class TestView:
    def test_view_is_the_projected_noise_linked_twin_network(self):
        """The ignorability verdict sweeps ``_twin_view``; each state's edges
        and parents are those of the built graph with its latents projected."""
        states = 0
        for g in all_mixed_graphs(3) + graph_family():
            for x in (frozenset(c) for k in (1, 2) for c in combinations(sorted(g.nodes), k)):
                twin = twin_network(g, x)
                linked = noise_linked(twin)
                latents = set(linked.nodes) - set(twin.counterfactual_of.values()) - set(g.nodes)
                projected = latent_project(linked, latents)
                affected = descendants(g, x)
                name = {(v, 0): v for v in g.nodes} | {(v, 1): twin.counterfactual_of[v] for v in affected}
                edges, parents = _twin_view(g, x, affected)
                for state, v in name.items():
                    got = sorted((name[w], mv, mw) for w, mv, mw in edges(state))
                    assert got == sorted(incident_marks(projected, v)), (g, x, state)
                    assert {name[p] for p in parents(state)} == projected.parents(v), (g, x, state)
                states += len(name)
        assert states == 22_574


class TestIgnorability:
    def test_fork_with_confounder(self, fig1a):
        assert graphical_ignorability(fig1a, q(["X"], ["Y"], ["Z"]))

    def test_unidentifiable_with_mediator(self, fig1c):
        assert not graphical_ignorability(fig1c, q(["X"], ["Y"], ["Z"]))

    def test_shared_exogenous_opens_the_empty_set(self, fig1c):
        assert not graphical_ignorability(fig1c, q(["X"], ["Y"]))
        twin = twin_network(fig1c, {"X"})
        verdict = d_separated(twin.graph, {"X"}, {"Y@do"}, set())
        assert str(verdict.witness) == "X <- __U_X_Y -> Y@do"

    def test_merged_outcome_uses_shared_copy(self):
        # Y is not a descendant of X, so the query reads off the shared node.
        g = graph_from_edges([("Y", "X"), ("Z", "X"), ("Z", "Y")])
        assert twin_network(g, {"X"}).counterfactual_of["Y"] == "Y"
        assert not graphical_ignorability(g, q(["X"], ["Y"], ["Z"]))
        g2 = graph_from_edges([("Z", "X"), ("Z", "Y")])
        assert graphical_ignorability(g2, q(["X"], ["Y"], ["Z"]))

    def test_matches_adjustment_criterion_exhaustive_small(self):
        for g in all_mixed_graphs(3):
            for query in all_queries(g):
                assert (
                    graphical_ignorability(g, query)
                    == adjustment_criterion(g, query).holds
                ), (g, query)

    def test_matches_adjustment_criterion_sampled(self):
        for i in range(50):
            g = random_admg(random.Random(92_000 + i), n_nodes=5, max_edges=8)
            for query in all_queries(g):
                assert (
                    graphical_ignorability(g, query)
                    == adjustment_criterion(g, query).holds
                ), (g, query)


class TestModelLevelIgnorability:
    """Where the twin graph certifies ignorability, sampled models obey it."""

    def test_counterfactual_independence_fig1a(self, fig1a):
        assert graphical_ignorability(fig1a, q(["X"], ["Y"], ["Z"]))
        for seed in range(5):
            scm = random_scm(fig1a, seed=seed, domain_size=2, positivity_eps=0.05)
            for xv in (0, 1):
                dist = counterfactual_joint(
                    scm, [("Y", {"X": xv}), ("X", {}), ("Z", {})]
                )
                label = f"Y@do(X={xv})"
                gap = independence_gap(dist, {label}, {"X"}, {"Z"})
                assert gap <= 1e-9, (seed, xv, gap)

    def test_counterfactual_independence_fig1b(self, fig1b):
        assert graphical_ignorability(fig1b, q(["X"], ["Y"], ["Z"]))
        for seed in range(5):
            scm = random_scm(fig1b, seed=seed, domain_size=2, positivity_eps=0.05)
            for xv in (0, 1):
                dist = counterfactual_joint(
                    scm, [("Y", {"X": xv}), ("X", {}), ("Z", {})]
                )
                label = f"Y@do(X={xv})"
                gap = independence_gap(dist, {label}, {"X"}, {"Z"})
                assert gap <= 1e-9, (seed, xv, gap)

    def test_dependence_where_ignorability_fails(self, fig1c):
        assert not graphical_ignorability(fig1c, q(["X"], ["Y"], ["Z"]))
        worst = 0.0
        for seed in range(10):
            scm = random_scm(fig1c, seed=seed, domain_size=2, positivity_eps=0.05)
            for xv in (0, 1):
                dist = counterfactual_joint(
                    scm, [("Y", {"X": xv}), ("X", {}), ("Z", {})]
                )
                worst = max(
                    worst, independence_gap(dist, {f"Y@do(X={xv})"}, {"X"}, {"Z"})
                )
        assert worst > 1e-4
