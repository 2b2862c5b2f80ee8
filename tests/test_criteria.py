"""Back-door and adjustment criteria, set construction, magnification."""

import random
import re
import time
from collections import Counter
from itertools import combinations

import pytest

from adjustkit import (
    AdjustmentQuery,
    ForbiddenDescendant,
    GraphError,
    OpenBackdoorPath,
    OpenNonCausalPath,
    TreatmentDescendant,
    adjustment_criterion,
    backdoor_criterion,
    canonical_adjustment_set,
    cut_incoming,
    cut_outgoing,
    d_separated,
    descendants,
    enumerate_adjustment_sets,
    exists_adjustment_set,
    find_inducing_path,
    graphical_ignorability,
    helper_conditioning_set,
    latent_project,
    magnification_check,
    magnify,
    parse_graph,
    path_blocked,
    proper_backdoor_graph,
    proper_causal_nodes,
    strip_to_backdoor,
    verdict_from_json,
    verdict_to_json,
)
from adjustkit import criteria, graph, separation, twin
from adjustkit.cli import run
from adjustkit.criteria import _magnified_view
from adjustkit.graph import HEAD, Admg, incident_marks
from conftest import (
    FIXTURE_DIR,
    all_mixed_graphs,
    all_queries,
    chain_graph,
    graph_family,
    graph_from_edges,
    random_admg,
    singleton_pairs,
    subsets_of,
)


def q(x, y, z=()):
    return AdjustmentQuery(frozenset(x), frozenset(y), frozenset(z))


class TestQueryValidation:
    def test_empty_sides_rejected(self):
        with pytest.raises(ValueError):
            q([], ["Y"])
        with pytest.raises(ValueError):
            q(["X"], [])

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            q(["X"], ["X"])
        with pytest.raises(ValueError):
            q(["X"], ["Y"], ["X"])

    def test_unknown_node_rejected(self, fig1a):
        with pytest.raises(GraphError):
            backdoor_criterion(fig1a, q(["X"], ["Y"], ["Q"]))

    def test_coerces_to_frozensets(self):
        query = q(["X"], ["Y"], ["Z"])
        assert isinstance(query.treatments, frozenset)
        assert query.covariates == frozenset({"Z"})


class TestBackdoorCriterion:
    def test_fork_holds_with_confounder(self, fig1a):
        assert backdoor_criterion(fig1a, q(["X"], ["Y"], ["Z"])).holds

    def test_descendant_covariate_fails(self, fig1b):
        verdict = backdoor_criterion(fig1b, q(["X"], ["Y"], ["Z"]))
        assert not verdict.holds
        assert verdict.failure == TreatmentDescendant("Z")

    def test_open_backdoor_path_reported(self, fig1a):
        verdict = backdoor_criterion(fig1a, q(["X"], ["Y"]))
        assert not verdict.holds
        assert isinstance(verdict.failure, OpenBackdoorPath)
        assert str(verdict.failure.path) == "X <- Z -> Y"

    def test_bidirected_counts_as_backdoor(self, fig1c):
        verdict = backdoor_criterion(fig1c, q(["X"], ["Y"]))
        assert not verdict.holds
        assert str(verdict.failure.path) == "X <-> Y"

    def test_witness_starts_with_head_and_is_open(self, fig1a, fig1c):
        for g, z in ((fig1a, set()), (fig1c, set())):
            verdict = backdoor_criterion(g, q(["X"], ["Y"], z))
            path = verdict.failure.path
            path.validate_in(g)
            assert path.steps[0].source_mark == HEAD
            assert not path_blocked(g, path, z)


class TestAdjustmentCriterion:
    def test_descendant_mediator_screen_holds(self, fig1b):
        for mode in ("fast", "reference"):
            assert adjustment_criterion(fig1b, q(["X"], ["Y"], ["Z"]), mode).holds

    def test_fork_holds(self, fig1a):
        for mode in ("fast", "reference"):
            assert adjustment_criterion(fig1a, q(["X"], ["Y"], ["Z"]), mode).holds

    def test_mediator_covariate_fails_condition_one(self, fig1c):
        verdict = adjustment_criterion(fig1c, q(["X"], ["Y"], ["Z"]))
        assert not verdict.holds
        assert verdict.failure == ForbiddenDescendant(offender="Z", causal_node="Z")

    def test_open_noncausal_path_fails_condition_two(self, fig1c):
        for mode in ("fast", "reference"):
            verdict = adjustment_criterion(fig1c, q(["X"], ["Y"]), mode)
            assert not verdict.holds
            assert isinstance(verdict.failure, OpenNonCausalPath)
            assert str(verdict.failure.path) == "X <-> Y"

    def test_reference_mode_on_a_long_chain(self):
        chain = parse_graph("\n".join(f"V{i} -> V{i + 1}" for i in range(1499)))
        query = q({"V0"}, {"V1499"})
        assert adjustment_criterion(chain, query, mode="reference").holds
        assert adjustment_criterion(chain, query).holds

    def test_long_chain_with_every_other_node_adjusted(self):
        # the forbidden set is one closure of the 2,998 amenable nodes
        chain = chain_graph(3000)
        query = q({"V0"}, {"V2999"}, chain.nodes[1:-1:2])
        started = time.perf_counter()
        verdict = adjustment_criterion(chain, query)
        assert time.perf_counter() - started < 1.0
        assert verdict.failure == ForbiddenDescendant(offender="V1", causal_node="V1")

    def test_unknown_mode_rejected(self, fig1a):
        with pytest.raises(ValueError):
            adjustment_criterion(fig1a, q(["X"], ["Y"]), mode="quick")

    def test_condition_one_witness_invariant(self, fig1c):
        # in the second graph ``a`` is an ancestor of ``z`` only through the
        # treatment x2, so the causal node must be found with edges into X cut
        two_treatments = graph_from_edges(
            [("x1", "a"), ("a", "x2"), ("x2", "b"), ("b", "Y"), ("a", "Y"), ("b", "z")]
        )
        cases = [
            (fig1c, q(["X"], ["Y"], ["Z"]), ForbiddenDescendant("Z", "Z")),
            (two_treatments, q(["x1", "x2"], ["Y"], ["z"]), ForbiddenDescendant("z", "b")),
        ]
        for graph, query, expected in cases:
            x, y, z = query.treatments, query.outcomes, query.covariates
            failure = adjustment_criterion(graph, query).failure
            mutilated = cut_incoming(graph, x)
            pcn = proper_causal_nodes(graph, x, y)
            assert failure.offender in z
            assert failure.causal_node in pcn - x
            assert failure.offender in descendants(mutilated, {failure.causal_node})
            assert failure == expected

    def test_condition_two_witness_is_open_noncausal(self):
        g = graph_from_edges([("X", "Y"), ("W", "X"), ("W", "Y")])
        for mode in ("fast", "reference"):
            verdict = adjustment_criterion(g, q(["X"], ["Y"]), mode)
            path = verdict.failure.path
            path.validate_in(g)
            assert not path_blocked(g, path, set())
            assert any(step.arrow != "->" for step in path.steps)

    def test_outcome_not_descendant_is_legal(self):
        # Y unreachable from X: every path is non-causal, so the criterion
        # reduces to plain blocking, and the edge X <- Y can never be blocked.
        g = graph_from_edges([("Y", "X"), ("Z", "X"), ("Z", "Y")])
        for z in (set(), {"Z"}):
            verdict = adjustment_criterion(g, q(["X"], ["Y"], z))
            assert not verdict.holds
            assert str(verdict.failure.path) == "X <- Y"


class TestProperBackdoorGraph:
    def test_fork_removes_direct_edge(self, fig1a):
        cut = proper_backdoor_graph(fig1a, {"X"}, {"Y"})
        assert cut.directed == frozenset({("Z", "X"), ("Z", "Y")})
        assert cut.bidirected == frozenset()

    def test_mediated_removes_first_edge_only(self, fig1c):
        cut = proper_backdoor_graph(fig1c, {"X"}, {"Y"})
        assert cut.directed == frozenset({("Z", "Y")})
        assert cut.bidirected == frozenset({("X", "Y")})

    def test_unreachable_outcome_unchanged(self):
        g = graph_from_edges([("Y", "X"), ("A", "X")])
        assert proper_backdoor_graph(g, {"X"}, {"Y"}) == g

    def test_keeps_edges_into_nonproper_children(self):
        # X -> W with W not on any proper causal path stays intact.
        g = graph_from_edges([("X", "Y"), ("X", "W")])
        cut = proper_backdoor_graph(g, {"X"}, {"Y"})
        assert ("X", "W") in cut.directed
        assert ("X", "Y") not in cut.directed

    def test_keeps_edges_between_treatments(self):
        # B is a treatment, so A -> B starts no proper causal path
        g = graph_from_edges([("A", "B"), ("B", "Y")])
        cut = proper_backdoor_graph(g, {"A", "B"}, {"Y"})
        assert cut.directed == frozenset({("A", "B")})
        assert cut.nodes == g.nodes


def _sampled_queries(graph, rng, count):
    """``count`` random (X, Y, Z) splits of the graph's nodes, X and Y nonempty."""
    nodes = sorted(graph.nodes)
    out = []
    while len(out) < count:
        roles = [rng.randrange(4) for _ in nodes]
        x, y, z = ({v for v, r in zip(nodes, roles) if r == k} for k in range(3))
        if x and y:
            out.append(q(x, y, z))
    return out


def _cut_sweep_cases():
    """Every query of every 3-node ADMG, then 30 sampled queries on each
    family graph and on 300 random 4-7 node graphs, a third of whose
    directed edges carry a parallel bidirected edge."""
    for g in all_mixed_graphs(3):
        for query in all_queries(g):
            yield g, query
    for i, g in enumerate(graph_family()):
        for query in _sampled_queries(g, random.Random(i), 30):
            yield g, query
    for i in range(300):
        rng = random.Random(90_000 + i)
        g = random_admg(rng, n_nodes=rng.randint(4, 7), max_edges=12)
        doubled = {tuple(sorted(e)) for e in sorted(g.directed) if rng.random() < 1 / 3}
        g = Admg(g.nodes, g.directed, g.bidirected | doubled)
        for query in _sampled_queries(g, rng, 30):
            yield g, query


class TestSweepCut:
    """The adjustment and back-door verdicts sweep G with the cut edges taken
    as absent; they must answer as a sweep of the cut graph would."""

    def test_verdicts_match_the_cut_graphs(self):
        for g, query in _cut_sweep_cases():
            x, y, z = query.treatments, query.outcomes, query.covariates
            fast = adjustment_criterion(g, query)
            if not isinstance(fast.failure, ForbiddenDescendant):
                want = d_separated(proper_backdoor_graph(g, x, y), x, y, z)
                assert (fast.holds, fast.witness_path) == (want.separated, want.witness), (g, query)
            if not z & descendants(g, x):
                back = backdoor_criterion(g, query)
                want = d_separated(cut_outgoing(g, x), x, y, z)
                assert (back.holds, back.witness_path) == (want.separated, want.witness), (g, query)

    def test_verdicts_build_no_cut_graph(self, monkeypatch):
        builds = []
        tables = graph._tables
        monkeypatch.setattr(graph, "_tables", lambda *parts: builds.append(1) or tables(*parts))
        limits = ((adjustment_criterion, 0), (backdoor_criterion, 0),
                  (graphical_ignorability, 0), (magnification_check, 0))
        for g in all_mixed_graphs(3):
            for query in all_queries(g):
                for verdict, limit in limits:
                    builds.clear()
                    verdict(g, query)
                    assert len(builds) <= limit, (verdict.__name__, g, query)
        g = parse_graph("X -> Y")
        builds.clear()
        proper_backdoor_graph(g, {"X"}, {"Y"})
        assert builds == [1]  # the counter sees the transform's copy


class TestCheckedOnce:
    """Each entry point checks its sets once.  Beneath that check the
    verdicts, set procedures and sweeps read the adjacency tables: they call
    no checking helper, and each ``incident_marks`` call checks its one node."""

    CHECKING = ("ancestors", "descendants", "proper_causal_nodes")

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("node_subset", "_require", "parents", "children", "spouses"):
            monkeypatch.setattr(Admg, name, counted(name, getattr(Admg, name)))
        for module in (graph, separation, criteria, twin):
            for name in (*self.CHECKING, "incident_marks"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        return calls

    def test_no_set_is_checked_twice(self, calls):
        for g in all_mixed_graphs(3):
            for query in all_queries(g):
                x, y, z = query.treatments, query.outcomes, query.covariates
                # (entry point, its node_subset calls, the nodes those check)
                entries = [
                    (lambda: adjustment_criterion(g, query), 1, x | y | z),
                    (lambda: backdoor_criterion(g, query), 1, x | y | z),
                    (lambda: graphical_ignorability(g, query), 1, x | y | z),
                    (lambda: magnification_check(g, query), 1, x | y | z),
                    (lambda: canonical_adjustment_set(g, x, y), 1, x | y),
                    (lambda: exists_adjustment_set(g, x, y), 1, x | y),
                    (lambda: enumerate_adjustment_sets(g, x, y, limit=4), 1, x | y),
                    (lambda: helper_conditioning_set(g, x, y, z), 3, x | y | z),
                    (lambda: find_inducing_path(g, x, y), 2, x | y),
                    (lambda: d_separated(g, x, y, z), 3, x | y | z),
                ]
                for i, (entry, subsets, checked) in enumerate(entries):
                    calls.clear()
                    entry()
                    lookups = calls.pop("incident_marks", 0)
                    want = {"node_subset": subsets, "_require": len(checked) + lookups}
                    assert calls == {k: v for k, v in want.items() if v}, (g, query, i)


class TestStripToBackdoor:
    def test_removes_descendants(self, fig1b):
        stripped = strip_to_backdoor(fig1b, q(["X"], ["Y"], ["Z"]))
        assert stripped == frozenset()
        assert backdoor_criterion(fig1b, q(["X"], ["Y"], stripped)).holds

    def test_keeps_nondescendants(self, fig1a):
        assert strip_to_backdoor(fig1a, q(["X"], ["Y"], ["Z"])) == {"Z"}

    def test_empty_is_empty(self, fig1a):
        assert strip_to_backdoor(fig1a, q(["X"], ["Y"])) == frozenset()

    def test_multi_treatment_strip_can_fail(self):
        """With several treatments, stripping descendants can break validity.

        Here C blocks the only open route to E by sitting on a directed
        chain D -> A -> C -> B between the two treatments. C is a descendant
        of D, so stripping removes it, and the back-door path B <- C <- E
        reopens. No covariate on a proper causal path is involved (there are
        none), so the full set {A, C} is a valid adjustment set while the
        stripped set is not, graphically or numerically. For a single
        treatment this cannot happen: a covariate descending from the
        treatment and lying on a chain into the treatment would close a
        cycle.
        """
        g = graph_from_edges([("A", "C"), ("C", "B"), ("D", "A"), ("E", "C")])
        full = q(["B", "D"], ["E"], ["A", "C"])
        assert adjustment_criterion(g, full).holds
        stripped = strip_to_backdoor(g, full)
        assert stripped == frozenset()
        requery = q(["B", "D"], ["E"], stripped)
        assert not backdoor_criterion(g, requery).holds
        assert not adjustment_criterion(g, requery).holds


class TestCanonicalSet:
    def test_fork(self, fig1a):
        assert canonical_adjustment_set(fig1a, {"X"}, {"Y"}) == {"Z"}

    def test_unidentifiable_mediated(self, fig1c):
        assert canonical_adjustment_set(fig1c, {"X"}, {"Y"}) == frozenset()

    def test_single_edge(self):
        g = graph_from_edges([("X", "Y")])
        assert canonical_adjustment_set(g, {"X"}, {"Y"}) == frozenset()

    def test_excludes_causal_nodes_keeps_their_parents(self):
        g = graph_from_edges([("X", "M"), ("M", "Y"), ("W", "M"), ("W", "X")])
        assert canonical_adjustment_set(g, {"X"}, {"Y"}) == {"W"}

    @pytest.mark.parametrize(
        "x, y", [((), ("Y",)), (("X",), ()), ((), ()), (("X",), ("X", "Y")), ((), ("X", "Q"))]
    )
    def test_rejects_every_query_exists_rejects(self, fig1a, x, y):
        # the canonical set exists for exactly the queries that exists_adjustment_set answers
        with pytest.raises(ValueError) as expected:
            exists_adjustment_set(fig1a, x, y)
        with pytest.raises(ValueError) as got:
            canonical_adjustment_set(fig1a, x, y)
        assert (type(got.value), str(got.value)) == (type(expected.value), str(expected.value))
        argv = ["canonical-set", "--graph", str(FIXTURE_DIR / "fig1a.g"), "-X", ",".join(x), "-Y", ",".join(y)]
        assert run(argv) == 2


class TestExistsSet:
    def test_verdicts(self, fig1a, fig1b, fig1c):
        assert exists_adjustment_set(fig1a, {"X"}, {"Y"})
        assert exists_adjustment_set(fig1b, {"X"}, {"Y"})
        assert not exists_adjustment_set(fig1c, {"X"}, {"Y"})

    def test_single_edge_empty_set_valid(self):
        g = graph_from_edges([("X", "Y")])
        assert exists_adjustment_set(g, {"X"}, {"Y"})


class TestEnumerateSets:
    def test_fork_only_confounder(self, fig1a):
        sets = enumerate_adjustment_sets(fig1a, {"X"}, {"Y"}, {"Z"}, limit=16)
        assert sets == [frozenset({"Z"})]

    def test_unidentifiable_none(self, fig1c):
        assert enumerate_adjustment_sets(fig1c, {"X"}, {"Y"}, {"Z"}, limit=16) == []

    def test_screened_descendant_both(self, fig1b):
        sets = enumerate_adjustment_sets(fig1b, {"X"}, {"Y"}, {"Z"}, limit=16)
        assert sets == [frozenset(), frozenset({"Z"})]

    def test_size_then_lex_order(self):
        g = graph_from_edges(
            [("A", "X"), ("A", "Y"), ("B", "X"), ("B", "Y"), ("X", "Y")]
        )
        sets = enumerate_adjustment_sets(g, {"X"}, {"Y"}, {"A", "B"}, limit=16)
        assert sets == [frozenset({"A", "B"})]
        g2 = graph_from_edges([("X", "Y"), ("A", "Y"), ("B", "Y")])
        sets2 = enumerate_adjustment_sets(g2, {"X"}, {"Y"}, {"A", "B"}, limit=16)
        assert sets2 == [
            frozenset(),
            frozenset({"A"}),
            frozenset({"B"}),
            frozenset({"A", "B"}),
        ]

    def test_limit_truncates(self):
        g2 = graph_from_edges([("X", "Y"), ("A", "Y"), ("B", "Y")])
        sets2 = enumerate_adjustment_sets(g2, {"X"}, {"Y"}, {"A", "B"}, limit=2)
        assert sets2 == [frozenset(), frozenset({"A"})]

    def test_no_valid_set_returns_at_once(self):
        # X -> Y and X <-> Y: nothing blocks the bidirected edge, whatever
        # the seventeen other parents of Y are conditioned on.
        g = Admg.build([("X", "Y")] + [(f"P{i}", "Y") for i in range(17)], [("X", "Y")])
        assert not exists_adjustment_set(g, {"X"}, {"Y"})
        assert enumerate_adjustment_sets(g, {"X"}, {"Y"}) == []
        assert enumerate_adjustment_sets(g, {"X"}, {"Y"}, {"P0", "P1"}, limit=1) == []

    def test_matches_the_unpruned_search_on_the_family(self):
        def unpruned(g, x, y, candidates, limit):
            out = []
            for z in subsets_of(candidates):
                if adjustment_criterion(g, q(x, y, z)).holds:
                    out.append(z)
                    if len(out) == limit:
                        break
            return out

        for g in graph_family():
            for x, y in singleton_pairs(g):
                rest = sorted(set(g.nodes) - x - y)
                for candidates, limit in ((rest, 16), (rest[:2], 1)):
                    assert enumerate_adjustment_sets(g, x, y, candidates, limit) == unpruned(
                        g, x, y, candidates, limit
                    ), (g, x, y, candidates, limit)

    def test_zero_limit_rejected(self, fig1a):
        with pytest.raises(ValueError):
            enumerate_adjustment_sets(fig1a, {"X"}, {"Y"}, {"Z"}, limit=0)
        for limit in (2.5, True, "3"):  # a limit that is not an integer
            with pytest.raises(ValueError, match="not an integer"):
                enumerate_adjustment_sets(fig1a, {"X"}, {"Y"}, {"Z"}, limit=limit)

    def test_candidates_must_avoid_endpoints(self, fig1a):
        with pytest.raises(GraphError):
            enumerate_adjustment_sets(fig1a, {"X"}, {"Y"}, {"X", "Z"}, limit=4)


class TestMagnify:
    def test_bidirected_replaced_by_witness_parent(self, fig1c):
        ge = magnify(fig1c)
        assert set(ge.nodes) == {"X", "Z", "Y", "__W_X_Y"}
        assert ge.directed == frozenset(
            {("X", "Z"), ("Z", "Y"), ("__W_X_Y", "X"), ("__W_X_Y", "Y")}
        )
        assert ge.bidirected == frozenset()

    def test_bidirected_free_graph_unchanged(self, fig1a):
        assert magnify(fig1a) == fig1a

    def test_mediated_edge_gets_cut_node(self):
        g = graph_from_edges([("Y", "S")])
        ge = magnify(g, [("Y", "S")])
        assert ge.directed == frozenset({("Y", "__C_S_Y"), ("__C_S_Y", "S")})

    def test_non_edge_rejected(self, fig1a):
        with pytest.raises(GraphError):
            magnify(fig1a, [("Y", "X")])

    def test_string_edges_refused(self):
        g = graph_from_edges([("X", "Y")])
        for edges in ("XY", ["XY"]):
            with pytest.raises(TypeError):
                magnify(g, edges)
        with pytest.raises(GraphError, match="cannot mediate X -> Y -> Z"):
            magnify(g, [("X", "Y", "Z")])

    def test_names_from_do_nodes_parse_back(self):
        g = graph_from_edges([("X", "Y@do")], [("Y@do", "Z")])
        ge = magnify(g, [("X", "Y@do")])
        assert {"__W_Y_do_Z", "__C_X_Y_do"} <= set(ge.nodes)
        assert parse_graph(ge.to_text()) == ge

    def test_fresh_names_avoid_collisions(self):
        g = parse_graph("node __W_A_B A B\nA <-> B\n__W_A_B -> A")
        ge = magnify(g)
        assert len(ge.nodes) == 4
        assert any(v.startswith("__W_A_B") and v != "__W_A_B" for v in ge.nodes)


class TestMagnifiedView:
    def test_view_is_the_magnified_graph(self):
        """``magnification_check`` sweeps ``_magnified_view``; under the map of
        each ``__W`` source to ``("W", A, B)`` and each ``__C`` mediator to
        ``("C", Y, C)``, every state's edges and parents are the built graph's."""
        for g in all_mixed_graphs(3) + graph_family():
            for y in (frozenset(c) for k in (1, 2) for c in combinations(sorted(g.nodes), k)):
                m = magnify(g, [(a, b) for a in y for b in g.children(a)])
                state = {v: v for v in g.nodes}
                for v in set(m.nodes) - set(g.nodes):  # a source has no parent, a mediator one
                    state[v] = ("C", *m.parents(v), *m.children(v)) if m.parents(v) else ("W", *sorted(m.children(v)))
                name = {s: v for v, s in state.items()}
                assert len(name) == len(state)
                edges, parents = _magnified_view(g, y)
                for s, v in name.items():
                    got = sorted((name[w], mv, mw) for w, mv, mw in edges(s))
                    assert got == sorted(incident_marks(m, v)), (g, y, s)
                    assert {name[p] for p in parents(s)} == m.parents(v), (g, y, s)


class TestHelperConditioningSet:
    def test_spec_three_set_intersection(self):
        ge = graph_from_edges([("W", "Z"), ("W", "Y"), ("X_node", "Y")])
        assert helper_conditioning_set(ge, {"X_node"}, {"Y"}, {"Z"}) == {"W"}

    def test_fork_yields_nothing(self, fig1a):
        assert helper_conditioning_set(fig1a, {"X"}, {"Y"}, {"Z"}) == frozenset()

    def test_empty_covariates(self, fig1a):
        assert helper_conditioning_set(fig1a, {"X"}, {"Y"}, frozenset()) == frozenset()

    @pytest.mark.parametrize("sets", [({"X"}, {"Y"}, {"X"}), ({"X"}, {"X"}, set()), ({"X"}, {"Y"}, {"Y"})])
    def test_overlapping_sets_rejected(self, fig1a, sets):
        with pytest.raises(GraphError, match="pairwise disjoint"):
            helper_conditioning_set(fig1a, *sets)

    def test_result_disjoint_from_inputs(self):
        rng = random.Random(3)
        for i in range(100):
            g = random_admg(random.Random(60_000 + i), n_nodes=5, max_edges=8)
            for query in all_queries(g):
                if rng.random() > 0.15:
                    continue
                ge = magnify(g, [e for e in g.directed if e[0] in query.outcomes])
                helper = helper_conditioning_set(
                    ge, query.treatments, query.outcomes, query.covariates
                )
                assert not helper & (query.covariates | query.outcomes)
                assert not helper & descendants(ge, query.treatments)


class TestMagnificationCheck:
    def test_fixture_verdicts(self, fig1a, fig1b, fig1c):
        assert magnification_check(fig1a, q(["X"], ["Y"], ["Z"]))
        assert magnification_check(fig1b, q(["X"], ["Y"], ["Z"]))
        assert not magnification_check(fig1c, q(["X"], ["Y"], ["Z"]))

    def test_vacuous_clauses_hold(self, fig1a):
        # No covariates: helper set and descendant split are both empty, so
        # only the back-door clause decides.
        assert not magnification_check(fig1a, q(["X"], ["Y"]))
        g = graph_from_edges([("X", "Y")])
        assert magnification_check(g, q(["X"], ["Y"]))


def _criterion_equivalences(g):
    for query in all_queries(g):
        fast = adjustment_criterion(g, query, "fast")
        ref = adjustment_criterion(g, query, "reference")
        assert fast.holds == ref.holds, (g, query)
        assert magnification_check(g, query) == fast.holds, (g, query)
        back = backdoor_criterion(g, query)
        if back.holds:
            assert fast.holds, (g, query)
        if fast.holds and len(query.treatments) == 1:
            # Stripping descendants preserves validity for a single
            # treatment; see test_multi_treatment_strip_can_fail for why
            # the restriction is needed.
            stripped = strip_to_backdoor(g, query)
            requery = AdjustmentQuery(query.treatments, query.outcomes, stripped)
            assert backdoor_criterion(g, requery).holds, (g, query)


class TestAgreementSmall:
    """Cross-checks between the criteria on small graphs; the full sweep over
    the 300-graph family runs in the acceptance suite."""

    def test_exhaustive_three_node_graphs(self):
        for g in all_mixed_graphs(3):
            _criterion_equivalences(g)

    def test_sampled_five_node_graphs(self):
        for i in range(40):
            g = random_admg(random.Random(70_000 + i), n_nodes=5, max_edges=8)
            _criterion_equivalences(g)

    def test_existence_matches_brute_force_three_nodes(self):
        from conftest import subsets_of

        for g in all_mixed_graphs(3):
            nodes = sorted(g.nodes)
            for x in nodes:
                for y in nodes:
                    if x == y:
                        continue
                    rest = set(nodes) - {x, y}
                    brute = any(
                        adjustment_criterion(
                            g, AdjustmentQuery(frozenset({x}), frozenset({y}), z)
                        ).holds
                        for z in subsets_of(rest)
                    )
                    assert brute == exists_adjustment_set(g, {x}, {y}), (g, x, y)

    def test_projection_of_internal_mediators_preserves_verdict(self):
        for i in range(60):
            g = random_admg(random.Random(80_000 + i), n_nodes=5, max_edges=8)
            for query in all_queries(g):
                interior = proper_causal_nodes(g, query.treatments, query.outcomes) - (
                    query.treatments | query.outcomes
                )
                if not interior or interior & query.covariates:
                    continue
                projected = latent_project(g, interior)
                got = adjustment_criterion(projected, query).holds
                want = adjustment_criterion(g, query).holds
                assert got == want, (g, query)


class TestVerdictJson:
    def test_holds_round_trip(self, fig1a):
        verdict = adjustment_criterion(fig1a, q(["X"], ["Y"], ["Z"]))
        doc = verdict_to_json("adjustment", verdict)
        assert doc["criterion"] == "adjustment"
        assert doc["holds"] is True
        assert doc["failure"] is None
        name, back = verdict_from_json(doc)
        assert name == "adjustment" and back == verdict

    def test_all_failure_kinds_round_trip(self, fig1a, fig1b, fig1c):
        cases = [
            ("backdoor", backdoor_criterion(fig1b, q(["X"], ["Y"], ["Z"]))),
            ("backdoor", backdoor_criterion(fig1a, q(["X"], ["Y"]))),
            ("adjustment", adjustment_criterion(fig1c, q(["X"], ["Y"], ["Z"]))),
            ("adjustment", adjustment_criterion(fig1c, q(["X"], ["Y"]))),
            ("theorem7", adjustment_criterion(fig1c, q(["X"], ["Y"]))),
        ]
        for name, verdict in cases:
            doc = verdict_to_json(name, verdict)
            got_name, got = verdict_from_json(doc)
            assert got_name == name
            assert got == verdict

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            verdict_from_json(
                {
                    "criterion": "adjustment",
                    "holds": False,
                    "failure": {"kind": "mystery"},
                }
            )

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"criterion": "adjustment"}, "verdict document lacks the key 'holds'"),
            ({"holds": True}, "verdict document lacks the key 'criterion'"),
            (["adjustment", True], "verdict document must be a JSON object, not list"),
            ({"criterion": "backdoor", "holds": False, "failure": "open"},
             "failure document must be a JSON object, not str"),
            ({"criterion": "backdoor", "holds": False, "failure": {"path": "X <- Z -> Y"}},
             "failure document lacks the key 'kind'"),
            ({"criterion": "backdoor", "holds": False, "failure": {"kind": "open_backdoor_path"}},
             "open_backdoor_path failure document lacks the key 'path'"),
            ({"criterion": "backdoor", "holds": False, "failure": {"kind": "open_backdoor_path", "path": 5}},
             "malformed path text: 5"),
            ({"criterion": "adjustment", "holds": False, "failure": {"kind": "forbidden_descendant", "offender": "Z"}},
             "forbidden_descendant failure document lacks the key 'causal_node'"),
            ({"criterion": "adjustment", "holds": "no"}, "verdict holds must be true or false, not 'no'"),
            ({"criterion": "adjustment", "holds": 0}, "verdict holds must be true or false, not 0"),
            ({"criterion": ["adjustment"], "holds": True}, "verdict criterion must be a string, not ['adjustment']"),
            ({"criterion": "backdoor", "holds": True, "failure": {"kind": "open_backdoor_path", "path": "X <- Z -> Y"}},
             "a verdict that holds carries no failure"),
        ],
    )
    def test_malformed_document_raises_value_error(self, doc, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            verdict_from_json(doc)

    def test_accepts_serialized_string(self, fig1b):
        import json

        verdict = backdoor_criterion(fig1b, q(["X"], ["Y"], ["Z"]))
        doc = json.dumps(verdict_to_json("backdoor", verdict))
        name, got = verdict_from_json(doc)
        assert name == "backdoor" and got == verdict
