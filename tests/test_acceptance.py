"""End-to-end acceptance checks.

One test per shipped guarantee: the worked-example verdicts, the front-door
cross-check, the soundness and completeness oracle sweeps, agreement of the
four decision procedures, the structural property suite, and the CLI twin
fixture. Each test asserts its runtime budget and prints a single PASS line
with the headline numbers (visible under ``pytest -s``).
"""

import random
import time
from itertools import combinations

import numpy as np

from adjustkit import (
    AdjustmentQuery,
    ForbiddenDescendant,
    OpenNonCausalPath,
    TreatmentDescendant,
    adjustment_criterion,
    adjustment_estimand,
    ancestors,
    backdoor_criterion,
    canonical_adjustment_set,
    d_separated,
    direct_route,
    exists_adjustment_set,
    find_inducing_path,
    graphical_ignorability,
    interventional,
    joint_observed,
    latent_project,
    magnification_check,
    parse_graph,
    path_blocked,
    proper_causal_nodes,
    random_scm,
    search_counterexample,
    strip_to_backdoor,
    verify_soundness,
)
from adjustkit.cli import run as cli_run
from conftest import (
    FIXTURE_DIR,
    all_mixed_graphs,
    all_queries,
    graph_family,
    load_fixture,
    random_admg,
    random_route,
    subsets_of,
)

XY = AdjustmentQuery(frozenset("X"), frozenset("Y"))
XYZ = AdjustmentQuery(frozenset("X"), frozenset("Y"), frozenset("Z"))


def test_criterion_1_worked_example_verdicts():
    started = time.perf_counter()
    fig1a = load_fixture("fig1a.g")
    fig1b = load_fixture("fig1b.g")
    fig1c = load_fixture("fig1c.g")

    assert backdoor_criterion(fig1a, XYZ).holds
    assert adjustment_criterion(fig1a, XYZ).holds

    confounded_by_z = backdoor_criterion(fig1b, XYZ)
    assert not confounded_by_z.holds
    assert confounded_by_z.failure == TreatmentDescendant(offender="Z")
    assert adjustment_criterion(fig1b, XYZ).holds

    assert not exists_adjustment_set(fig1c, frozenset("X"), frozenset("Y"))
    mediator = adjustment_criterion(fig1c, XYZ)
    assert not mediator.holds
    assert mediator.failure == ForbiddenDescendant(offender="Z", causal_node="Z")
    unadjusted = adjustment_criterion(fig1c, XY)
    assert not unadjusted.holds
    assert isinstance(unadjusted.failure, OpenNonCausalPath)
    assert str(unadjusted.failure.path) == "X <-> Y"

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"PASS criterion 1: worked-example verdicts exact ({elapsed:.2f}s)")


def test_criterion_2_front_door_cross_check():
    started = time.perf_counter()
    graph = load_fixture("fig1c.g")
    exact = 0
    biased = 0
    for seed in range(100):
        scm = random_scm(graph, seed=seed, positivity_eps=0.05)
        joint = joint_observed(scm)
        assert joint.names == ("X", "Y", "Z")
        probs = joint.probs
        p_x = probs.sum(axis=(1, 2))
        p_z_given_x = probs.sum(axis=1) / p_x[:, None]
        p_y_given_xz = probs / probs.sum(axis=1, keepdims=True)
        mixed = np.einsum("xyz,x->zy", p_y_given_xz, p_x)
        worst_cell = 0.0
        bias = 0.0
        for x_value in range(2):
            front_door = p_z_given_x[x_value] @ mixed
            truth = interventional(scm, {"X": x_value}, ("Y",))
            worst_cell = max(worst_cell, float(np.max(np.abs(front_door - truth.probs))))
            adjusted = adjustment_estimand(joint, {"X": x_value}, ("Y",), ("Z",))
            # variation measured as the summed absolute difference of the tables
            bias = max(bias, float(np.abs(adjusted.probs - truth.probs).sum()))
        exact += worst_cell <= 1e-9
        biased += bias > 0.01
    assert exact == 100
    assert biased >= 95
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(
        f"PASS criterion 2: front-door functional exact in {exact}/100 models, "
        f"mediator adjustment biased in {biased}/100 ({elapsed:.2f}s)"
    )


def test_criterion_3_soundness_sweep():
    started = time.perf_counter()
    checked = 0
    worst_gap = 0.0
    for graph in graph_family():
        holding = 0
        for query in all_queries(graph):
            if not adjustment_criterion(graph, query).holds:
                continue
            report = verify_soundness(graph, query, trials=20, tol=1e-9, seed=0)
            assert report.passed, (graph.to_text(), query, report.failures)
            worst_gap = max(worst_gap, report.max_gap)
            checked += 1
            holding += 1
            if holding >= 20:
                break
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(
        f"PASS criterion 3: {checked} holding queries x 20 trials sound, "
        f"max gap {worst_gap:.2e} ({elapsed:.1f}s)"
    )


def test_criterion_4_completeness_sweep():
    started = time.perf_counter()
    pairs = []
    for index, graph in enumerate(graph_family()):
        for query in all_queries(graph):
            if not adjustment_criterion(graph, query).holds:
                pairs.append((index, graph, query))
                break
        if len(pairs) == 200:
            break
    assert len(pairs) == 200
    misses = []
    for index, graph, query in pairs:
        found = search_counterexample(graph, query, trials=200, delta=0.01, seed=index)
        if found is None:
            misses.append((index, query))
            print(f"MISS: family graph {index} (search seed {index}), query {query}")
    assert len(misses) <= 2, misses
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    print(
        f"PASS criterion 4: counterexamples found for {200 - len(misses)}/200 "
        f"failing pairs ({elapsed:.1f}s)"
    )


def test_criterion_5_decision_procedure_agreement():
    started = time.perf_counter()
    checked = 0
    for graph in graph_family():
        for query in all_queries(graph):
            fast = adjustment_criterion(graph, query, mode="fast").holds
            reference = adjustment_criterion(graph, query, mode="reference").holds
            twin = graphical_ignorability(graph, query)
            magnified = magnification_check(graph, query)
            assert fast == reference == twin == magnified, (graph.to_text(), query)
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    print(
        f"PASS criterion 5: four decision procedures agree on {checked} queries "
        f"({elapsed:.1f}s)"
    )


def _check_backdoor_implies_adjustment(graphs):
    checked = 0
    for graph in graphs:
        for query in all_queries(graph):
            if backdoor_criterion(graph, query).holds:
                assert adjustment_criterion(graph, query).holds, (graph.to_text(), query)
                checked += 1
    return checked


def _check_walks_reduce_to_open_paths(graphs, walks_per_graph=1000):
    rng = random.Random(2026)
    checked = 0
    for graph in graphs:
        produced = 0
        attempts = 0
        while produced < walks_per_graph:
            attempts += 1
            assert attempts < 50 * walks_per_graph
            route = random_route(rng, graph)
            if route is None:
                continue
            produced += 1
            path = direct_route(graph, route)
            path.validate_in(graph)
            assert path.start == route.start and path.end == route.end
            assert len(set(path.nodes)) == len(path.nodes)
            assert set(path.nodes) <= set(route.nodes)
            for _ in range(3):
                given = frozenset(v for v in graph.nodes if rng.random() < 0.4)
                if route.start != route.end and not path_blocked(graph, route, given):
                    assert not path_blocked(graph, path, given), (route, path, given)
            checked += 1
    return checked


def _check_inducing_paths_mark_inseparable_pairs():
    graphs = list(all_mixed_graphs(3))
    graphs += [
        random_admg(random.Random(6000 + 100 * n + i), n_nodes=n, max_edges=10)
        for n in (4, 5, 6)
        for i in range(15)
    ]
    checked = 0
    for graph in graphs:
        for a, b in combinations(sorted(graph.nodes), 2):
            rest = [v for v in graph.nodes if v not in (a, b)]
            separable = any(
                d_separated(graph, {a}, {b}, given).separated
                for given in subsets_of(rest)
            )
            inducing = find_inducing_path(graph, {a}, {b})
            assert separable == (inducing is None), (graph.to_text(), a, b)
            if inducing is None:
                shared = ancestors(graph, {a, b}) - {a, b}
                assert d_separated(graph, {a}, {b}, shared).separated
            checked += 1
    return checked


def _check_ancestors_separate_uninduced_sets(graphs):
    checked = 0
    for graph in graphs:
        for query in all_queries(graph):
            if query.covariates:
                continue
            x, y = query.treatments, query.outcomes
            if find_inducing_path(graph, x, y) is not None:
                continue
            shared = ancestors(graph, x | y) - x - y
            assert d_separated(graph, x, y, shared).separated, (graph.to_text(), x, y)
            checked += 1
    return checked


def _check_projection_preserves_verdicts(graphs):
    checked = 0
    for graph in graphs:
        for query in all_queries(graph):
            mediators = proper_causal_nodes(graph, query.treatments, query.outcomes)
            interior = mediators - query.treatments - query.outcomes
            if query.covariates & interior:
                continue
            projected = latent_project(graph, interior)
            assert (
                adjustment_criterion(graph, query).holds
                == adjustment_criterion(projected, query).holds
            ), (graph.to_text(), query)
            checked += 1
    return checked


def _check_stripped_sets_stay_backdoor(graphs):
    checked = 0
    for graph in graphs:
        for query in all_queries(graph):
            if not adjustment_criterion(graph, query).holds:
                continue
            stripped = strip_to_backdoor(graph, query)
            narrowed = AdjustmentQuery(query.treatments, query.outcomes, stripped)
            assert backdoor_criterion(graph, narrowed).holds, (graph.to_text(), query)
            checked += 1
    return checked


def _check_canonical_set_decides_existence(graphs):
    checked = 0
    for graph in graphs:
        for query in all_queries(graph):
            if query.covariates:
                continue
            x, y = query.treatments, query.outcomes
            pool = frozenset(graph.nodes) - x - y
            brute = any(
                adjustment_criterion(graph, AdjustmentQuery(x, y, z)).holds
                for z in subsets_of(pool)
            )
            canonical = canonical_adjustment_set(graph, x, y)
            canonical_query = AdjustmentQuery(x, y, canonical)
            assert brute == adjustment_criterion(graph, canonical_query).holds
            assert brute == exists_adjustment_set(graph, x, y)
            checked += 1
    return checked


def test_criterion_6_structural_suite():
    started = time.perf_counter()
    family = graph_family()
    edged = [g for g in family if g.directed or g.bidirected][:20]
    counts = {
        "backdoor implies adjustment": _check_backdoor_implies_adjustment(family),
        "walks reduce to open paths": _check_walks_reduce_to_open_paths(edged),
        "inducing paths mark inseparable pairs": _check_inducing_paths_mark_inseparable_pairs(),
        "ancestors separate uninduced sets": _check_ancestors_separate_uninduced_sets(family[:100]),
        "mediator projection preserves verdicts": _check_projection_preserves_verdicts(family[:100]),
        "stripped sets stay backdoor": _check_stripped_sets_stay_backdoor(family),
        "canonical set decides existence": _check_canonical_set_decides_existence(family),
    }
    assert all(n > 0 for n in counts.values())
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    summary = ", ".join(f"{name}: {n}" for name, n in counts.items())
    print(f"PASS criterion 6: structural suite clean ({summary}) ({elapsed:.1f}s)")


def test_criterion_7_twin_cli_fixture(capsys):
    code = cli_run(["twin", "--graph", str(FIXTURE_DIR / "fig1a.g"), "-X", "X"])
    out = capsys.readouterr().out
    assert code == 0
    twin = parse_graph(out)
    assert set(twin.nodes) == {"Z", "X", "Y", "X@do", "Y@do"}
    assert twin.directed == frozenset(
        {("Z", "X"), ("Z", "Y"), ("X", "Y"), ("Z", "Y@do"), ("X@do", "Y@do")}
    )
    assert twin.bidirected == frozenset()
    assert twin.parents("X@do") == frozenset()
    assert twin == parse_graph((FIXTURE_DIR / "fig2_twin.g").read_text())
    print("PASS criterion 7: CLI twin dump matches the expected two-world fixture")
