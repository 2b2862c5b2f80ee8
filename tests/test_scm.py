"""Discrete structural models: exact joints, interventions, counterfactuals."""

import dataclasses
import gc
import random
import re
import time
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest

from adjustkit import (
    AdjustmentQuery,
    Dist,
    PositivityError,
    StateSpaceError,
    adjustment_estimand,
    counterfactual_joint,
    interventional,
    joint_observed,
    random_scm,
    scm_from_json,
    scm_to_json,
    search_counterexample,
    verify_soundness,
)
from adjustkit import scm as scm_module
from adjustkit.criteria import adjustment_criterion
from adjustkit.scm import DiscreteScm, independence_gap
from conftest import (
    all_mixed_graphs,
    all_queries,
    graph_family,
    graph_from_edges,
    reference_counterfactual_joint,
    reference_gaps,
    reference_independence_gap,
    reference_refute,
    reference_verify,
)


def q(x, y, z=()):
    return AdjustmentQuery(frozenset(x), frozenset(y), frozenset(z))


def chain_graph(n):
    names = [f"N{i}" for i in range(n)]
    return graph_from_edges([(names[i], names[i + 1]) for i in range(n - 1)])


def confounded_chain(n, n_bi):
    """V0 -> ... -> V(n-1) plus ``n_bi`` seeded bidirected pairs."""
    names = [f"V{i}" for i in range(n)]
    pairs = random.Random(10 * n + n_bi).sample(list(combinations(names, 2)), n_bi)
    return graph_from_edges(list(zip(names, names[1:])), pairs)


def term_sets(x, z, y):
    """Factual plus do, two do-worlds, and a node intervened in its own world."""
    return [
        [(y, None), (y, {x: 1})],
        [(y, {x: 0}), (y, {x: 1})],
        [(x, {x: 1}), (y, {x: 1}), (z, {})],
    ]


class TestDist:
    def test_requires_name_sorted_variables(self):
        with pytest.raises(ValueError):
            Dist(("B", "A"), (2, 2), np.full((2, 2), 0.25))

    def test_requires_normalization(self):
        with pytest.raises(ValueError):
            Dist(("A",), (2,), np.array([0.3, 0.3]))

    def test_rejects_negative_cells(self):
        with pytest.raises(ValueError):
            Dist(("A",), (2,), np.array([1.2, -0.2]))

    def test_rejects_non_finite_cells(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dist(("A",), (2,), [np.nan, np.nan])
        with pytest.raises(ValueError, match="non-finite"):
            Dist(("A",), (2,), [np.inf, 0.0])

    def test_marginal(self):
        d = Dist(("A", "B"), (2, 2), np.array([[0.1, 0.2], [0.3, 0.4]]))
        m = d.marginal({"A"})
        assert m.names == ("A",)
        assert np.allclose(m.probs, [0.3, 0.7])
        with pytest.raises(ValueError):
            d.marginal({"C"})

    def test_slice_is_unnormalized(self):
        d = Dist(("A", "B"), (2, 2), np.array([[0.1, 0.2], [0.3, 0.4]]))
        s = d.slice_at({"A": 1})
        assert s.names == ("B",)
        assert np.allclose(s.probs, [0.3, 0.4])
        with pytest.raises(ValueError):
            d.slice_at({"A": 5})
        with pytest.raises(ValueError, match=r"^variables not in distribution: \['Q'\]$"):
            d.slice_at({"Q": 0})

    def test_cell(self):
        d = Dist(("A", "B"), (2, 2), np.array([[0.1, 0.2], [0.3, 0.4]]))
        assert d.cell({"A": 1, "B": 0}) == pytest.approx(0.3)
        with pytest.raises(ValueError):
            d.cell({"A": 1})
        # a negative value must not wrap around to the last cell
        for value in (-1, 2):
            with pytest.raises(ValueError, match="out of domain for A"):
                d.cell({"A": value, "B": 0})

    def test_values_must_be_integers(self, fig1a):
        """A float or a bool is not a state: ``slice_at`` used to cut at the
        truncated index, and the oracle raised ``IndexError`` or a shape error."""
        scm = random_scm(fig1a, seed=0)
        joint = joint_observed(scm)
        calls = {
            "slice_at": lambda v: joint.slice_at({"X": v}),
            "cell": lambda v: joint.cell({"X": v, "Y": 0, "Z": 0}),
            "interventional": lambda v: interventional(scm, {"X": v}, {"Y"}),
            "estimand": lambda v: adjustment_estimand(joint, {"X": v}, {"Y"}, {"Z"}),
            "counterfactual": lambda v: counterfactual_joint(scm, [("Y", {"X": v})]),
        }
        for name, call in calls.items():
            for value in (0.5, 1.0, 1.9, True, np.float64(1.0), np.bool_(True), "1"):
                with pytest.raises(ValueError, match=f"^value {re.escape(repr(value))} for X is not an integer$"):
                    call(value)
            assert call(np.int64(1)) is not None, name
        assert joint.slice_at({"X": np.int64(1)}).max_abs_diff(joint.slice_at({"X": 1})) == 0.0

    def test_comparisons_need_matching_variables(self):
        d = Dist(("A",), (2,), np.array([0.5, 0.5]))
        e = Dist(("B",), (2,), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            d.max_abs_diff(e)
        with pytest.raises(ValueError):
            d.total_variation(e)

    def test_total_variation_is_half_l1(self):
        d = Dist(("A",), (2,), np.array([1.0, 0.0]))
        e = Dist(("A",), (2,), np.array([0.0, 1.0]))
        assert d.total_variation(e) == pytest.approx(1.0)
        assert d.max_abs_diff(e) == pytest.approx(1.0)


class TestRandomScm:
    def test_deterministic_per_seed(self, fig1a):
        a = random_scm(fig1a, seed=7)
        b = random_scm(fig1a, seed=7)
        for v in a.expanded_dag.nodes:
            assert np.array_equal(a.cpts[v], b.cpts[v])
        c = random_scm(fig1a, seed=8)
        assert any(
            not np.array_equal(a.cpts[v], c.cpts[v]) for v in a.expanded_dag.nodes
        )

    def test_rows_sum_to_one(self, fig1a):
        scm = random_scm(fig1a, seed=1)
        assert len(scm.cpts) == 3
        for table in scm.cpts.values():
            assert np.allclose(table.sum(axis=-1), 1.0, atol=1e-12)
        scm.validate()

    def test_positivity_floor_is_exact(self, fig1c):
        scm = random_scm(fig1c, seed=3, positivity_eps=0.05)
        for table in scm.cpts.values():
            assert table.min() >= 0.05

    def test_bidirected_edge_becomes_latent(self, fig1c):
        scm = random_scm(fig1c, seed=0)
        assert len(scm.expanded_dag.nodes) == 4
        assert scm.latents == ("__U_X_Y",)
        assert scm.observed == ("X", "Z", "Y")
        assert scm.domains["__U_X_Y"] == 2

    def test_domain_size_applies_everywhere(self, fig1a):
        scm = random_scm(fig1a, seed=0, domain_size=3)
        assert all(size == 3 for size in scm.domains.values())
        assert scm.cpts["Y"].shape == (3, 3, 3)

    def test_eps_bounds_checked(self, fig1a):
        with pytest.raises(ValueError):
            random_scm(fig1a, seed=0, positivity_eps=-0.01)
        with pytest.raises(ValueError):
            random_scm(fig1a, seed=0, positivity_eps=0.5)
        with pytest.raises(ValueError):
            random_scm(fig1a, seed=0, domain_size=1)


    def test_integer_arguments_are_not_truncated(self, fig1a):
        """A float or a bool is not a seed, a domain size or a trial count:
        ``random_scm(g, 1.7)`` used to be the seed-1 model, a 2.9 domain drew
        binary tables, and reports gave back a seed of 0.5 or ``trials: True``."""
        holding, failing = q({"X"}, {"Y"}, {"Z"}), q({"X"}, {"Y"})
        calls = {
            "seed": lambda v: random_scm(fig1a, v),
            "domain_size": lambda v: random_scm(fig1a, 0, v),
            "verify trials": lambda v: verify_soundness(fig1a, holding, trials=v),
            "verify seed": lambda v: verify_soundness(fig1a, holding, trials=2, seed=v),
            "verify domain_size": lambda v: verify_soundness(fig1a, holding, trials=2, domain_size=v),
            "refute trials": lambda v: search_counterexample(fig1a, failing, trials=v),
            "refute seed": lambda v: search_counterexample(fig1a, failing, trials=2, seed=v),
            "refute domain_size": lambda v: search_counterexample(fig1a, failing, trials=2, domain_size=v),
        }
        for name, call in calls.items():
            for value in (0.5, 1.7, 2.0, 2.9, True, np.float64(2.0), np.bool_(True), "2"):
                with pytest.raises(ValueError, match=f"^value {re.escape(repr(value))} for .* is not an integer$"):
                    call(value)
            call(np.int64(2))
        assert random_scm(fig1a, np.int64(3)) is random_scm(fig1a, 3)
        assert type(random_scm(fig1a, np.int64(3)).seed) is int
        report = verify_soundness(fig1a, holding, trials=np.int64(2), seed=np.int64(1))
        assert report.to_json() == verify_soundness(fig1a, holding, trials=2, seed=1).to_json()

    def test_state_space_guard_covers_each_drawn_table(self):
        # D's table has 33^4 = 1,185,921 cells, past the limit, though no joint is asked for
        graph = graph_from_edges([("A", "D"), ("B", "D"), ("C", "D")])
        with pytest.raises(StateSpaceError):
            random_scm(graph, seed=0, domain_size=33, positivity_eps=0.0)
        assert random_scm(graph, seed=0, domain_size=31, positivity_eps=0.0).cpts["D"].size == 31**4

    def test_models_are_read_only(self):
        # random_scm hands every caller the same model for equal arguments,
        # so no caller may change it.
        edges = [("Ra", "Rb")]
        scm = random_scm(graph_from_edges(edges), seed=1)
        before = scm.cpts["Ra"].copy()
        with pytest.raises(TypeError):
            scm.cpts["Ra"] = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            scm.cpts["Ra"][0] = 1.0
        with pytest.raises(TypeError):
            scm.domains["Ra"] = 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            scm.cpts = {}
        again = random_scm(graph_from_edges(edges), seed=1)
        assert np.array_equal(again.cpts["Ra"], before)

    def test_every_drawn_model_validates(self):
        # random_scm does not re-check its own draw, so every draw is checked here
        for graph in all_mixed_graphs(3) + graph_family():
            for seed in range(3):
                random_scm(graph, seed).validate()

    def test_validate_checks_a_model_built_outside(self, fig1a, fig1b):
        scm = random_scm(fig1a, seed=0)
        elsewhere = DiscreteScm(fig1b, scm.expanded_dag, dict(scm.domains), dict(scm.cpts), scm.latents)
        with pytest.raises(ValueError, match="does not project back"):
            elsewhere.validate()
        doubled = {**scm.cpts, "X": scm.cpts["X"] * 2}
        with pytest.raises(ValueError, match="do not sum to 1"):
            DiscreteScm(fig1a, scm.expanded_dag, dict(scm.domains), doubled, scm.latents).validate()

    def test_model_copies_the_callers_tables(self):
        scm = random_scm(graph_from_edges([("Ca", "Cb")]), seed=2)
        tables = {v: t.copy() for v, t in scm.cpts.items()}
        own = DiscreteScm(scm.graph, scm.expanded_dag, dict(scm.domains), tables, scm.latents)
        tables["Ca"][0] = 1.0
        assert tables["Ca"].flags.writeable
        assert np.array_equal(own.cpts["Ca"], scm.cpts["Ca"])


class TestJointObserved:
    def test_independent_coins_factorize(self):
        g = graph_from_edges([], nodes=["A", "B"])
        scm = random_scm(g, seed=5)
        joint = joint_observed(scm)
        pa = joint.marginal({"A"})
        pb = joint.marginal({"B"})
        assert np.allclose(joint.probs, np.outer(pa.probs, pb.probs))

    def test_screening_independence_holds(self, fig1b):
        for seed in range(5):
            joint = joint_observed(random_scm(fig1b, seed=seed))
            assert independence_gap(joint, {"Z"}, {"Y"}, {"X"}) <= 1e-9

    def test_connected_pair_is_dependent(self, fig1a):
        worst = max(
            independence_gap(joint_observed(random_scm(fig1a, seed=s)), {"Z"}, {"Y"}, {"X"})
            for s in range(5)
        )
        assert worst > 1e-4

    def test_callers_cannot_change_the_cached_joint(self, fig1a):
        scm = random_scm(fig1a, seed=0)
        joint = joint_observed(scm)
        with pytest.raises(ValueError):
            joint.probs[0] = 0.0
        joint.probs = np.zeros_like(joint.probs)
        assert joint_observed(scm).probs.sum() == pytest.approx(1.0)

    def test_state_space_guard(self):
        scm = random_scm(chain_graph(21), seed=0)
        with pytest.raises(StateSpaceError):
            joint_observed(scm)

    def test_small_joints_are_kept_on_the_model(self, fig1a):
        scm = random_scm(fig1a, seed=0)
        assert joint_observed(scm).probs is joint_observed(scm).probs

    def test_large_joints_are_not_kept(self):
        # every trial draws a new model; were it kept in the model cache, its
        # 2^20-cell joints (8 MB each) would outlive the call
        tracemalloc.start()
        try:
            verify_soundness(chain_graph(20), q({"N0"}, {"N19"}), trials=4, seed=500)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 8 * 2**20

    def test_a_kept_model_bounds_its_interventional_joints(self):
        # a 13-node chain's joints have 2^13 cells (64 kB), so its models stay
        # in the model cache; asked about twelve treatment sets, each keeps its
        # observational joint and at most 2^13 cells of interventional ones
        graph = graph_from_edges([(f"M{i}", f"M{i + 1}") for i in range(12)])
        tracemalloc.start()
        try:
            for i in range(12):
                verify_soundness(graph, q({f"M{i}"}, {"M12"}), trials=10)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 4 * 2**20

    def test_a_kept_model_drops_its_oldest_interventional_joint(self):
        # a 12-node chain's joints have 2^12 cells, so a kept model holds two
        # interventional joints; a third replaces the one computed first
        graph = graph_from_edges([(f"K{i}", f"K{i + 1}") for i in range(11)])
        scm = random_scm(graph, seed=0)
        assert random_scm(graph, seed=0) is scm
        for v in ("K1", "K2", "K1", "K3"):
            interventional(scm, {v: 0}, {"K11"})
        assert [k for k in scm._cache if k[1]] == [("post", ("K2",)), ("post", ("K3",))]

    def test_a_held_large_model_keeps_its_joints(self):
        # a model with 2^14-cell joints is not shared, but the caller that
        # holds it computes each joint once, as with a small model, however
        # many treatment sets it asks about
        graph = chain_graph(14)
        scm = random_scm(graph, seed=0)
        assert random_scm(graph, seed=0) is not scm
        assert joint_observed(scm).probs is joint_observed(scm).probs
        posts = {}
        for v in ("N3", "N5", "N3", "N5"):
            interventional(scm, {v: 1}, {"N9"})
            posts.setdefault(v, scm._cache[("post", (v,))])
            assert scm._cache[("post", (v,))] is posts[v]
        assert all(scm._cache[("post", (v,))] is post for v, post in posts.items())


class TestModelTable:
    """``random_scm`` keeps the models it drew last in one bounded table."""

    def test_kept_memory_does_not_grow_with_trials(self, fig1a):
        # each fig1a model with its joints is about 2.4 kB; a table without a
        # bound kept all of them, so the second sweep's models added 1.2 MB
        query = q({"X"}, {"Y"}, {"Z"})
        size = scm_module._kept.cache_info().maxsize
        tracemalloc.start()
        try:
            verify_soundness(fig1a, query, trials=size, seed=10**6)
            gc.collect()
            first = tracemalloc.get_traced_memory()[0]
            verify_soundness(fig1a, query, trials=size, seed=10**6 + size)
            gc.collect()
            second = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert second - first < 100 * 2**10

    def test_an_evicted_model_is_drawn_again_the_same(self, fig1a):
        seed = 2 * 10**6
        scm = random_scm(fig1a, seed)
        assert random_scm(fig1a, seed) is scm
        for other in range(seed + 1, seed + 1 + scm_module._kept.cache_info().maxsize):
            random_scm(fig1a, other)
        again = random_scm(fig1a, seed)
        assert again is not scm
        assert again.expanded_dag is scm.expanded_dag
        for v in scm.expanded_dag.nodes:
            assert np.array_equal(again.cpts[v], scm.cpts[v])

    def test_repeated_sweeps_draw_each_seed_once(self):
        # oracle sweeps ask for the same 20 seeds on every query of a graph; a
        # table smaller than that cycle would draw every model on every query
        graph = graph_from_edges([("Ta", "Tx"), ("Ta", "Ty"), ("Tx", "Ty")])
        drawn = scm_module._kept.cache_info().misses
        for _ in range(5):
            verify_soundness(graph, q({"Tx"}, {"Ty"}, {"Ta"}), trials=20, seed=0)
        assert scm_module._kept.cache_info().misses - drawn == 20


class TestInterventional:
    def test_empty_intervention_is_exact(self, fig1a):
        scm = random_scm(fig1a, seed=2)
        joint = joint_observed(scm)
        got = interventional(scm, {}, {"Y"})
        assert got.max_abs_diff(joint.marginal({"Y"})) == 0.0

    def test_backdoor_formula_fork(self, fig1a):
        for seed in range(5):
            scm = random_scm(fig1a, seed=seed)
            joint = joint_observed(scm)
            for xv in (0, 1):
                est = adjustment_estimand(joint, {"X": xv}, {"Y"}, {"Z"})
                truth = interventional(scm, {"X": xv}, {"Y"})
                assert est.max_abs_diff(truth) <= 1e-9

    def test_front_door_formula(self, fig1c):
        for seed in range(5):
            scm = random_scm(fig1c, seed=seed)
            joint = joint_observed(scm)  # axes X, Y, Z (name-sorted)
            px = joint.marginal({"X"}).probs
            pxz = joint.marginal({"X", "Z"}).probs
            for xv in (0, 1):
                # sum_z P(z|x) sum_x' P(y|z,x') P(x')
                total = np.zeros(2)
                for zv in (0, 1):
                    pz_given_x = pxz[xv, zv] / pxz[xv].sum()
                    inner = np.zeros(2)
                    for xp in (0, 1):
                        row = joint.probs[xp, :, zv]
                        inner += (row / row.sum()) * px[xp]
                    total += pz_given_x * inner
                truth = interventional(scm, {"X": xv}, {"Y"})
                assert np.abs(total - truth.probs).max() <= 1e-9

    def test_rejects_bad_values(self, fig1a):
        scm = random_scm(fig1a, seed=0)
        with pytest.raises(ValueError):
            interventional(scm, {"X": 9}, {"Y"})
        with pytest.raises(ValueError):
            interventional(scm, {"X": 0}, {"X"})
        with pytest.raises(ValueError):
            interventional(scm, {"X": 0}, set())


class TestAdjustmentEstimand:
    def test_no_covariates_is_conditioning(self, fig1a):
        scm = random_scm(fig1a, seed=4)
        joint = joint_observed(scm)
        est = adjustment_estimand(joint, {"X": 1}, {"Y"}, set())
        cond = joint.marginal({"X", "Y"}).slice_at({"X": 1}).probs
        assert np.abs(est.probs - cond / cond.sum()).max() <= 1e-12

    def test_screening_set_recovers_truth(self, fig1b):
        for seed in range(5):
            scm = random_scm(fig1b, seed=seed)
            joint = joint_observed(scm)
            for xv in (0, 1):
                est = adjustment_estimand(joint, {"X": xv}, {"Y"}, {"Z"})
                truth = interventional(scm, {"X": xv}, {"Y"})
                assert est.max_abs_diff(truth) <= 1e-9

    def test_mediator_adjustment_is_biased(self, fig1c):
        gaps = []
        for seed in range(10):
            scm = random_scm(fig1c, seed=seed)
            joint = joint_observed(scm)
            gaps.append(
                max(
                    adjustment_estimand(joint, {"X": xv}, {"Y"}, {"Z"}).total_variation(
                        interventional(scm, {"X": xv}, {"Y"})
                    )
                    for xv in (0, 1)
                )
            )
        assert max(gaps) > 0.01

    def test_positivity_violation_names_the_cell(self):
        g = graph_from_edges([("X", "Y")], nodes=["X", "Y", "Z"])
        drawn = random_scm(g, seed=0)
        scm = dataclasses.replace(drawn, cpts={**drawn.cpts, "X": np.array([1.0, 0.0])})
        joint = joint_observed(scm)
        with pytest.raises(PositivityError) as err:
            adjustment_estimand(joint, {"X": 1}, {"Y"}, {"Z"})
        # the error names the covariate cell whose P(x, z) vanished
        assert set(err.value.assignment) == {"Z"}
        assert "Z=" in str(err.value)


class TestCounterfactualJoint:
    @staticmethod
    def assert_matches_reference(scm, terms):
        dist = counterfactual_joint(scm, terms)
        names, probs = reference_counterfactual_joint(scm, terms)
        assert dist.names == names
        assert np.abs(dist.probs - probs).max() <= 1e-12

    def test_matches_reference_loop_on_all_3_node_admgs(self):
        for index, graph in enumerate(all_mixed_graphs(3)):
            scm = random_scm(graph, seed=index)
            for terms in term_sets("A", "B", "C"):
                self.assert_matches_reference(scm, terms)

    @pytest.mark.parametrize("n, n_bi", [(n, bi) for n in (5, 6) for bi in (1, 2, 3)])
    def test_matches_reference_loop_on_chains(self, n, n_bi):
        scm = random_scm(confounded_chain(n, n_bi), seed=n_bi)
        for terms in term_sets("V0", "V1", f"V{n - 1}"):
            self.assert_matches_reference(scm, terms)

    def test_eight_node_chain_with_four_latents_is_fast(self):
        scm = random_scm(confounded_chain(8, 4), seed=0)
        started = time.perf_counter()
        dist = counterfactual_joint(scm, [("V7", None), ("V7", {"V0": 1})])
        assert time.perf_counter() - started < 1.0
        truth = interventional(scm, {"V0": 1}, {"V7"})
        assert np.abs(dist.marginal({"V7@do(V0=1)"}).probs - truth.probs).max() <= 1e-9

    def test_factual_marginal_matches_joint(self, fig1c):
        scm = random_scm(fig1c, seed=6)
        dist = counterfactual_joint(scm, [("Y", {})])
        expected = joint_observed(scm).marginal({"Y"})
        assert np.abs(dist.probs - expected.probs).max() <= 1e-9
        assert dist.names == ("Y",)

    def test_intervened_marginal_matches_g_formula(self, fig1c):
        scm = random_scm(fig1c, seed=6)
        for xv in (0, 1):
            dist = counterfactual_joint(scm, [("Y", {"X": xv})])
            truth = interventional(scm, {"X": xv}, {"Y"})
            assert np.abs(dist.probs - truth.probs).max() <= 1e-9
            assert dist.names == (f"Y@do(X={xv})",)

    def test_conditional_ignorability_fork(self, fig1a):
        for seed in range(3):
            scm = random_scm(fig1a, seed=seed)
            for xv in (0, 1):
                dist = counterfactual_joint(
                    scm, [("Y", {"X": xv}), ("X", {}), ("Z", {})]
                )
                gap = independence_gap(dist, {f"Y@do(X={xv})"}, {"X"}, {"Z"})
                assert gap <= 1e-9

    def test_cross_world_joint_normalizes(self, fig1a):
        scm = random_scm(fig1a, seed=9)
        dist = counterfactual_joint(scm, [("Y", {"X": 0}), ("Y", {"X": 1}), ("Y", {})])
        assert dist.probs.shape == (2, 2, 2)
        assert dist.probs.sum() == pytest.approx(1.0)
        # each single-world margin still matches its own formula
        for xv in (0, 1):
            m = dist.marginal({f"Y@do(X={xv})"})
            truth = interventional(scm, {"X": xv}, {"Y"})
            assert np.abs(m.probs - truth.probs).max() <= 1e-9

    def test_same_world_terms_share_one_world(self, fig1a):
        scm = random_scm(fig1a, seed=11)
        dist = counterfactual_joint(scm, [("Y", {"X": 1}), ("Z", {"X": 1})])
        truth = interventional(scm, {"X": 1}, {"Y", "Z"})
        assert np.abs(dist.probs - truth.probs).max() <= 1e-9

    def test_duplicate_terms_rejected(self, fig1a):
        with pytest.raises(ValueError):
            counterfactual_joint(
                random_scm(fig1a, seed=0), [("Y", {}), ("Y", {})]
            )

    def test_unknown_node_rejected(self, fig1a):
        with pytest.raises(Exception):
            counterfactual_joint(random_scm(fig1a, seed=0), [("Q", {})])

    def test_state_space_guard(self):
        scm = random_scm(chain_graph(12), seed=0)
        with pytest.raises(StateSpaceError):
            counterfactual_joint(
                scm, [("N11", {"N0": 0}), ("N11", {"N0": 1}), ("N11", {})]
            )


class TestSearchCounterexample:
    @pytest.mark.parametrize("kwargs", [{"trials": 0}, {"trials": -3}, {"delta": -0.01}])
    def test_rejects_empty_or_negative_settings(self, fig1c, kwargs):
        with pytest.raises(ValueError):
            search_counterexample(fig1c, q(["X"], ["Y"], ["Z"]), **kwargs)

    def test_finds_mediator_bias(self, fig1c):
        found = search_counterexample(fig1c, q(["X"], ["Y"], ["Z"]), trials=50, seed=0)
        assert found is not None
        assert found.gap > 0.01
        assert found.scm_seed == found.trial
        assert set(found.x) == {"X"}
        doc = found.to_json()
        assert doc["found"] is True and doc["gap"] == found.gap

    def test_finds_confounder_bias(self, fig1c):
        found = search_counterexample(fig1c, q(["X"], ["Y"]), trials=50, seed=0)
        assert found is not None

    def test_refuses_valid_sets(self, fig1a):
        with pytest.raises(ValueError):
            search_counterexample(fig1a, q(["X"], ["Y"], ["Z"]))

    def test_returns_none_when_delta_unreachable(self, fig1c):
        found = search_counterexample(
            fig1c, q(["X"], ["Y"], ["Z"]), trials=3, delta=0.9, seed=0
        )
        assert found is None

    def test_gap_is_reproducible(self, fig1c):
        a = search_counterexample(fig1c, q(["X"], ["Y"], ["Z"]), trials=20, seed=5)
        b = search_counterexample(fig1c, q(["X"], ["Y"], ["Z"]), trials=20, seed=5)
        assert a.gap == b.gap and a.trial == b.trial and a.x == b.x


class TestVerifySoundness:
    @pytest.mark.parametrize("kwargs", [{"trials": 0}, {"trials": -3}, {"tol": -1e-9}])
    def test_rejects_empty_or_negative_settings(self, fig1a, kwargs):
        with pytest.raises(ValueError):
            verify_soundness(fig1a, q(["X"], ["Y"], ["Z"]), **kwargs)

    def test_fork(self, fig1a):
        report = verify_soundness(fig1a, q(["X"], ["Y"], ["Z"]), trials=20, seed=0)
        assert report.passed
        assert report.trials == 20
        assert report.max_gap <= 1e-9
        assert report.failures == []
        assert report.to_json()["passed"] is True

    def test_screen(self, fig1b):
        report = verify_soundness(fig1b, q(["X"], ["Y"], ["Z"]), trials=20, seed=0)
        assert report.passed and report.max_gap <= 1e-9

    def test_single_edge_trivial(self):
        g = graph_from_edges([("X", "Y")])
        report = verify_soundness(g, q(["X"], ["Y"]), trials=5, seed=0)
        assert report.passed

    def test_refuses_invalid_sets(self, fig1c):
        with pytest.raises(ValueError):
            verify_soundness(fig1c, q(["X"], ["Y"], ["Z"]))

    def test_worst_case_is_reported(self, fig1a):
        report = verify_soundness(fig1a, q(["X"], ["Y"], ["Z"]), trials=5, seed=3)
        assert report.worst_seed in range(3, 8)
        assert set(report.worst_x) == {"X"}


class TestAgainstPerTreatmentReference:
    """The batched oracle against a loop over one treatment value at a time."""

    @staticmethod
    def family_queries(holds, per_graph=4):
        for index, graph in enumerate(graph_family()[:100]):
            picked = [query for query in all_queries(graph) if adjustment_criterion(graph, query).holds == holds]
            for query in picked[:per_graph]:
                yield index, graph, query

    def test_verify(self):
        for _index, graph, query in self.family_queries(holds=True):
            report = verify_soundness(graph, query, trials=5, tol=1e-9, seed=0)
            passed, failures, max_gap = reference_verify(graph, query, 5, 1e-9, 0)
            assert (report.passed, report.failures) == (passed, failures)
            assert abs(report.max_gap - max_gap) <= 1e-12

    def test_refute(self):
        for index, graph, query in self.family_queries(holds=False):
            found = search_counterexample(graph, query, trials=30, delta=0.01, seed=index)
            expected = reference_refute(graph, query, 30, 0.01, index)
            if found is None or expected is None:
                assert found is expected
                continue
            trial, scm_seed, gap, x = expected
            assert (found.trial, found.scm_seed) == (trial, scm_seed)
            assert abs(found.gap - gap) <= 1e-12
            if found.x != x:
                # only a tie may pick another treatment value
                tv = {tuple(sorted(r[2].items())): r[4] for r in reference_gaps(graph, query, 1, scm_seed)}
                assert abs(tv[tuple(sorted(found.x.items()))] - gap) <= 1e-12

    def test_positivity_names_the_first_bad_cell_of_the_first_bad_treatment_value(self, monkeypatch):
        # X2 = 1 never happens when Z2 = 1, so in product order over (X1, X2)
        # the first violation is at x = (0, 1), covariate cell (Z1, Z2) = (0, 1).
        edges = [("Z1", "X1"), ("Z2", "X2"), ("X1", "Y"), ("X2", "Y"), ("Z1", "Y"), ("Z2", "Y")]
        query = q(["X1", "X2"], ["Y"], ["Z1", "Z2"])
        # X1 <-> Y makes the same query fail, for the counterexample search
        for bidirected, check in (((), verify_soundness), ([("X1", "Y")], search_counterexample)):
            graph = graph_from_edges(edges, bidirected)
            drawn = random_scm(graph, seed=0)
            scm = dataclasses.replace(drawn, cpts={**drawn.cpts, "X2": np.array([[0.5, 0.5], [1.0, 0.0]])})
            joint = joint_observed(scm)
            raised = []
            for x1, x2 in product((0, 1), repeat=2):
                try:
                    adjustment_estimand(joint, {"X1": x1, "X2": x2}, {"Y"}, {"Z1", "Z2"})
                except PositivityError as err:
                    raised.append(((x1, x2), err.assignment))
            assert raised == [((0, 1), {"Z1": 0, "Z2": 1}), ((1, 1), {"Z1": 0, "Z2": 1})]
            monkeypatch.setattr(scm_module, "random_scm", lambda *args, scm=scm: scm)
            with pytest.raises(PositivityError) as err:
                check(graph, query, trials=1)
            assert err.value.assignment == {"Z1": 0, "Z2": 1}


class TestSerialization:
    def test_round_trip(self, fig1c):
        scm = random_scm(fig1c, seed=13, domain_size=3)
        doc = scm_to_json(scm)
        back = scm_from_json(doc)
        assert back.graph == scm.graph
        assert back.expanded_dag == scm.expanded_dag
        assert back.domains == scm.domains
        assert back.latents == scm.latents
        for v in scm.expanded_dag.nodes:
            assert np.allclose(back.cpts[v], scm.cpts[v], atol=0)
        assert joint_observed(back).max_abs_diff(joint_observed(scm)) == 0.0

    def test_rejects_unsorted_parents(self, fig1a):
        doc = scm_to_json(random_scm(fig1a, seed=0))
        doc["parents"]["Y"] = list(reversed(doc["parents"]["Y"]))
        with pytest.raises(ValueError):
            scm_from_json(doc)

    def test_load_projects_once(self, fig1c, monkeypatch):
        doc = scm_to_json(random_scm(fig1c, seed=13))
        calls = []
        project = scm_module.latent_project
        monkeypatch.setattr(scm_module, "latent_project", lambda *args: calls.append(args) or project(*args))
        scm_from_json(doc)
        assert len(calls) == 1

    def test_json_serializable(self, fig1a):
        import json

        doc = scm_to_json(random_scm(fig1a, seed=0))
        assert scm_from_json(json.loads(json.dumps(doc))).seed == 0

    def test_rejects_nan_tables(self, fig1a):
        import json

        doc = scm_to_json(random_scm(fig1a, seed=0))
        doc["cpt"]["X"] = [float("nan")] * len(doc["cpt"]["X"])
        # Python's json writes and reads NaN, so such a document can arrive
        with pytest.raises(ValueError, match="non-finite"):
            scm_from_json(json.loads(json.dumps(doc)))


    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"nodes": ["A"]}, "model document lacks the key 'latents'"),
            ([], "model document must be a JSON object, not list"),
            ({"nodes": ["A"], "latents": [], "domains": {}, "parents": {"A": []}, "cpt": {"A": [1.0]}},
             "domains lacks the key 'A'"),
            ({"nodes": ["A"], "latents": [], "domains": {"A": 1}, "parents": [], "cpt": {"A": [1.0]}},
             "parents must be a JSON object, not list"),
        ],
    )
    def test_malformed_document_raises_value_error(self, doc, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            scm_from_json(doc)

    def test_node_list_as_a_string_is_refused(self, fig1a):
        """``"AB"`` would read as the nodes A and B, as everywhere in the package."""
        doc = scm_to_json(random_scm(fig1a, seed=0))
        doc["nodes"] = "".join(doc["nodes"])
        with pytest.raises(TypeError, match="not the string"):
            scm_from_json(doc)


class TestIndependenceGap:
    def test_rejects_overlap(self, fig1a):
        joint = joint_observed(random_scm(fig1a, seed=0))
        with pytest.raises(ValueError):
            independence_gap(joint, {"X"}, {"X"}, set())

    def test_exact_independence_is_zero(self):
        g = graph_from_edges([], nodes=["A", "B"])
        joint = joint_observed(random_scm(g, seed=1))
        assert independence_gap(joint, {"A"}, {"B"}, set()) <= 1e-12

    def test_matches_the_four_marginal_formula(self):
        rng = np.random.default_rng(17)
        names = ("A", "B", "C", "D")
        for _ in range(60):
            sizes = tuple(int(k) for k in rng.integers(1, 4, size=len(names)))
            probs = rng.random(sizes) * (rng.random(sizes) < 0.8)  # some zero cells
            probs.flat[0] += 0.1
            dist = Dist(names, sizes, probs / probs.sum())
            roles = rng.integers(0, 4, size=len(names))  # first, second, given or left out
            first, second, given = ({n for n, r in zip(names, roles) if r == k} for k in range(3))
            assert independence_gap(dist, first, second, given) == pytest.approx(
                reference_independence_gap(dist, first, second, given), abs=1e-12
            )
