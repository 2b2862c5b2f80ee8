"""The benchmark's checker must catch wrong answers, not only pass right ones.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import adjustkit as ak  # noqa: E402
import keys  # noqa: E402
import spans  # noqa: E402

X, Y, Z, W, C = (frozenset({v}) for v in "XYZWC")
EMPTY = frozenset()

CONFOUNDED = "node X Y Z\nZ -> X\nZ -> Y\nX -> Y\n"
# Two back-door routes of different length and a collider X -> C <- Y.
TWO_ROUTES = "node X Y W C Z\nW -> X\nW -> Y\nX <-> Z\nZ -> Y\nX -> C\nY -> C\n"


def adjust(text, x, y, z, holds, witness, failure=("path", None, None)):
    key = keys.GraphKey(text)
    path = keys.path_from_text(witness) if witness else None
    return keys.check_adjustment(key, x, y, z, holds, None if holds else failure, path, True)


def test_right_answers_pass():
    assert adjust(CONFOUNDED, X, Y, Z, True, None) is None
    assert adjust(CONFOUNDED, X, Y, EMPTY, False, "X <- Z -> Y") is None
    assert adjust(TWO_ROUTES, X, Y, EMPTY, False, "X <- W -> Y") is None


def test_flipped_verdicts_are_caught():
    assert "key says False" in adjust(CONFOUNDED, X, Y, EMPTY, True, None)
    assert "key says True" in adjust(CONFOUNDED, X, Y, Z, False, "X <- Z -> Y")
    key = keys.GraphKey(CONFOUNDED)
    assert keys.check_bool(key, X, Y, Z, False, "twin") is not None
    assert keys.check_backdoor(key, X, Y, EMPTY, True, None, None, False) is not None


def test_blocked_witness_is_caught():
    # Open back-door paths exist, but the reported one runs through an unconditioned collider.
    assert "blocked" in adjust(TWO_ROUTES, X, Y, EMPTY, False, "X -> C <- Y")
    # Conditioning on W blocks the reported path even though X <-> Z -> Y stays open.
    assert "blocked" in adjust(TWO_ROUTES, X, Y, W, False, "X <- W -> Y")


def test_causal_or_foreign_witness_is_caught():
    assert "wrong shape" in adjust(CONFOUNDED, X, Y, EMPTY, False, "X -> Y")
    assert "not a path" in adjust(CONFOUNDED, X, Y, EMPTY, False, "X <-> Y")


def test_non_minimal_witness_is_caught():
    assert "minimum" in adjust(TWO_ROUTES, X, Y, EMPTY, False, "X <-> Z -> Y")
    # Without exhaustive checking only the path properties are required.
    key = keys.GraphKey(TWO_ROUTES)
    longer = keys.path_from_text("X <-> Z -> Y")
    assert keys.check_adjustment(key, X, Y, EMPTY, False, ("path", None, None), longer, False) is None


def test_wrong_failure_kind_is_caught():
    mediator = "node X Y Z\nX -> Z\nZ -> Y\n"
    assert adjust(mediator, X, Y, Z, False, None, ("forbidden", "Z", "Z")) is None
    assert "key says" in adjust(mediator, X, Y, Z, False, "X -> Z -> Y")


def test_package_answers_pass_on_fixtures():
    for name in ("fig1a.g", "fig1b.g", "fig1c.g"):
        text = (ROOT / "fixtures" / name).read_text()
        graph, key = ak.parse_graph(text), keys.GraphKey(text)
        for z in (EMPTY, Z):
            v = ak.adjustment_criterion(graph, ak.AdjustmentQuery(X, Y, z))
            path = v.witness_path and keys.path_of(v.witness_path)
            assert keys.check_adjustment(key, X, Y, z, v.holds, keys.failure_of(v.failure), path, True) is None
            v = ak.backdoor_criterion(graph, ak.AdjustmentQuery(X, Y, z))
            path = v.witness_path and keys.path_of(v.witness_path)
            assert keys.check_backdoor(key, X, Y, z, v.holds, keys.failure_of(v.failure), path, True) is None


def model(text, seed=3):
    return ak.random_scm(ak.parse_graph(text), seed)


def test_soundness_gap_above_tolerance_is_caught():
    scm = model(CONFOUNDED)
    query = (X, Y, Z)
    good = SimpleNamespace(passed=True, trials=20, max_gap=0.0, worst_seed=3, worst_x={"X": 1})
    assert keys.check_soundness(good, lambda s: scm, query, 20) is None
    reported = SimpleNamespace(**{**vars(good), "max_gap": 2e-9})
    assert "max_gap" in keys.check_soundness(reported, lambda s: scm, query, 20)
    # A report that claims exactness for an invalid set fails the recomputation.
    biased = (X, Y, EMPTY)
    assert "recomputed gap" in keys.check_soundness(good, lambda s: scm, biased, 20)


def test_counterexample_gap_must_match_recomputation():
    scm = model(CONFOUNDED)
    _cell, tv = keys.gaps(scm, {"X": 1}, Y, EMPTY)
    found = SimpleNamespace(scm=scm, gap=tv, x={"X": 1}, trial=0, scm_seed=3)
    assert keys.check_counterexample(found, (X, Y, EMPTY), 3, 0.01) is None
    off = SimpleNamespace(**{**vars(found), "gap": tv + 1e-6})
    assert "recomputed" in keys.check_counterexample(off, (X, Y, EMPTY), 3, 0.01)


def test_counterfactual_marginal_gap_is_caught():
    scm = model("node V0 V1 V2\nV0 -> V1\nV1 -> V2\nV0 <-> V2\n")
    dist = ak.counterfactual_joint(scm, [("V2", None), ("V2", {"V0": 1})])
    assert keys.check_cf_joint(dist, scm, "V2", "V0") is None
    shifted = dist.probs.copy()
    shifted[0, 0] += 1e-7
    shifted[1, 1] -= 1e-7
    bad = SimpleNamespace(names=dist.names, probs=shifted)
    assert "differs" in keys.check_cf_joint(bad, scm, "V2", "V0")


def test_independent_joint_matches_package():
    scm = model(TWO_ROUTES)
    names, probs = keys.post_joint(scm, {})
    assert tuple(names) == ak.joint_observed(scm).names
    assert np.allclose(probs, ak.joint_observed(scm).probs, atol=1e-12)


@pytest.fixture
def tracer():
    from adjustkit import cli, criteria, graph, scm, separation, twin

    t = spans.Tracer([ak, graph, separation, criteria, twin, scm, cli])
    yield t
    t.uninstall()


def test_tracer_wraps_rebound_names_and_accounts_self_time(tracer):
    from adjustkit import criteria, graph as graph_module, twin

    separated, descendants = criteria.d_separated, twin.descendants
    assert descendants is graph_module.descendants
    tracer.install()
    assert criteria.d_separated is not separated and twin.descendants is not descendants
    graph = ak.parse_graph(CONFOUNDED)
    tracer.begin("op.adjustment")
    ak.adjustment_criterion(graph, ak.AdjustmentQuery(X, Y, EMPTY)).witness_path
    tracer.end()
    tracer.uninstall()
    assert criteria.d_separated is separated and twin.descendants is descendants
    assert tracer.calls["separation.decide"] >= 1 and tracer.counts["witnesses"] == 1
    assert tracer.counts["paths_enumerated"] == 1  # X <- Z -> Y; X -> Y is cut from the back-door graph
    root = tracer.span_end[0] - tracer.span_start[0]
    assert sum(tracer.self_time.values()) == pytest.approx(root, rel=1e-6)
    assert all(v >= 0 for v in tracer.self_time.values())


def test_work_limit_trips_at_a_count_and_puts_the_lookup_back():
    import workloads
    from adjustkit import separation

    graph = ak.parse_graph(TWO_ROUTES)
    query = ak.AdjustmentQuery(X, Y, EMPTY)
    lookup = separation.incident_marks
    used = []
    for limit in (10_000, 10_000, 3):
        work = workloads.WorkLimit(separation, limit)
        runner = workloads.Runner(None, None, work)
        status, _ = runner.call("adjustment", lambda: ak.adjustment_criterion(graph, query).witness_path, lambda r: None)
        used.append((status, work.used))
        runner.stop()
        assert separation.incident_marks is lookup
    assert used[0] == used[1] and used[0][0] == "ok" and used[0][1] > 3
    assert used[2] == ("over", 4)
