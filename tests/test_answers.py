"""One committed digest of every public adjustment answer.

For each graph the digest hashes, per query, the fast and reference
adjustment verdict documents, the back-door verdict document, the twin
and magnified booleans and the helper set on the magnified graph, and per
(treatments, outcomes) pair the proper back-door graph's text, the canonical
set, ``exists``, the first four enumerated sets, the twin network's text and
name map, its noise-linked text, the text of the graph magnified at the
outcomes' out-edges and the texts of ``cut_incoming``, ``cut_outgoing``,
``remove_nodes`` and ``latent_project`` at the treatments, and once per graph
the text and latent map of ``expand_bidirected``.  The graphs are every labelled 3-node ADMG with all of its
queries, and the seeded 300-graph family with 16 queries each.

A change that alters any answer changes its graph's hash, and the failure
names that graph.  Rewrite ``answers.sha256`` only for a deliberate change of
answers, by running this module:

    PYTHONPATH=src python tests/test_answers.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from adjustkit import (
    adjustment_criterion,
    backdoor_criterion,
    canonical_adjustment_set,
    cut_incoming,
    cut_outgoing,
    enumerate_adjustment_sets,
    exists_adjustment_set,
    expand_bidirected,
    graphical_ignorability,
    helper_conditioning_set,
    latent_project,
    magnification_check,
    magnify,
    noise_linked,
    proper_backdoor_graph,
    remove_nodes,
    twin_network,
    verdict_to_json,
)
from conftest import all_mixed_graphs, all_queries, graph_family

DIGEST_FILE = Path(__file__).resolve().parent / "answers.sha256"
FAMILY_QUERIES = 16


def _corpus():
    """(block, index, graph, queries) for every graph the digest covers."""
    for i, graph in enumerate(all_mixed_graphs(3)):
        yield "adm3", i, graph, list(all_queries(graph))
    for i, graph in enumerate(graph_family()):
        queries = list(all_queries(graph))
        if len(queries) > FAMILY_QUERIES:
            queries = random.Random(i).sample(queries, FAMILY_QUERIES)
        yield "family", i, graph, queries


def _names(nodes) -> list[str]:
    return sorted(nodes)


def _magnified(graph, outcomes):
    return magnify(graph, [(a, b) for a in sorted(outcomes) for b in sorted(graph.children(a))])


def _answers(graph, queries) -> list:
    records = []
    pairs = {}
    for q in queries:
        x, y, z = q.treatments, q.outcomes, q.covariates
        records.append([
            _names(q.treatments), _names(q.outcomes), _names(q.covariates),
            verdict_to_json("adjustment", adjustment_criterion(graph, q)),
            verdict_to_json("adjustment", adjustment_criterion(graph, q, mode="reference")),
            verdict_to_json("backdoor", backdoor_criterion(graph, q)),
            graphical_ignorability(graph, q),
            magnification_check(graph, q),
            _names(helper_conditioning_set(_magnified(graph, y), x, y, z)),
        ])
        pairs.setdefault((tuple(_names(q.treatments)), tuple(_names(q.outcomes))), None)
    for x, y in pairs:
        twin = twin_network(graph, x)
        records.append([
            list(x), list(y),
            proper_backdoor_graph(graph, x, y).to_text(),
            _names(canonical_adjustment_set(graph, x, y)),
            exists_adjustment_set(graph, x, y),
            [_names(s) for s in enumerate_adjustment_sets(graph, x, y, limit=4)],
            twin.graph.to_text(), sorted(twin.counterfactual_of.items()),
            noise_linked(twin).to_text(),
            _magnified(graph, y).to_text(),
            cut_incoming(graph, x).to_text(),
            cut_outgoing(graph, x).to_text(),
            remove_nodes(graph, x).to_text(),
            latent_project(graph, x).to_text(),
        ])
    expanded, latents = expand_bidirected(graph)
    records.append([expanded.to_text(), sorted(latents.items())])
    return records


def _digest(graph, queries) -> str:
    text = json.dumps([graph.to_text(), _answers(graph, queries)], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _lines() -> list[str]:
    return [f"{block} {i} {_digest(graph, queries)}" for block, i, graph, queries in _corpus()]


def test_every_answer_matches_the_committed_digest():
    expected = DIGEST_FILE.read_text().splitlines()
    graphs = {(block, i): graph for block, i, graph, _ in _corpus()}
    got = _lines()
    assert len(got) == len(expected), "the corpus changed size; rewrite the digest on purpose"
    for line, want in zip(got, expected):
        if line != want:
            block, i, _ = line.split()
            graph = graphs[(block, int(i))]
            raise AssertionError(f"answers differ on {block} graph {i}:\n{graph.to_text()}")


if __name__ == "__main__":
    DIGEST_FILE.write_text("\n".join(_lines()) + "\n")
