"""Command-line front end.

Every subcommand reads a graph in the text format and runs one check or
transform.  A verb returns its JSON document, its short human-readable
sentence and whether the queried property holds; ``run`` alone prints (the
sentence, or with ``--json`` exactly one JSON document) and picks the exit
status: 0 when the queried property holds (or the transform succeeded), 1
when a criterion fails or a counterexample is found, 2 on usage, parse, or
precondition errors, and 3 on an internal error (one ``internal error: ...``
line on stderr), so that a crash never reads as a failing criterion.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path as FsPath

from .criteria import (
    AdjustmentQuery,
    CriterionVerdict,
    adjustment_criterion,
    backdoor_criterion,
    canonical_adjustment_set,
    enumerate_adjustment_sets,
    exists_adjustment_set,
    magnification_check,
    magnify,
    verdict_to_json,
)
from .graph import Admg, GraphError, latent_project, parse_graph
from .scm import search_counterexample, verify_soundness
from .separation import enumerate_paths, path_blocked
from .twin import twin_network

__all__ = ["main", "run"]


def _load_graph(path: str) -> Admg:
    try:
        text = FsPath(path).read_text()
    except OSError as exc:
        raise GraphError(f"cannot read graph file {path}: {exc}") from exc
    return parse_graph(text)


def _nodes(arg: str | None) -> frozenset[str]:
    return frozenset(t.strip() for t in (arg or "").split(",") if t.strip())


def _edges(arg: str | None) -> list[tuple[str, str]]:
    out = []
    for chunk in (arg or "").split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        tail, arrow, head = (part.strip() for part in chunk.partition("->"))
        if not (tail and arrow and head):
            raise GraphError(f"bad edge {chunk!r}: expected 'A->B'")
        out.append((tail, head))
    return out


def _fmt_set(names) -> str:
    return "{" + ", ".join(sorted(names)) + "}"


def _query(args) -> AdjustmentQuery:
    return AdjustmentQuery(_nodes(args.X), _nodes(args.Y), _nodes(args.Z))


# keyed by the ``failure.kind`` of the verdict document, filled from its fields
_FAILURE_SENTENCES = {
    "forbidden_descendant": (
        "covariate {offender} is a post-intervention descendant of "
        "{causal_node}, which lies on a proper causal path"
    ),
    "treatment_descendant": "covariate {offender} is a descendant of the treatment set",
    "open_noncausal_path": "non-causal path {path} open given the covariates",
    "open_backdoor_path": "back-door path {path} open given the covariates",
}


def _criterion_command(args, graph: Admg):
    query = _query(args)
    if args.criterion == "backdoor":
        verdict = backdoor_criterion(graph, query)
        label = "back-door criterion"
    elif args.criterion == "adjustment":
        verdict = adjustment_criterion(graph, query, mode=args.mode)
        label = "adjustment criterion"
    else:
        verdict = CriterionVerdict(magnification_check(graph, query))
        label = "magnified-graph criterion"
    doc = verdict_to_json(args.criterion, verdict)
    if verdict.holds:
        human = f"{label} holds for Z = {_fmt_set(query.covariates)}"
    else:
        failure = doc["failure"]
        reason = _FAILURE_SENTENCES[failure["kind"]].format(**failure) if failure else "criterion fails"
        human = f"{label} fails: {reason}"
    return doc, human, verdict.holds


def _cmd_find_sets(args, graph: Admg):
    candidates = _nodes(args.candidates) if args.candidates is not None else None
    sets = enumerate_adjustment_sets(graph, _nodes(args.X), _nodes(args.Y), candidates, limit=args.limit)
    human = "\n".join(_fmt_set(s) for s in sets) if sets else "no valid adjustment set found"
    return {"sets": [sorted(s) for s in sets]}, human, bool(sets)


def _cmd_canonical_set(args, graph: Admg):
    canonical = canonical_adjustment_set(graph, _nodes(args.X), _nodes(args.Y))
    return {"set": sorted(canonical)}, _fmt_set(canonical), True


def _cmd_exists_set(args, graph: Admg):
    exists = exists_adjustment_set(graph, _nodes(args.X), _nodes(args.Y))
    human = "a valid adjustment set exists" if exists else "no valid adjustment set exists"
    return {"exists": exists}, human, exists


def _graph_out(graph: Admg, **extra):
    doc = {
        "nodes": list(graph.nodes),
        "directed": [list(e) for e in sorted(graph.directed)],
        "bidirected": [list(e) for e in sorted(graph.bidirected)],
        **extra,
    }
    return doc, graph.to_text().rstrip("\n"), True


def _cmd_twin(args, graph: Admg):
    twin = twin_network(graph, _nodes(args.X))
    return _graph_out(twin.graph, counterfactual_of=dict(twin.counterfactual_of))


def _cmd_project(args, graph: Admg):
    return _graph_out(latent_project(graph, _nodes(args.M)))


def _cmd_magnify(args, graph: Admg):
    return _graph_out(magnify(graph, _edges(args.E)))


def _cmd_paths(args, graph: Admg):
    given = graph.node_subset(_nodes(args.Z))
    paths = enumerate_paths(graph, _nodes(args.X), _nodes(args.Y), max_len=args.max_len)
    rows = [(p, path_blocked(graph, p, given)) for p in paths]
    doc = {"paths": [{"path": str(p), "blocked": blocked} for p, blocked in rows]}
    human = "\n".join(f"{p}  [{'blocked' if blocked else 'open'}]" for p, blocked in rows)
    return doc, human or "no paths", True


def _cmd_verify(args, graph: Admg):
    report = verify_soundness(graph, _query(args), trials=args.trials, tol=args.tol, seed=args.seed)
    if report.passed:
        human = f"soundness verified: {report.trials} trials, max gap {report.max_gap:.3e} (tolerance {args.tol:g})"
    else:
        worst = report.failures[0]
        human = f"soundness FAILED: seed {worst['seed']}, x={worst['x']}, gap {worst['gap']:.3e}"
    return report.to_json(), human, report.passed


def _cmd_refute(args, graph: Admg):
    found = search_counterexample(graph, _query(args), trials=args.trials, delta=args.delta, seed=args.seed)
    if found is None:
        doc = {"found": False, "trials": args.trials, "delta": args.delta}
        return doc, f"no counterexample found in {args.trials} trials (delta {args.delta:g})", True
    human = (
        f"counterexample found: trial {found.trial} (seed {found.scm_seed}), "
        f"x={dict(sorted(found.x.items()))}, total-variation gap {found.gap:.4f}"
    )
    return found.to_json(), human, False


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adjustkit",
        description="Covariate-adjustment validity checks on mixed causal graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(name, summary, func, flags="XYZ", z_help="covariates", **defaults):
        # ``flags`` other than "XYZ" names required node-set flags without help
        p = sub.add_parser(name, help=summary)
        p.add_argument("--graph", required=True, help="path to a graph text file")
        p.add_argument("--json", action="store_true", help="emit one JSON document")
        if flags == "XYZ":
            p.add_argument("-X", required=True, help="treatment nodes, comma-separated")
            p.add_argument("-Y", required=True, help="outcome nodes, comma-separated")
            p.add_argument("-Z", default="", help=f"{z_help}, comma-separated")
        else:
            for flag in flags:
                p.add_argument(f"-{flag}", required=True)
        p.set_defaults(func=func, **defaults)
        return p

    verb("check-backdoor", "test the back-door criterion", _criterion_command, criterion="backdoor")
    p = verb("check-adjust", "test the adjustment criterion", _criterion_command, criterion="adjustment")
    p.add_argument("--mode", choices=("fast", "reference"), default="fast")
    verb("check-t7", "test adjustment validity on the magnified graph", _criterion_command, criterion="theorem7")

    p = verb("find-sets", "enumerate valid adjustment sets", _cmd_find_sets, flags="XY")
    p.add_argument("--candidates", default=None, help="candidate covariates, comma-separated")
    p.add_argument("--limit", type=int, default=16)
    verb("canonical-set", "print the canonical adjustment set", _cmd_canonical_set, flags="XY")
    verb("exists-set", "does any valid adjustment set exist?", _cmd_exists_set, flags="XY")

    verb("twin", "print the two-world graph for an intervention", _cmd_twin, flags="X")
    p = verb("project", "marginalize nodes out of the graph", _cmd_project, flags="")
    p.add_argument("-M", required=True, help="nodes to marginalize, comma-separated")
    p = verb("magnify", "splice in sources for bidirected edges and mediators for chosen edges", _cmd_magnify, flags="")
    p.add_argument("-E", default="", help="edges to mediate, e.g. 'A->B,C->D'")

    p = verb(
        "paths", "list paths between two node sets", _cmd_paths, z_help="conditioning set for open/blocked annotation"
    )
    p.add_argument("--max-len", type=int, default=None, dest="max_len")

    p = verb("verify", "numerically verify a holding criterion", _cmd_verify)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p = verb("refute", "search for a numeric counterexample to a failing criterion", _cmd_refute)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        doc, human, holds = args.func(args, _load_graph(args.graph))
        print(json.dumps(doc, indent=2, sort_keys=True) if args.json else human)
    except (GraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3
    return 0 if holds else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
