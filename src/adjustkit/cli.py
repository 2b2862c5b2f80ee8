"""Command-line front end.

Every subcommand reads a graph in the text format, runs one check or
transform, and prints either a short human-readable report or (with
``--json``) exactly one JSON document.  Exit status: 0 when the queried
property holds (or the transform succeeded), 1 when a criterion fails or a
counterexample is found, 2 on usage, parse, or precondition errors, and 3
on an internal error (one ``internal error: ...`` line on stderr), so that a
crash never reads as a failing criterion.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path as FsPath

from .criteria import (
    AdjustmentQuery,
    CriterionVerdict,
    ForbiddenDescendant,
    OpenBackdoorPath,
    OpenNonCausalPath,
    TreatmentDescendant,
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
    if not arg:
        return frozenset()
    return frozenset(t.strip() for t in arg.split(",") if t.strip())


def _edges(arg: str | None) -> list[tuple[str, str]]:
    out = []
    for chunk in (arg or "").split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "->" not in chunk:
            raise GraphError(f"bad edge {chunk!r}: expected 'A->B'")
        tail, head = (part.strip() for part in chunk.split("->", 1))
        if not tail or not head:
            raise GraphError(f"bad edge {chunk!r}: expected 'A->B'")
        out.append((tail, head))
    return out


def _fmt_set(names) -> str:
    return "{" + ", ".join(sorted(names)) + "}"


def _graph_json(graph: Admg) -> dict:
    return {
        "nodes": list(graph.nodes),
        "directed": [list(e) for e in sorted(graph.directed)],
        "bidirected": [list(e) for e in sorted(graph.bidirected)],
    }


def _emit(args, doc: dict, human: str) -> None:
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(human)


_FAILURE_SENTENCES = {
    ForbiddenDescendant: (
        "covariate {offender} is a post-intervention descendant of "
        "{causal_node}, which lies on a proper causal path"
    ),
    TreatmentDescendant: "covariate {offender} is a descendant of the treatment set",
    OpenNonCausalPath: "non-causal path {path} open given the covariates",
    OpenBackdoorPath: "back-door path {path} open given the covariates",
}


def _describe_failure(verdict) -> str:
    f = verdict.failure
    if f is None:
        return "criterion fails"
    return _FAILURE_SENTENCES[type(f)].format(**vars(f))


def _criterion_command(args) -> int:
    criterion = args.criterion
    graph = _load_graph(args.graph)
    query = AdjustmentQuery(_nodes(args.X), _nodes(args.Y), _nodes(args.Z))
    if criterion == "backdoor":
        verdict = backdoor_criterion(graph, query)
        label = "back-door criterion"
    elif criterion == "adjustment":
        verdict = adjustment_criterion(graph, query, mode=args.mode)
        label = "adjustment criterion"
    else:
        verdict = CriterionVerdict(magnification_check(graph, query))
        label = "magnified-graph criterion"
    doc = verdict_to_json(criterion, verdict)
    if verdict.holds:
        human = f"{label} holds for Z = {_fmt_set(query.covariates)}"
    else:
        human = f"{label} fails: {_describe_failure(verdict)}"
    _emit(args, doc, human)
    return 0 if verdict.holds else 1


def _cmd_find_sets(args) -> int:
    graph = _load_graph(args.graph)
    x, y = _nodes(args.X), _nodes(args.Y)
    candidates = _nodes(args.candidates) if args.candidates is not None else None
    sets = enumerate_adjustment_sets(graph, x, y, candidates, limit=args.limit)
    doc = {"sets": [sorted(s) for s in sets]}
    human = "\n".join(_fmt_set(s) for s in sets) if sets else "no valid adjustment set found"
    _emit(args, doc, human)
    return 0 if sets else 1


def _cmd_canonical_set(args) -> int:
    graph = _load_graph(args.graph)
    canonical = canonical_adjustment_set(graph, _nodes(args.X), _nodes(args.Y))
    _emit(args, {"set": sorted(canonical)}, _fmt_set(canonical))
    return 0


def _cmd_exists_set(args) -> int:
    graph = _load_graph(args.graph)
    exists = exists_adjustment_set(graph, _nodes(args.X), _nodes(args.Y))
    _emit(args, {"exists": exists}, "a valid adjustment set exists" if exists else "no valid adjustment set exists")
    return 0 if exists else 1


def _cmd_twin(args) -> int:
    graph = _load_graph(args.graph)
    twin = twin_network(graph, _nodes(args.X))
    doc = _graph_json(twin.graph)
    doc["counterfactual_of"] = dict(sorted(twin.counterfactual_of.items()))
    _emit(args, doc, twin.graph.to_text().rstrip("\n"))
    return 0


def _cmd_project(args) -> int:
    graph = _load_graph(args.graph)
    projected = latent_project(graph, _nodes(args.M))
    _emit(args, _graph_json(projected), projected.to_text().rstrip("\n"))
    return 0


def _cmd_magnify(args) -> int:
    graph = _load_graph(args.graph)
    magnified = magnify(graph, _edges(args.E))
    _emit(args, _graph_json(magnified), magnified.to_text().rstrip("\n"))
    return 0


def _cmd_paths(args) -> int:
    graph = _load_graph(args.graph)
    given = _nodes(args.Z)
    graph.node_subset(given)
    paths = enumerate_paths(graph, _nodes(args.X), _nodes(args.Y), max_len=args.max_len)
    rows = [(p, path_blocked(graph, p, given)) for p in paths]
    doc = {"paths": [{"path": str(p), "blocked": blocked} for p, blocked in rows]}
    human = "\n".join(f"{p}  [{'blocked' if blocked else 'open'}]" for p, blocked in rows)
    _emit(args, doc, human if rows else "no paths")
    return 0


def _cmd_verify(args) -> int:
    graph = _load_graph(args.graph)
    query = AdjustmentQuery(_nodes(args.X), _nodes(args.Y), _nodes(args.Z))
    report = verify_soundness(graph, query, trials=args.trials, tol=args.tol, seed=args.seed)
    if report.passed:
        human = f"soundness verified: {report.trials} trials, max gap {report.max_gap:.3e} (tolerance {args.tol:g})"
    else:
        worst = report.failures[0]
        human = f"soundness FAILED: seed {worst['seed']}, x={worst['x']}, gap {worst['gap']:.3e}"
    _emit(args, report.to_json(), human)
    return 0 if report.passed else 1


def _cmd_refute(args) -> int:
    graph = _load_graph(args.graph)
    query = AdjustmentQuery(_nodes(args.X), _nodes(args.Y), _nodes(args.Z))
    found = search_counterexample(
        graph, query, trials=args.trials, delta=args.delta, seed=args.seed
    )
    if found is None:
        _emit(
            args,
            {"found": False, "trials": args.trials, "delta": args.delta},
            f"no counterexample found in {args.trials} trials (delta {args.delta:g})",
        )
        return 0
    human = (
        f"counterexample found: trial {found.trial} (seed {found.scm_seed}), "
        f"x={dict(sorted(found.x.items()))}, total-variation gap {found.gap:.4f}"
    )
    _emit(args, found.to_json(), human)
    return 1


def _add_graph_arg(p):
    p.add_argument("--graph", required=True, help="path to a graph text file")
    p.add_argument("--json", action="store_true", help="emit one JSON document")


def _add_query_args(p, z_help="covariates"):
    p.add_argument("-X", required=True, help="treatment nodes, comma-separated")
    p.add_argument("-Y", required=True, help="outcome nodes, comma-separated")
    p.add_argument("-Z", default="", help=f"{z_help}, comma-separated")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adjustkit",
        description="Covariate-adjustment validity checks on mixed causal graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-backdoor", help="test the back-door criterion")
    _add_graph_arg(p)
    _add_query_args(p)
    p.set_defaults(func=_criterion_command, criterion="backdoor")

    p = sub.add_parser("check-adjust", help="test the adjustment criterion")
    _add_graph_arg(p)
    _add_query_args(p)
    p.add_argument("--mode", choices=("fast", "reference"), default="fast")
    p.set_defaults(func=_criterion_command, criterion="adjustment")

    p = sub.add_parser("check-t7", help="test adjustment validity on the magnified graph")
    _add_graph_arg(p)
    _add_query_args(p)
    p.set_defaults(func=_criterion_command, criterion="theorem7")

    p = sub.add_parser("find-sets", help="enumerate valid adjustment sets")
    _add_graph_arg(p)
    p.add_argument("-X", required=True)
    p.add_argument("-Y", required=True)
    p.add_argument("--candidates", default=None, help="candidate covariates, comma-separated")
    p.add_argument("--limit", type=int, default=16)
    p.set_defaults(func=_cmd_find_sets)

    p = sub.add_parser("canonical-set", help="print the canonical adjustment set")
    _add_graph_arg(p)
    p.add_argument("-X", required=True)
    p.add_argument("-Y", required=True)
    p.set_defaults(func=_cmd_canonical_set)

    p = sub.add_parser("exists-set", help="does any valid adjustment set exist?")
    _add_graph_arg(p)
    p.add_argument("-X", required=True)
    p.add_argument("-Y", required=True)
    p.set_defaults(func=_cmd_exists_set)

    p = sub.add_parser("twin", help="print the two-world graph for an intervention")
    _add_graph_arg(p)
    p.add_argument("-X", required=True)
    p.set_defaults(func=_cmd_twin)

    p = sub.add_parser("project", help="marginalize nodes out of the graph")
    _add_graph_arg(p)
    p.add_argument("-M", required=True, help="nodes to marginalize, comma-separated")
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("magnify", help="splice in sources for bidirected edges and mediators for chosen edges")
    _add_graph_arg(p)
    p.add_argument("-E", default="", help="edges to mediate, e.g. 'A->B,C->D'")
    p.set_defaults(func=_cmd_magnify)

    p = sub.add_parser("paths", help="list paths between two node sets")
    _add_graph_arg(p)
    _add_query_args(p, z_help="conditioning set for open/blocked annotation")
    p.add_argument("--max-len", type=int, default=None, dest="max_len")
    p.set_defaults(func=_cmd_paths)

    p = sub.add_parser("verify", help="numerically verify a holding criterion")
    _add_graph_arg(p)
    _add_query_args(p)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("refute", help="search for a numeric counterexample to a failing criterion")
    _add_graph_arg(p)
    _add_query_args(p)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_refute)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (GraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
