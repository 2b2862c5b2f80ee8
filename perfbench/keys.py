"""Answer keys computed without the package's own graph or oracle code.

Graph keys rebuild each graph from its text, expand every bidirected edge
into its own latent parent, and decide separation with networkx.  The
adjustment criterion is the forbidden-set test followed by separation in
the proper back-door graph.  Witness paths are checked for being a path of
the graph, non-causal and open; on small graphs they must also be the
minimum-key open path from networkx simple-path enumeration.  Numeric keys
recompute joints, estimands and truths from a model's own tables with
``numpy.einsum``.

Every ``check_*`` function returns ``None`` when the answer is right and a
short description of the mismatch otherwise.
"""

from __future__ import annotations

import json
from itertools import combinations

import networkx as nx
import numpy as np

HEAD, TAIL = "head", "tail"
ARROWS = {(TAIL, HEAD): "->", (HEAD, TAIL): "<-", (HEAD, HEAD): "<->"}
MARKS = {arrow: marks for marks, arrow in ARROWS.items()}
GAP_TOL = 1e-9


def read_text(text: str):
    """Nodes, directed and bidirected edges of a graph in the text format."""
    nodes, directed, bidirected = [], set(), set()
    for line in text.splitlines():
        toks = line.split("#", 1)[0].split()
        if not toks:
            continue
        if toks[0] == "node":
            nodes += [t for t in toks[1:] if t not in nodes]
            continue
        a, arrow, b = toks
        nodes += [t for t in (a, b) if t not in nodes]
        if arrow == "->":
            directed.add((a, b))
        else:
            bidirected.add(tuple(sorted((a, b))))
    return nodes, frozenset(directed), frozenset(bidirected)


def path_from_text(text: str):
    """'X <- A <-> Y' as (nodes, marks) with one (source, target) mark pair per step."""
    toks = text.split()
    return tuple(toks[0::2]), tuple(MARKS[a] for a in toks[1::2])


def path_of(witness):
    """A package ``Path`` as (nodes, marks)."""
    return tuple(witness.nodes), tuple((s.source_mark, s.target_mark) for s in witness.steps)


def path_text(path) -> str:
    nodes, marks = path
    out = [nodes[0]]
    for m, v in zip(marks, nodes[1:]):
        out += [ARROWS[m], v]
    return " ".join(out)


def path_key(path):
    nodes, marks = path
    return (len(marks), nodes, tuple(ARROWS[m] for m in marks))


def is_causal(path) -> bool:
    return all(m == (TAIL, HEAD) for m in path[1])


class GraphKey:
    """Independent reference answers for one graph."""

    def __init__(self, text: str):
        self.nodes, self.directed, self.bidirected = read_text(text)
        self.dag = nx.DiGraph()
        self.dag.add_nodes_from(self.nodes)
        self.dag.add_edges_from(self.directed)
        self.latent = self._latent_dag(self.directed)
        self._memo: dict = {}

    def _latent_dag(self, directed):
        g = nx.DiGraph()
        g.add_nodes_from(self.nodes)
        g.add_edges_from(directed)
        for a, b in self.bidirected:
            g.add_edges_from(((("U", a, b), a), (("U", a, b), b)))
        return g

    def forget(self):
        """Drop memoized answers; on large graphs they cost more memory than they save."""
        self._memo.clear()

    def _memoized(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    # --- closures -------------------------------------------------------

    def desc(self, nodes, without_into=frozenset()):
        """Reflexive descendants, optionally with edges into ``without_into`` cut."""
        g = self.dag
        if without_into:
            g = nx.subgraph_view(g, filter_edge=lambda a, b: b not in without_into)
        return frozenset(nodes).union(*(nx.descendants(g, v) for v in nodes))

    def anc(self, nodes, without_into=frozenset()):
        g = self.dag
        if without_into:
            g = nx.subgraph_view(g, filter_edge=lambda a, b: b not in without_into)
        return frozenset(nodes).union(*(nx.ancestors(g, v) for v in nodes))

    def proper_causal(self, x, y):
        return self._memoized(("pcn", x, y), lambda: self.desc(x, x) & self.anc(y, x))

    def forbidden(self, x, y):
        amenable = self.proper_causal(x, y) - x
        return self._memoized(("forb", x, y), lambda: self.desc(amenable, x) if amenable else frozenset())

    # --- verdicts -------------------------------------------------------

    def adjustment(self, x, y, z):
        """(holds, failure) with failure ('forbidden', offender, causal node) or ('path',)."""
        bad = z & self.forbidden(x, y)
        if bad:
            offender = min(bad)
            amenable = self.proper_causal(x, y) - x
            causal = min(w for w in amenable if offender in self.desc({w}, x))
            return False, ("forbidden", offender, causal)

        def pbd():
            amenable = self.proper_causal(x, y) - x
            return self._latent_dag(
                {(a, b) for a, b in self.directed if not (a in x and b in amenable)}
            )

        dag = self._memoized(("pbd", x, y), pbd)
        if nx.is_d_separator(dag, set(x), set(y), set(z)):
            return True, None
        return False, ("path",)

    def backdoor(self, x, y, z):
        """(holds, failure) with failure ('descendant', offender) or ('path',)."""
        bad = z & self.desc(x)
        if bad:
            return False, ("descendant", min(bad))
        dag = self._memoized(
            ("cutout", x), lambda: self._latent_dag({e for e in self.directed if e[0] not in x})
        )
        if nx.is_d_separator(dag, set(x), set(y), set(z)):
            return True, None
        return False, ("path",)

    def canonical(self, x, y):
        return self.anc(x | y) - x - y - self.proper_causal(x, y)

    def inducing_exists(self, x, y):
        """No set separates x from y exactly when their shared ancestors fail to."""
        return not nx.is_d_separator(self.latent, set(x), set(y), set(self.anc(x | y) - x - y))

    # --- paths ----------------------------------------------------------

    def step_exists(self, a, b, marks) -> bool:
        if marks == (TAIL, HEAD):
            return (a, b) in self.directed
        if marks == (HEAD, TAIL):
            return (b, a) in self.directed
        return marks == (HEAD, HEAD) and tuple(sorted((a, b))) in self.bidirected

    def is_path(self, path) -> bool:
        nodes, marks = path
        return (
            len(nodes) == len(marks) + 1
            and len(set(nodes)) == len(nodes)
            and all(self.step_exists(a, b, m) for a, b, m in zip(nodes, nodes[1:], marks))
        )

    def is_open(self, path, z) -> bool:
        nodes, marks = path
        for i in range(1, len(nodes) - 1):
            if marks[i - 1][1] == HEAD and marks[i][0] == HEAD:
                if not self._memoized(("desc", nodes[i]), lambda: self.desc({nodes[i]})) & z:
                    return False
            elif nodes[i] in z:
                return False
        return True

    def paths(self, x, y, within=None):
        """Every path from x to y meeting x only at its start and y only at its end."""
        key = ("paths", x, y, within)
        if key not in self._memo:
            skeleton = nx.MultiGraph()
            keep = set(self.nodes) if within is None else set(within) | x | y
            skeleton.add_nodes_from(keep)
            for a, b in self.directed:
                if a in keep and b in keep:
                    skeleton.add_edge(a, b, key=("d", a, b))
            for a, b in self.bidirected:
                if a in keep and b in keep:
                    skeleton.add_edge(a, b, key=("b", a, b))
            found = []
            for s in sorted(x):
                for t in sorted(y):
                    for edges in nx.all_simple_edge_paths(skeleton, s, t):
                        nodes = (s,) + tuple(e[1] for e in edges)
                        if (x | y) & set(nodes[1:-1]):
                            continue
                        marks = tuple(
                            (HEAD, HEAD) if k[0] == "b" else (TAIL, HEAD) if u == k[1] else (HEAD, TAIL)
                            for u, _v, k in edges
                        )
                        found.append((nodes, marks))
            self._memo[key] = sorted(found, key=path_key)
        return self._memo[key]

    def first_open(self, x, y, z, accept=lambda p: True):
        for p in self.paths(x, y):
            if accept(p) and self.is_open(p, z):
                return p
        return None

    def first_inducing(self, x, y):
        ancestral = self.anc(x | y)
        for p in self.paths(x, y):
            if set(p[0]) <= ancestral and all(
                p[1][i - 1][1] == HEAD and p[1][i][0] == HEAD for i in range(1, len(p[0]) - 1)
            ):
                return p
        return None

    def valid_sets(self, x, y, limit=16):
        pool = sorted(set(self.nodes) - x - y)
        out = []
        for size in range(len(pool) + 1):
            for combo in combinations(pool, size):
                if self.adjustment(x, y, frozenset(combo))[0]:
                    out.append(frozenset(combo))
                    if len(out) >= limit:
                        return out
        return out

    def project(self, hidden):
        keep = [v for v in self.nodes if v not in hidden]
        directed, bidirected = set(), set()
        for a in keep:
            for b in keep:
                if a == b:
                    continue
                for nodes, marks in self.paths(frozenset({a}), frozenset({b}), within=frozenset(hidden)):
                    if not set(nodes[1:-1]) <= hidden:
                        continue
                    if any(marks[i - 1][1] == HEAD and marks[i][0] == HEAD for i in range(1, len(nodes) - 1)):
                        continue
                    ends = (marks[0][0], marks[-1][1])
                    if ends == (TAIL, HEAD):
                        directed.add((a, b))
                    if ends == (HEAD, HEAD) and a < b:
                        bidirected.add((a, b))
        return keep, directed, bidirected

    def twin(self, x):
        affected = self.desc(x)
        copy = {v: v + "@do" if v in affected else v for v in self.nodes}
        taken = set(self.nodes) | set(copy.values())
        directed = set(self.directed)
        directed |= {(copy[a], copy[b]) for a, b in self.directed if b in affected and b not in x}
        latents = []
        for a, b in sorted(self.bidirected):
            u = f"__U_{a}_{b}"
            while u in taken:
                u += "_"
            taken.add(u)
            latents.append(u)
            for end in (a, b):
                directed.add((u, end))
                if end in affected and end not in x:
                    directed.add((u, copy[end]))
        nodes = list(self.nodes) + [copy[v] for v in self.nodes if v in affected] + latents
        return nodes, directed, copy

    def magnify(self, mediated):
        taken = set(self.nodes)
        extra, directed = [], set(self.directed) - set(mediated)

        def fresh(name):
            while name in taken:
                name += "_"
            taken.add(name)
            extra.append(name)
            return name

        for a, b in sorted(self.bidirected):
            w = fresh(f"__W_{a}_{b}")
            directed |= {(w, a), (w, b)}
        for a, b in sorted(mediated):
            lo, hi = sorted((a, b))
            c = fresh(f"__C_{lo}_{hi}")
            directed |= {(a, c), (c, b)}
        return list(self.nodes) + extra, directed


# --- graphical checks ----------------------------------------------------


def _check_failing_path(key, witness, x, y, z, accept, exhaustive):
    if witness is None:
        return "failing verdict without a witness path"
    if not key.is_path(witness):
        return f"witness {path_text(witness)} is not a path of the graph"
    if witness[0][0] not in x or witness[0][-1] not in y:
        return f"witness {path_text(witness)} does not join treatments to outcomes"
    if not accept(witness):
        return f"witness {path_text(witness)} has the wrong shape"
    if not key.is_open(witness, z):
        return f"witness {path_text(witness)} is blocked"
    if exhaustive:
        best = key.first_open(x, y, z, accept)
        if best != witness:
            return f"witness {path_text(witness)} is not the minimum open path {best and path_text(best)}"
    return None


def check_adjustment(key, x, y, z, holds, failure, witness, exhaustive):
    """``failure`` is (kind, offender, causal node) as the package reports it."""
    want, why = key.adjustment(x, y, z)
    if holds != want:
        return f"adjustment verdict {holds}, key says {want}"
    if holds:
        return None if failure is None else "holding verdict carries a failure"
    if failure is None or failure[0] != why[0]:
        return f"failure {failure}, key says {why}"
    if why[0] == "forbidden":
        got = tuple(failure[:3])
        return None if got == why else f"forbidden-descendant failure {got}, key says {why}"
    return _check_failing_path(key, witness, x, y, z, lambda p: not is_causal(p), exhaustive)


def check_backdoor(key, x, y, z, holds, failure, witness, exhaustive):
    want, why = key.backdoor(x, y, z)
    if holds != want:
        return f"back-door verdict {holds}, key says {want}"
    if holds:
        return None if failure is None else "holding verdict carries a failure"
    if failure is None or failure[0] != why[0]:
        return f"failure {failure}, key says {why}"
    if why[0] == "descendant":
        got = tuple(failure[:2])
        return None if got == why else f"treatment-descendant failure {got}, key says {why}"
    return _check_failing_path(key, witness, x, y, z, lambda p: p[1][0][0] == HEAD, exhaustive)


def check_bool(key, x, y, z, holds, name):
    want = key.adjustment(x, y, z)[0]
    return None if holds == want else f"{name} verdict {holds}, key says {want}"


def check_sets(key, x, y, sets, exhaustive, limit=16):
    if exhaustive:
        want = key.valid_sets(x, y, limit)
        return None if list(sets) == want else f"sets {sets}, key says {want}"
    if len(sets) > limit:
        return f"{len(sets)} sets returned, limit {limit}"
    order = [(len(s), sorted(s)) for s in sets]
    if order != sorted(order):
        return "sets are not smallest-first in lexicographic order"
    for s in sets:
        if not key.adjustment(x, y, frozenset(s))[0]:
            return f"set {sorted(s)} is not a valid adjustment set"
    return None


def check_inducing(key, x, y, found, exhaustive):
    want = key.inducing_exists(x, y)
    if (found is not None) != want:
        return f"inducing path {found and path_text(found)}, key says exists={want}"
    if found is None:
        return None
    nodes, marks = found
    if not key.is_path(found) or nodes[0] not in x or nodes[-1] not in y:
        return f"inducing path {path_text(found)} is not a path between the sets"
    if not set(nodes) <= key.anc(x | y):
        return f"inducing path {path_text(found)} leaves the ancestors of the sets"
    if any(not (marks[i - 1][1] == HEAD and marks[i][0] == HEAD) for i in range(1, len(nodes) - 1)):
        return f"inducing path {path_text(found)} has a non-collider inside"
    if exhaustive and key.first_inducing(x, y) != found:
        return f"inducing path {path_text(found)} is not the minimum one"
    return None


def failure_of(failure):
    """A package failure object as the tuple the checks compare."""
    if failure is None:
        return None
    kind = type(failure).__name__
    if kind == "ForbiddenDescendant":
        return ("forbidden", failure.offender, failure.causal_node)
    if kind == "TreatmentDescendant":
        return ("descendant", failure.offender, None)
    return ("path", None, None)


def _graph_doc_matches(doc, nodes, directed, bidirected=()):
    return (
        doc["nodes"] == list(nodes)
        and {tuple(e) for e in doc["directed"]} == set(directed)
        and {tuple(e) for e in doc["bidirected"]} == set(bidirected)
    )


def check_cli(key, verb, args, code, out):
    """Check one ``--json`` CLI answer; ``args`` holds the X, Y, Z, M and E used."""
    try:
        doc = json.loads(out)
    except ValueError:
        return f"{verb}: output is not one JSON document"
    x, y, z = args.get("X"), args.get("Y"), args.get("Z", frozenset())
    if verb in ("check-adjust", "check-backdoor", "check-t7"):
        raw = doc.get("failure")
        failure = None
        if raw is not None:
            kind = {"forbidden_descendant": "forbidden", "treatment_descendant": "descendant"}.get(raw["kind"], "path")
            failure = (kind, raw.get("offender"), raw.get("causal_node"))
        witness = path_from_text(doc["witness_path"]) if doc.get("witness_path") else None
        if verb == "check-adjust":
            err = check_adjustment(key, x, y, z, doc["holds"], failure, witness, True)
        elif verb == "check-backdoor":
            err = check_backdoor(key, x, y, z, doc["holds"], failure, witness, True)
        else:
            err = check_bool(key, x, y, z, doc["holds"], "magnified")
        expected_code = 0 if doc["holds"] else 1
    elif verb == "find-sets":
        err = check_sets(key, x, y, [frozenset(s) for s in doc["sets"]], True)
        expected_code = 0 if doc["sets"] else 1
    elif verb == "canonical-set":
        want = sorted(key.canonical(x, y))
        err = None if doc["set"] == want else f"canonical set {doc['set']}, key says {want}"
        expected_code = 0
    elif verb == "exists-set":
        want = key.adjustment(x, y, key.canonical(x, y))[0]
        err = None if doc["exists"] == want else f"exists {doc['exists']}, key says {want}"
        expected_code = 0 if want else 1
    elif verb == "twin":
        nodes, directed, copy = key.twin(x)
        ok = _graph_doc_matches(doc, nodes, directed) and doc["counterfactual_of"] == copy
        err = None if ok else "twin graph differs from the key"
        expected_code = 0
    elif verb == "project":
        ok = _graph_doc_matches(doc, *key.project(args["M"]))
        err = None if ok else "projected graph differs from the key"
        expected_code = 0
    elif verb == "magnify":
        nodes, directed = key.magnify(args["E"])
        err = None if _graph_doc_matches(doc, nodes, directed) else "magnified graph differs from the key"
        expected_code = 0
    elif verb == "paths":
        want = sorted((path_text(p), not key.is_open(p, z)) for p in key.paths(x, y))
        got = sorted((row["path"], row["blocked"]) for row in doc["paths"])
        err = None if got == want else "path listing differs from the key"
        expected_code = 0
    else:
        raise ValueError(f"no key for CLI verb {verb}")
    if err is None and code != expected_code:
        err = f"{verb}: exit status {code}, expected {expected_code}"
    return err


# --- numeric keys --------------------------------------------------------


def _parents(scm):
    dag = scm.expanded_dag
    return {v: sorted(a for a, b in dag.directed if b == v) for v in dag.nodes}


def post_joint(scm, x):
    """P(observed non-intervened nodes | do(x)) over name-sorted axes."""
    nodes = list(scm.expanded_dag.nodes)
    label = {v: i for i, v in enumerate(nodes)}
    parents = _parents(scm)
    operands = []
    for v in nodes:
        if v in x:
            continue
        axes = parents[v] + [v]
        table = scm.cpts[v][tuple(x[a] if a in x else slice(None) for a in axes)]
        operands += [table, [label[a] for a in axes if a not in x]]
    names = sorted(v for v in nodes if v not in scm.latents and v not in x)
    return names, np.einsum(*operands, [label[v] for v in names])


def marginal(names, probs, keep):
    keep = sorted(keep)
    summed = probs.sum(axis=tuple(i for i, n in enumerate(names) if n not in keep))
    return keep, summed


def estimand(names, probs, x, outcomes, covariates):
    """sum_z P(y | x, z) P(z) over name-sorted outcome axes."""
    xs, ys, zs = sorted(x), sorted(outcomes), sorted(covariates)
    sub, arr = marginal(names, probs, set(xs) | set(ys) | set(zs))
    arr = np.transpose(arr, [sub.index(v) for v in xs + ys + zs])
    pz = arr.sum(axis=tuple(range(len(xs) + len(ys))))
    pxyz = arr[tuple(x[v] for v in xs)]
    pxz = pxyz.sum(axis=tuple(range(len(ys))))
    out = (pxyz * (pz / pxz)).sum(axis=tuple(range(len(ys), len(ys) + len(zs))))
    return out


def truth(scm, x, outcomes):
    names, probs = post_joint(scm, x)
    return marginal(names, probs, outcomes)[1]


def gaps(scm, x, outcomes, covariates):
    """(max cell difference, total variation) between the estimand and the truth."""
    names, probs = post_joint(scm, {})
    diff = estimand(names, probs, x, outcomes, covariates) - truth(scm, x, outcomes)
    return float(np.abs(diff).max()), 0.5 * float(np.abs(diff).sum())


def check_soundness(report, scm_at, query, trials):
    """A verify report must pass, and its worst trial must be exact when recomputed."""
    if not report.passed or report.trials != trials or report.max_gap > GAP_TOL:
        return f"soundness report passed={report.passed} max_gap={report.max_gap}"
    if report.worst_seed is not None:
        cell, _tv = gaps(scm_at(report.worst_seed), report.worst_x, query[1], query[2])
        if cell > GAP_TOL:
            return f"recomputed gap {cell} at seed {report.worst_seed} exceeds {GAP_TOL}"
    return None


def check_counterexample(found, query, seed, delta):
    if found is None:
        return None
    if found.scm_seed != seed + found.trial:
        return f"counterexample seed {found.scm_seed} is not {seed} + trial {found.trial}"
    _cell, tv = gaps(found.scm, found.x, query[1], query[2])
    if abs(tv - found.gap) > GAP_TOL or tv <= delta:
        return f"counterexample gap {found.gap}, recomputed {tv}"
    return None


def check_cf_joint(dist, scm, y, x_node):
    """Each single-world marginal of P(Y, Y@do(X=1)) must match its intervention."""
    do_label = f"{y}@do({x_node}=1)"
    if list(dist.names) != sorted([y, do_label]) or abs(float(dist.probs.sum()) - 1.0) > GAP_TOL:
        return f"counterfactual joint over {dist.names}"
    for label, x in ((y, {}), (do_label, {x_node: 1})):
        axis = list(dist.names).index(label)
        got = dist.probs.sum(axis=1 - axis)
        if float(np.abs(got - truth(scm, x, {y})).max()) > GAP_TOL:
            return f"counterfactual marginal {label} differs from P({y} | do({x}))"
    return None
