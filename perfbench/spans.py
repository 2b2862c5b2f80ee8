"""Spans recorded around the package's public functions, from outside it.

``Tracer.install`` replaces every function the package exports (plus the
CLI's ``run``) with a recording wrapper in every module that holds a
reference to it, so names rebound by ``from .x import y`` are caught too.
It also wraps ``SepVerdict.witness``, the ``Dist`` methods and
``DiscreteScm.validate``.  ``uninstall`` puts the originals back, which is
how a traced run keeps some units untraced to measure the tracer's cost.

A span is (name, start, end, parent).  Spans are kept in memory, capped at
``SPAN_CAP``, and written out when the run ends.  Self times, call counts
and work counters are aggregated as spans close, so they cover every span
even past the cap.
"""

from __future__ import annotations

import functools
import inspect
import math
from array import array
from collections import defaultdict
from time import perf_counter

SPAN_CAP = 200_000

# Bucket of each wrapped function; a bucket is the layer its self time is charged to.
BUCKETS = {
    "graph.parse_graph": "graph.parse",
    "graph.ancestors": "graph.closure",
    "graph.descendants": "graph.closure",
    "graph.cut_incoming": "graph.transform",
    "graph.cut_outgoing": "graph.transform",
    "graph.remove_nodes": "graph.transform",
    "graph.proper_causal_nodes": "graph.transform",
    "graph.expand_bidirected": "graph.transform",
    "graph.topological_order": "graph.transform",
    "graph.latent_project": "graph.project",
    "separation.d_separated": "separation.decide",
    "separation.d_connected_nodes": "separation.decide",
    "separation.SepVerdict.witness": "separation.witness",
    "separation.find_inducing_path": "separation.inducing",
    "criteria.adjustment_criterion": "criteria.adjustment",
    "criteria.proper_backdoor_graph": "criteria.adjustment",
    "criteria.backdoor_criterion": "criteria.backdoor",
    "criteria.magnification_check": "criteria.magnified",
    "criteria.magnify": "criteria.magnified",
    "criteria.helper_conditioning_set": "criteria.magnified",
    "criteria.canonical_adjustment_set": "criteria.sets",
    "criteria.exists_adjustment_set": "criteria.sets",
    "criteria.enumerate_adjustment_sets": "criteria.sets",
    "twin.twin_network": "twin.build",
    "twin.noise_linked": "twin.build",
    "twin.graphical_ignorability": "twin.ignorability",
    "scm.random_scm": "scm.draw",
    "scm.DiscreteScm.validate": "scm.draw",
    "scm.joint_observed": "scm.joint",
    "scm.interventional": "scm.truth",
    "scm.adjustment_estimand": "scm.estimand",
    "scm.counterfactual_joint": "scm.cf_joint",
    "scm.verify_soundness": "scm.sweep",
    "scm.search_counterexample": "scm.sweep",
    "cli.run": "cli.run_self",
    "cli.main": "cli.run_self",
}
# Path machinery serves whichever procedure called it (witness, inducing
# path, reference mode), so its self time goes to the caller's bucket.
INHERITING = {
    "separation.enumerate_paths",
    "separation.path_blocked",
    "separation.route_blocked",
    "separation.direct_route",
    "separation.path_from_string",
}
BUCKETS.update({name: "separation.paths" for name in INHERITING})
DIST_METHODS = ("__post_init__", "marginal", "slice_at", "cell", "max_abs_diff", "total_variation")
# Inclusive durations of these are kept per size tag for the scaling fits.
SAMPLED = (
    "criteria.adjustment_criterion",
    "twin.graphical_ignorability",
    "criteria.magnification_check",
    "separation.d_separated",
)
LIBRARY_ROOTS = ("cli.run_self", "op", "setup")


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self, modules):
        """``modules``: the package module followed by each of its submodules."""
        self.on = False
        self.tag = None
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.total_spans = 0
        self._stack: list[list] = []  # [span index, start, child time, bucket, name]
        self.critical = False  # set while the span stack is being changed
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[tuple[str, object], list[float]] = defaultdict(list)
        self._patches: list[tuple[object, str, object, object]] = []
        self._build_patches(modules)

    # --- spans ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str, bucket: str):
        self.critical = True
        stack = self._stack
        parent = stack[-1] if stack else None
        if name in INHERITING and parent is not None and parent[3] not in LIBRARY_ROOTS:
            bucket = parent[3]
        index = self.total_spans
        self.total_spans += 1
        if index < SPAN_CAP:
            self.span_name.append(self._name_id(name))
            self.span_parent.append(parent[0] if parent is not None else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        stack.append([index, perf_counter(), 0.0, bucket, name])
        self.critical = False

    def close(self) -> float:
        end = perf_counter()
        self.critical = True
        index, start, child, bucket, _name = self._stack.pop()
        duration = end - start
        if index < SPAN_CAP:
            self.span_start[index] = start
            self.span_end[index] = end
        self.self_time[bucket] += duration - child
        self.calls[bucket] += 1
        if self._stack:
            self._stack[-1][2] += duration
        self.critical = False
        return duration

    def unwind(self, depth: int):
        """Close spans left open above ``depth`` by an interrupted call."""
        while len(self._stack) > depth:
            self.close()

    def begin(self, name: str):
        """Open a root span for one timed unit of benchmark work."""
        self.on = True
        self.open(name, "op" if name.startswith("op.") else "setup")

    def end(self):
        self.unwind(1)
        self.close()
        self.on = False

    # --- wrappers -------------------------------------------------------

    def _wrap(self, fn, name: str, bucket: str):
        tracer = self
        before, after = self._hooks(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            pre = before(args) if before else None
            depth = len(tracer._stack)
            try:
                tracer.open(name, bucket)
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.unwind(depth)
                raise
            duration = tracer.close()
            if name in SAMPLED:
                tracer.samples[(name, tracer.tag)].append(duration)
            if after:
                after(args, kwargs, result, pre)
            return result

        return wrapper

    def _hooks(self, name: str):
        counts = self.counts
        if name == "separation.enumerate_paths":
            def after(args, kwargs, result, pre):
                if self._stack and self._stack[-1][3] == "separation.witness":
                    counts["paths_enumerated"] += len(result)
            return None, after
        if name == "separation.SepVerdict.witness":
            def after(args, kwargs, result, pre):
                counts["witnesses"] += result is not None
            return None, after
        if name == "criteria.enumerate_adjustment_sets":
            def after(args, kwargs, result, pre):
                counts["sets_returned"] += len(result)
            return None, after
        if name == "criteria.adjustment_criterion":
            def before(args):
                if any(entry[4] == "criteria.enumerate_adjustment_sets" for entry in self._stack):
                    counts["set_tests"] += 1
            return before, None
        if name == "scm.random_scm":
            def after(args, kwargs, result, pre):
                counts["models_drawn"] += 1
            return None, after
        if name in ("scm.joint_observed", "scm.interventional"):
            # The model memoizes each joint it enumerates; a new entry means
            # every cell of the model's state space was visited.
            def before(args):
                return len(getattr(args[0], "_cache", ()))

            def after(args, kwargs, result, pre):
                scm = args[0]
                if len(getattr(scm, "_cache", ())) > pre:
                    counts["cells"] += math.prod(scm.domains.values())
            return before, after
        if name == "scm.counterfactual_joint":
            def after(args, kwargs, result, pre):
                scm, terms = args[0], args[1]
                worlds = {tuple(sorted((i or {}).items())) for _n, i in terms}
                free = [v for w in worlds for v in scm.observed if v not in dict(w)]
                counts["cf_cells"] += math.prod(
                    [scm.domains[u] for u in scm.latents] + [scm.domains[v] for v in free]
                )
            return None, after
        return None, None

    def _build_patches(self, modules):
        package, submodules = modules[0], modules[1:]
        by_name = {_short(m.__name__): m for m in submodules}
        exported = [getattr(package, n) for n in package.__all__]
        exported += [getattr(by_name["cli"], n) for n in by_name["cli"].__all__]
        wrappers = {}
        for fn in exported:
            if inspect.isfunction(fn) and fn not in wrappers:
                name = f"{_short(fn.__module__)}.{fn.__name__}"
                bucket = BUCKETS.get(name, name.split(".")[0] + ".other")
                wrappers[fn] = self._wrap(fn, name, bucket)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((module, attr, value, wrappers[value]))
        sep, scm = by_name["separation"], by_name["scm"]
        witness = sep.SepVerdict.__dict__["witness"]
        wrapped = property(self._wrap(witness.fget, "separation.SepVerdict.witness", "separation.witness"))
        self._patches.append((sep.SepVerdict, "witness", witness, wrapped))
        for method in DIST_METHODS:
            fn = scm.Dist.__dict__[method]
            self._patches.append((scm.Dist, method, fn, self._wrap(fn, f"scm.Dist.{method}", "scm.dist")))
        fn = scm.DiscreteScm.__dict__["validate"]
        self._patches.append((scm.DiscreteScm, "validate", fn, self._wrap(fn, "scm.DiscreteScm.validate", "scm.draw")))

    def install(self):
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)

    # --- output ---------------------------------------------------------

    def write(self, path):
        """Spans as tab-separated rows: name, parent row (-1 for roots), start, end."""
        with open(path, "w") as out:
            out.write(f"# {self.total_spans} spans, first {min(self.total_spans, SPAN_CAP)} kept\n")
            for i in range(len(self.span_name)):
                out.write(
                    f"{self.names[self.span_name[i]]}\t{self.span_parent[i]}\t"
                    f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )
