"""The three workloads, each a closed loop with one caller.

The caller issues the next call only after the previous one returns, times
every call, and checks every answer against ``keys`` before moving on.
The checking time is not part of any call's latency.
"""

from __future__ import annotations

import contextlib
import gc
import io
import random
import resource
import signal
from array import array
from pathlib import Path
from time import perf_counter

import gen
import keys

VERDICTS = ("adjustment", "backdoor", "ignorability", "magnified")
# Per-call limit on ``scale``.  A call is abandoned, and counts as past the
# limit, once it has made WORK_LIMIT neighbourhood lookups: calls to
# ``incident_marks`` from ``separation``, one per node the path search or
# the reachability sweep expands.  On a 2 vCPU Xeon that is about 0.7 to
# 1.3 s of the seed's path search.  A count is used instead of a clock
# because calls near a clock limit flip between runs: at n = 12 witnesses
# take 0.05 to 1.3 s and set enumerations 0.06 to 160 s, and with a 1 s
# alarm two sets of ten runs of one commit failed 294 and 292 calls.
WORK_LIMIT = 40_000
# A call that runs this long without reaching WORK_LIMIT is abandoned too.
# None does on the seed, where every call longer than about 0.3 s is a
# path search.
WALL_LIMIT_S = 4.0
CLI_EVERY = 100  # every 100th family query also goes through the CLI
CLI_VERBS = (
    "check-adjust", "check-backdoor", "check-t7", "find-sets", "canonical-set",
    "exists-set", "twin", "project", "magnify", "paths",
)
# Family graphs handed to a run, in 300-graph blocks: more than a run gets
# through, so a faster commit does not run out of fresh graphs, and a large
# pool whose mix of sizes varies little from seed to seed.
FAMILY_BLOCKS = {"family": 6, "oracle": 6}
# Splits queried per family graph.  A five-node graph has 570 splits; a
# sample keeps every graph's caches busy while a run covers several hundred
# graphs, so the family's mix of sizes averages out within one run.
SPLITS_PER_GRAPH = 32
# Holding queries verified per oracle graph.  Acceptance criterion 3 takes
# up to 20; five still repeat each graph's model seeds (so the model cache
# is exercised) while letting a run cover four times as many graphs.
HOLDING_PER_GRAPH = 5
# Oracle graphs per counterfactual joint.  The six chain shapes cost 20 to
# 330 ms each; keeping them near 2% of calls keeps the 95th percentile
# inside the verify calls instead of between two chain shapes.  An odd
# period puts them in traced and untraced units alike.
CF_EVERY = 7
SCALE_GRAPHS = 6  # graphs per rung; each query picks one at random
# Period of query classes per scale rung.  A class is the answer keys'
# adjustment and back-door verdicts (see ``query_class``).  The counts are
# the shares of uniform draws, from ``perfbench/shares.py --seeds 1-10``
# (1200 draws per rung), rounded to sixteenths:
#   n=12:   path/path 0.52, hold/hold 0.25, path/descendant 0.14,
#           forbidden/descendant 0.06, hold/descendant 0.03
#   n>=100: hold/hold 0.45, path/path 0.37, path/descendant 0.11,
#           hold/descendant 0.06, forbidden/descendant 0.01 (none in 16)
SMALL_MIX = {"path/path": 8, "hold/hold": 4, "path/descendant": 2, "forbidden/descendant": 1, "hold/descendant": 1}
LARGE_MIX = {"hold/hold": 7, "path/path": 6, "path/descendant": 2, "hold/descendant": 1}
SCALE_MIX = {12: SMALL_MIX, 100: LARGE_MIX, 400: LARGE_MIX, 1000: LARGE_MIX}
MAX_DRAWS = 1000  # draws per slot before the slot takes whatever class comes
SEARCH_EVERY = 4  # set enumeration and inducing path on one sweep in 4
SWEEP_S = 4.0  # the seed commit's time per scale sweep on a 2 vCPU Xeon
CHAINS = [(n, bi) for n in (5, 6) for bi in (1, 2, 3)]


class OverLimit(BaseException):
    """Raised into a call that ran past its limit (``work`` or ``wall``)."""


class WorkLimit:
    """Counts the package's neighbourhood lookups, ``module.incident_marks``,
    and raises ``OverLimit`` into the lookup past ``limit`` of them while
    armed.  The count of a call is the same in every run of the same
    inputs, so whether a call passes the limit is too."""

    def __init__(self, module, limit: int):
        self.module = module
        self.lookup = module.incident_marks
        self.limit = limit
        self.used = 0
        self.allowed = float("inf")
        module.incident_marks = self._counted

    def _counted(self, graph, v):
        self.used += 1
        if self.used > self.allowed:
            raise OverLimit("work")
        return self.lookup(graph, v)

    def arm(self):
        self.used = 0
        self.allowed = self.limit

    def disarm(self):
        self.allowed = float("inf")

    def remove(self):
        self.module.incident_marks = self.lookup


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CallLog:
    """One record per call (kind, status, seconds, traced, tag), kept in flat
    arrays: as tuples the record would add about 100 bytes a call to the
    run's peak memory, and objects for the collector to traverse."""

    STATUSES = ("ok", "wrong", "over", "raised")

    def __init__(self):
        self.kinds: list[str] = []
        self._kind = array("B")
        self._status = array("B")
        self._elapsed = array("d")
        self._traced = array("B")
        self._tag = array("i")

    def append(self, kind, status, elapsed, traced, tag):
        if kind not in self.kinds:
            self.kinds.append(kind)
        self._kind.append(self.kinds.index(kind))
        self._status.append(self.STATUSES.index(status))
        self._elapsed.append(elapsed)
        self._traced.append(traced)
        self._tag.append(-1 if tag is None else tag)

    def __len__(self):
        return len(self._elapsed)

    def __iter__(self):
        for k, s, e, t, g in zip(self._kind, self._status, self._elapsed, self._traced, self._tag):
            yield self.kinds[k], self.STATUSES[s], e, bool(t), None if g < 0 else g


class Runner:
    """Times calls, applies the limit, checks answers and keeps the record."""

    def __init__(self, tracer, limit, work=None):
        self.tracer = tracer
        self.traced = False
        self.limit = limit  # wall-clock seconds per call, or None
        self.work = work  # a WorkLimit, or None
        self.deadline = 0.0  # set when the timed loop starts
        self.calls = CallLog()
        self.errors: list[str] = []
        self.counts = {"trials": 0, "traced_trials": 0, "refutes": 0, "refutes_found": 0, "over_wall": 0}
        self._armed = False
        # Collections run inside calls and between them, wherever the
        # allocation counts happen to cross a threshold.  Those between
        # calls traverse mostly the package's caches (the benchmark's own
        # long-lived objects are frozen before the loop), so their time is
        # kept here and charged to the calls in aggregate.
        self.gc_s = 0.0
        self.gc_between_s = 0.0
        self._in_call = False
        self._gc_start = 0.0
        gc.callbacks.append(self._gc)
        if limit:
            signal.signal(signal.SIGALRM, self._alarm)

    def _alarm(self, signum, frame):
        if not self._armed:
            return
        # An exception raised inside a collector callback is swallowed, and
        # one raised while the span stack changes would corrupt it: retry
        # once out of either.
        if frame.f_code is Runner._gc.__code__ or (self.tracer is not None and self.tracer.critical):
            signal.setitimer(signal.ITIMER_REAL, 0.0005)
            return
        raise OverLimit("wall")

    def _gc(self, phase, _info):
        if phase == "start":
            self._gc_start = perf_counter()
            return
        took = perf_counter() - self._gc_start
        self.gc_s += took
        if not self._in_call:
            self.gc_between_s += took

    def stop(self):
        """End the timed loop: stop tracing and collection accounting."""
        self.set_traced(False)
        gc.callbacks.remove(self._gc)
        if self.work:
            self.work.remove()

    def expired(self) -> bool:
        return perf_counter() >= self.deadline

    def set_traced(self, traced: bool):
        if self.tracer is None or traced == self.traced:
            return
        (self.tracer.install if traced else self.tracer.uninstall)()
        self.traced = traced

    def _timed(self, fn):
        self._in_call = True
        start = perf_counter()
        try:
            try:
                if self.work:
                    self.work.arm()
                if self.limit:
                    self._armed = True
                    signal.setitimer(signal.ITIMER_REAL, self.limit)
                return "ok", fn(), perf_counter() - start
            finally:
                self._armed = False
                self._in_call = False
                if self.limit:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                if self.work:
                    self.work.disarm()
        except OverLimit as over:
            self.counts["over_wall"] += over.args == ("wall",)
            return "over", None, perf_counter() - start
        except Exception as exc:  # a library error is a failed call, not a benchmark crash
            return "raised", exc, perf_counter() - start

    def call(self, kind, fn, check, tag=None):
        """Run one call; returns (status, result) with status ok/wrong/over/raised."""
        tracer = self.tracer if self.traced else None
        if tracer:
            tracer.tag = tag if kind in VERDICTS else None  # scaling fits use verdict calls only
            tracer.begin("op." + kind)
        status, result, elapsed = self._timed(fn)
        if tracer:
            tracer.end()
        if status == "ok":
            error = check(result)
            if error:
                status = "wrong"
                self._note(kind, error)
        elif status == "raised":
            self._note(kind, repr(result))
        self.calls.append(kind, status, elapsed, self.traced, tag)
        return status, result

    def add_trials(self, n: int):
        self.counts["trials"] += n
        if self.traced:
            self.counts["traced_trials"] += n

    def _note(self, kind, message):
        if len(self.errors) < 20:
            self.errors.append(f"{kind}: {message}")


class Context:
    def __init__(self, ak, cli, runner, texts, graphs, seed, tracing, scratch: Path):
        self.ak = ak
        self.cli = cli
        self.run = runner
        self.texts = texts
        self.graphs = graphs
        self.seed = seed
        self.tracing = tracing
        self.scratch = scratch

    def family_order(self):
        """Family graph indices, sizes spread evenly (see ``gen.spread_order``)."""
        return gen.spread_order(
            [(len(g.nodes), len(g.bidirected), len(g.directed)) for g in self.graphs.values()]
        )

    def unit(self, index: int):
        """Alternate units are traced in a traced run; the rest measure the tracer's cost."""
        self.run.set_traced(self.tracing and index % 2 == 0)


def graph_size(graph) -> int:
    return len(graph.nodes) + len(graph.directed) + len(graph.bidirected)


# --- shared call groups --------------------------------------------------


def verdict_calls(ctx, graph, key, x, y, z, exhaustive, tag):
    ak, run = ctx.ak, ctx.run
    query = ak.AdjustmentQuery(x, y, z)

    def adjustment():
        v = ak.adjustment_criterion(graph, query)
        return v.holds, v.failure, v.witness_path

    def backdoor():
        v = ak.backdoor_criterion(graph, query)
        return v.holds, v.failure, v.witness_path

    def check(checker):
        return lambda r: checker(
            key, x, y, z, r[0], keys.failure_of(r[1]), r[2] and keys.path_of(r[2]), exhaustive
        )

    run.call("adjustment", adjustment, check(keys.check_adjustment), tag)
    run.call("backdoor", backdoor, check(keys.check_backdoor), tag)
    run.call(
        "ignorability",
        lambda: ak.graphical_ignorability(graph, query),
        lambda r: keys.check_bool(key, x, y, z, r, "ignorability"),
        tag,
    )
    run.call(
        "magnified",
        lambda: ak.magnification_check(graph, query),
        lambda r: keys.check_bool(key, x, y, z, r, "magnified"),
        tag,
    )


def pair_calls(ctx, graph, key, x, y, tag):
    ak, run = ctx.ak, ctx.run
    run.call(
        "canonical",
        lambda: ak.canonical_adjustment_set(graph, x, y),
        lambda r: None if r == key.canonical(x, y) else f"canonical {sorted(r)}",
        tag,
    )
    run.call(
        "exists",
        lambda: ak.exists_adjustment_set(graph, x, y),
        lambda r: None if r == key.adjustment(x, y, key.canonical(x, y))[0] else f"exists {r}",
        tag,
    )


def search_calls(ctx, graph, key, x, y, exhaustive, tag):
    ak, run = ctx.ak, ctx.run
    run.call(
        "enumerate",
        lambda: ak.enumerate_adjustment_sets(graph, x, y),
        lambda r: keys.check_sets(key, x, y, r, exhaustive),
        tag,
    )
    run.call(
        "inducing",
        lambda: ak.find_inducing_path(graph, x, y),
        lambda r: keys.check_inducing(key, x, y, r and keys.path_of(r), exhaustive),
        tag,
    )


def cli_call(ctx, path, key, x, y, z, verb, tag):
    args = {"X": x, "Y": y, "Z": z}
    argv = [verb, "--graph", str(path), "--json"]
    if verb == "project":
        args["M"] = z
        argv += ["-M", ",".join(sorted(z))]
    elif verb == "magnify":
        args["E"] = sorted(e for e in key.directed if e[0] in y)
        argv += ["-E", ",".join(f"{a}->{b}" for a, b in args["E"])]
    else:
        argv += ["-X", ",".join(sorted(x))]
        if verb != "twin":
            argv += ["-Y", ",".join(sorted(y))]
        if verb in ("check-adjust", "check-backdoor", "check-t7", "paths"):
            argv += ["-Z", ",".join(sorted(z))]

    def run_cli():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = ctx.cli.run(argv)
        return code, out.getvalue()

    ctx.run.call("cli", run_cli, lambda r: keys.check_cli(key, verb, args, r[0], r[1]), tag)


# --- workloads -----------------------------------------------------------


def family(ctx):
    """Sampled splits of each family graph through the four procedures, then
    the set and inducing-path calls on each singleton pair."""
    run = ctx.run
    queries = 0
    for position, index in enumerate(ctx.family_order()):
        if run.expired():
            return
        ctx.unit(position)
        text, graph = ctx.texts[index], ctx.graphs[index]
        key = keys.GraphKey(text)
        path = ctx.scratch / f"family-{index}.g"
        path.write_text(text)
        tag = graph_size(graph)
        for x, y, z in gen.sample_splits(graph.nodes, SPLITS_PER_GRAPH, ctx.seed * 7919 + index):
            verdict_calls(ctx, graph, key, x, y, z, True, tag)
            queries += 1
            if queries % CLI_EVERY == 0:
                verb = CLI_VERBS[queries // CLI_EVERY % len(CLI_VERBS)]
                cli_call(ctx, path, key, x, y, z, verb, tag)
        for x, y in gen.singleton_pairs(graph.nodes):
            pair_calls(ctx, graph, key, x, y, tag)
            search_calls(ctx, graph, key, x, y, True, tag)
        path.unlink()


def query_class(key, query):
    """The answer keys' adjustment and back-door verdicts on ``query``, as
    'adjustment/back-door': each 'hold' or the reason it fails ('forbidden',
    'descendant', or 'path' for an open path, the case that needs a witness)."""
    verdicts = (key.adjustment(*query), key.backdoor(*query))
    return "/".join("hold" if holds else failure[0] for holds, failure in verdicts)


def scale_queries(seed, rung, graphs, keys_by_index):
    """Seeded |X| = |Y| = 1, |Z| ~ n/20 queries at one rung, each on a random graph of it.

    Queries are drawn uniformly, as a user would pose them, but each one
    fills the next slot of the rung's ``SCALE_MIX`` period: a draw whose
    class is not the slot's is passed over.  The period holds the shares
    measured over uniform draws, so a run gets the natural mix of cheap
    holding verdicts and costly failing ones, and every run the same
    number of each: the calls that reach the limit are most of a
    run's time, so a small sample's swing in that number would swing every
    figure.  Yields (graph index, query, class).
    """
    rng = random.Random(seed * 1_000_003 + rung)
    size = max(1, round(rung / 20))
    mix = SCALE_MIX[rung]
    slots = [cls for cls, count in mix.items() for _ in range(count)]
    slots = [slots[i] for i in gen.spread_order(slots)]
    count = 0
    while True:
        wanted = slots[count % len(slots)]
        for _attempt in range(MAX_DRAWS):
            index = rng.randrange(len(graphs))
            x, y = rng.sample(list(graphs[index].nodes), 2)
            rest = [v for v in graphs[index].nodes if v not in (x, y)]
            query = (frozenset({x}), frozenset({y}), frozenset(rng.sample(rest, size)))
            cls = query_class(keys_by_index[index], query)
            if cls == wanted:
                break
        yield index, query, cls
        count += 1


def scale_sweeps(seconds: float) -> int:
    """Sweeps in a ``scale`` run: a whole number of ``SEARCH_EVERY`` blocks,
    fixed by ``seconds`` alone so that every run of a seed makes the same
    calls.  The seed commit takes about ``SWEEP_S`` a sweep, so its runs
    last about ``seconds``; a faster commit finishes sooner."""
    return SEARCH_EVERY * max(1, round(seconds / (SWEEP_S * SEARCH_EVERY)))


def scale(ctx, keys_by_graph, sweeps):
    """``sweeps`` sweeps over the rungs, one query per rung per sweep,
    through the four procedures and the pair calls.  In the first sweep of
    every ``SEARCH_EVERY`` the query's pair also goes through set
    enumeration and the inducing-path search."""
    streams = {
        rung: scale_queries(
            ctx.seed,
            rung,
            [ctx.graphs[(rung, i)] for i in range(SCALE_GRAPHS)],
            [keys_by_graph[(rung, i)] for i in range(SCALE_GRAPHS)],
        )
        for rung in gen.SCALE_RUNGS
    }
    classes = ctx.classes = {rung: {} for rung in gen.SCALE_RUNGS}
    for sweep in range(sweeps):
        ctx.unit(sweep // SEARCH_EVERY)
        for rung in gen.SCALE_RUNGS:
            index, (x, y, z), cls = next(streams[rung])
            graph, key = ctx.graphs[(rung, index)], keys_by_graph[(rung, index)]
            classes[rung][cls] = classes[rung].get(cls, 0) + 1
            exhaustive = rung <= 12
            verdict_calls(ctx, graph, key, x, y, z, exhaustive, rung)
            pair_calls(ctx, graph, key, x, y, rung)
            if sweep % SEARCH_EVERY == 0:
                search_calls(ctx, graph, key, x, y, exhaustive, rung)
            key.forget()


def oracle(ctx, chains):
    """Soundness checks on holding queries and a counterexample search on
    the first failing query of each family graph, with a counterfactual
    joint on a chain after every ``CF_EVERY`` graphs."""
    ak, run = ctx.ak, ctx.run
    for position, index in enumerate(ctx.family_order()):
        if run.expired():
            return
        ctx.unit(position)
        text, graph = ctx.texts[index], ctx.graphs[index]
        key = keys.GraphKey(text)
        tag = graph_size(graph)
        holding, failing = [], None
        for x, y, z in gen.all_splits(graph.nodes):
            if key.adjustment(x, y, z)[0]:
                if len(holding) < HOLDING_PER_GRAPH:
                    holding.append((x, y, z))
            elif failing is None:
                failing = (x, y, z)
            if len(holding) == HOLDING_PER_GRAPH and failing:
                break
        for q in holding:
            status, _ = run.call(
                "verify",
                lambda: ak.verify_soundness(graph, ak.AdjustmentQuery(*q), trials=20, tol=1e-9, seed=0),
                lambda r: keys.check_soundness(r, lambda s: ak.random_scm(graph, s), q, 20),
                tag,
            )
            run.add_trials(20 if status == "ok" else 0)
        if failing:
            status, found = run.call(
                "refute",
                lambda: ak.search_counterexample(
                    graph, ak.AdjustmentQuery(*failing), trials=200, delta=0.01, seed=index
                ),
                lambda r: keys.check_counterexample(r, failing, index, 0.01),
                tag,
            )
            if status == "ok":
                run.counts["refutes"] += 1
                run.counts["refutes_found"] += found is not None
                run.add_trials(found.trial + 1 if found is not None else 200)
        if position % CF_EVERY != CF_EVERY - 1:
            continue
        chain = chains[position // CF_EVERY % len(chains)]
        scm = ak.random_scm(chain, index)
        outcome = chain.nodes[-1]
        run.call(
            "cf_joint",
            lambda: ak.counterfactual_joint(scm, [(outcome, None), (outcome, {"V0": 1})]),
            lambda r: keys.check_cf_joint(r, scm, outcome, "V0"),
            len(chain.nodes) + len(chain.bidirected),
        )
