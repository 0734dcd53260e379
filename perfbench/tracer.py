"""Outside-in per-layer tracing for the traced benchmark run.

Nothing here changes the checked program: `Tracer.install` replaces the
functions at each layer boundary with timing wrappers, from the outside,
and `Tracer.uninstall` puts the originals back.  Spans are aggregated in
memory per layer (inclusive time, self time, calls) with a stack, so a
layer's self time is its span time minus the time of its child spans.
Spans of the coarse layers (one check call, the engine pool, planning,
decoding, merging, durable writes) are also kept as individual records
and written out with the result.

A hook whose target no longer exists is skipped and counted in
``trace.hooks_missing``, so that the traced run keeps working across
refactors of the program; its time then falls to the enclosing layer.
"""

from __future__ import annotations

import dataclasses
import importlib
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_pc = time.perf_counter

#: Layers whose individual spans are kept (the rest are aggregated only).
RECORDED = frozenset({"check", "pool", "shard.plan", "merge.decode",
                      "merge.fold", "durable"})

#: The self-time metrics: with ``trace.unattributed_s`` they sum to
#: ``trace.wall_s``.  (``spec.check_s`` is the sum of the per-style times.)
SELF_TIME_METRICS = ("check.self_s", "explore.self_s", "machine.self_s",
                     "dpor.footprint_s", "dpor.decide_s", "graph.extract_s",
                     "spec.check_s", "shard.plan_s", "pool.self_s",
                     "merge.decode_s", "merge.fold_s", "durable.s")

#: Spec style value -> per-style metric name.
STYLE_METRICS = {"LAT_so^abs": "spec.lat_so_abs_s",
                 "LAT_hb^abs": "spec.lat_hb_abs_s",
                 "LAT_hb": "spec.lat_hb_s",
                 "LAT_hb^hist": "spec.lat_hb_hist_s"}


def _common_prefix(a: List, b: List) -> int:
    """Length of the longest common prefix (binary search over C-speed
    slice comparisons: this runs once per replay, inside the trace)."""
    lo, hi = 0, min(len(a), len(b))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[:mid] == b[:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


class Tracer:
    """Per-layer span aggregation plus the counters measured at the same
    boundaries."""

    def __init__(self) -> None:
        self._patches: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.count: Counter = Counter()
        self.outcomes: set = set()
        self.records: List[Tuple[int, int, str, float, float]] = []
        # Frame = [child time, span id]; the root frame collects the time
        # of top-level spans.
        self._stack: List[list] = [[0.0, 0]]
        self._next_id = 1
        self._prev_trace: List = []

    def reset(self) -> None:
        """Forget all spans and counts.  Containers are cleared in place:
        the installed wrappers hold references to them."""
        for box in (self.total, self.self_time, self.calls, self.count,
                    self.outcomes, self.records):
            box.clear()
        self._stack[:] = [[0.0, 0]]
        self._next_id = 1
        self._prev_trace = []

    # -- spans ---------------------------------------------------------

    def _close(self, layer: str, frame: list, t0: float) -> None:
        end = _pc()
        d = end - t0
        self._stack.pop()
        parent = self._stack[-1]
        parent[0] += d
        self.total[layer] += d
        self.self_time[layer] += d - frame[0]
        self.calls[layer] += 1
        if layer in RECORDED:
            self.records.append((frame[1], parent[1], layer, t0, end))

    def _open(self) -> list:
        frame = [0.0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def wrap(self, layer: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` timed as a span of ``layer``; ``after(result, args,
        kwargs)`` runs outside the span."""
        def traced(*args, **kwargs):
            frame = self._open()
            t0 = _pc()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(layer, frame, t0)
            if after is not None:
                after(result, args, kwargs)
            return result
        return traced

    def wrap_leaf(self, layer: str, fn: Callable) -> Callable:
        """A cheaper span for hot functions that call no traced code."""
        stack, total, calls = self._stack, self.total, self.calls

        def traced(*args, **kwargs):
            t0 = _pc()
            try:
                return fn(*args, **kwargs)
            finally:
                d = _pc() - t0
                stack[-1][0] += d
                total[layer] += d
                calls[layer] += 1
        return traced

    def wrap_explorer(self, genfn: Callable) -> Callable:
        """An explorer generator whose every step is an ``explore`` span."""
        def traced(*args, **kwargs):
            self._prev_trace = []
            inner = genfn(*args, **kwargs)

            def steps():
                try:
                    while True:
                        frame = self._open()
                        t0 = _pc()
                        try:
                            result = next(inner)
                        except StopIteration:
                            return
                        finally:
                            self._close("explore", frame, t0)
                        self.count["executions"] += 1
                        self.count["truncated"] += bool(result.truncated)
                        self.outcomes.add(
                            (self.count["cell"],
                             repr(sorted(result.returns.items()))))
                        yield result
                finally:
                    inner.close()
            return steps()
        return traced

    # -- the scenario wrapper (factory and graph extraction) -------------

    def wrap_scenario(self, scenario):
        """The same scenario, with its factory and extractor wrapped.

        Every program the factory builds gets a traced ``run``: the
        ``machine`` span, replay and cut-replay counts, and the decision
        prefix shared with the previous replay.
        """
        try:
            from repro.rmc.dpor import SleepSetCut
        except ImportError:  # pragma: no cover — hook target gone
            SleepSetCut = ()
        factory, extract = scenario.factory, scenario.extract
        count = self.count

        def traced_factory():
            program = factory()
            run = program.run

            def traced_run(*args, **kwargs):
                decider = args[0] if args else kwargs.get("decider")
                frame = self._open()
                t0 = _pc()
                try:
                    return run(*args, **kwargs)
                except SleepSetCut:
                    count["cut_replays"] += 1
                    raise
                finally:
                    self._close("machine", frame, t0)
                    count["runs"] += 1
                    if getattr(decider, "wants_footprints", False):
                        # (arity, choice) pairs: equal prefixes of one
                        # program have equal arities.
                        trace = decider.trace
                        count["dpor_runs"] += 1
                        count["prefix_shared"] += _common_prefix(
                            self._prev_trace, trace)
                        count["prefix_total"] += len(trace)
                        self._prev_trace = trace
            program.run = traced_run
            return program

        def count_graphs(cases, _args, _kwargs):
            count["graphs"] += len(cases)
            count["events"] += sum(len(c.graph.events) for c in cases)

        return dataclasses.replace(
            scenario, factory=traced_factory,
            extract=self.wrap("graph", extract, count_graphs))

    # -- installation ----------------------------------------------------

    def _patch(self, module: str, attr: str,
               make: Callable[[Callable], Callable]) -> None:
        """Replace ``module.attr`` (``attr`` may be ``Class.method``)."""
        try:
            owner = importlib.import_module(module)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, name)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{attr}")
            return
        self._patches.append((owner, name, original))
        setattr(owner, name, make(original))

    def install(self, serial: bool) -> None:
        """Hook the layers.  ``serial`` hooks the in-process exploration
        layers; otherwise only the engine's parent-process layers are
        hooked (the workers are forked and their spans would be lost)."""
        count = self.count
        self.missing.clear()

        def after_check(report, _args, _kwargs):
            count["pruned"] += report.pruned_subtrees

        def check(original):
            traced = self.wrap("check", original, after_check)

            def traced_check(scenario, *args, **kwargs):
                if serial:
                    count["cell"] += 1
                    scenario = self.wrap_scenario(scenario)
                return traced(scenario, *args, **kwargs)
            return traced_check

        self._patch("repro.checking.runner", "check_scenario", check)
        if serial:
            self._patch("repro.checking.matrix", "check_scenario", check)
            for name in ("explore_all_dpor", "explore_all",
                         "explore_random"):
                self._patch("repro.checking.runner", name,
                            self.wrap_explorer)
            self._patch("repro.rmc.machine", "op_footprint",
                        lambda f: self.wrap_leaf("dpor.footprint", f))
            self._patch("repro.rmc.dpor", "SleepSetDecider.choose",
                        lambda f: self.wrap_leaf("dpor.decide", f))
            self._patch("repro.rmc.machine", "Machine.run",
                        self._count_steps)
            self._patch("repro.checking.runner", "check_style",
                        self._spec_check)
            return

        def after_run(result, _args, _kwargs):
            count["retries"] += result.telemetry.retries
            count["corpus_entries"] += len(result.corpus_entries)
            count["busy_s"] += result.report.seconds
            # Exploration itself runs in the workers: its counts come
            # from the merged report.
            count["executions"] += result.report.executions
            count["truncated"] += result.report.truncated

        def after_plan(result, _args, _kwargs):
            shards, pruned = result
            count["shards"] += len(shards)
            count["planner_pruned"] += pruned

        self._patch("repro.engine", "run_scenario",
                    lambda f: self.wrap("pool", f, after_run))
        self._patch("repro.engine.pool", "plan_shards_ex",
                    lambda f: self.wrap("shard.plan", f, after_plan))
        self._patch("repro.engine.pool", "_decode_result",
                    lambda f: self.wrap("merge.decode", f))
        self._patch("repro.engine.pool", "merge_reports",
                    lambda f: self.wrap("merge.fold", f))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _count_steps(self, original):
        count = self.count

        def run(machine):
            try:
                return original(machine)
            finally:
                count["steps"] += machine.steps
        return run

    def _spec_check(self, original):
        count = self.count

        def check_style(graph, kind, style, *args, **kwargs):
            frame = self._open()
            t0 = _pc()
            try:
                res = original(graph, kind, style, *args, **kwargs)
            finally:
                self._close("spec:" + str(style), frame, t0)
            count["checks"] += 1
            count["violations"] += not res.ok
            return res
        return check_style

    def timing_vfs(self):
        """An `OsVFS` whose durable operations are ``durable`` spans."""
        from repro.engine.vfs import OsVFS
        count = self.count

        def timed(fn, *args, nbytes=None):
            self.wrap("durable", fn)(*args)
            count["fsyncs"] += 1  # each call's own (nested ones count too)
            if nbytes is not None:
                count["appends"] += 1
                count["bytes"] += nbytes

        class TimingVFS(OsVFS):
            def append_blob(self, path, data, site):
                timed(super().append_blob, path, data, site,
                      nbytes=len(data))

            def atomic_write(self, path, data, site):
                timed(super().atomic_write, path, data, site,
                      nbytes=len(data))

            def truncate(self, path, size, site=""):
                timed(super().truncate, path, size, site)

            def fsync_dir(self, dirpath):
                timed(super().fsync_dir, dirpath)

        return TimingVFS()

    # -- results ---------------------------------------------------------

    def attributed(self) -> float:
        """Time covered by top-level spans (= the sum of self times)."""
        return self._stack[0][0]

    def metrics(self, wall: float, workers: int) -> Dict[str, float]:
        """The per-layer metrics of what was traced since `reset`."""
        c, s, t = self.count, self.self_time, self.total
        spec = {name: s["spec:" + style]
                for style, name in STYLE_METRICS.items()}
        spec_total = sum(v for k, v in s.items() if k.startswith("spec:"))
        executions = c["executions"]
        busy = c["busy_s"]
        pool_wall = t["pool"]
        idle = max(workers * pool_wall - busy, 0.0) if pool_wall else 0.0
        return {
            "machine.runs": c["runs"],
            "machine.steps": c["steps"],
            "machine.self_s": s["machine"],
            "machine.steps_per_s": (c["steps"] / s["machine"]
                                    if s["machine"] else 0.0),
            "dpor.footprint_s": t["dpor.footprint"],
            "dpor.footprint_calls": self.calls["dpor.footprint"],
            "dpor.decide_s": t["dpor.decide"],
            "dpor.cut_replays": c["cut_replays"],
            "dpor.useful_replay_ratio": (
                (c["dpor_runs"] - c["cut_replays"]) / c["dpor_runs"]
                if c["dpor_runs"] else 0.0),
            "dpor.pruned_subtrees": c["pruned"],
            "dpor.prefix_shared_ratio": (c["prefix_shared"]
                                         / c["prefix_total"]
                                         if c["prefix_total"] else 0.0),
            "explore.executions": executions,
            "explore.truncated": c["truncated"],
            "explore.self_s": s["explore"],
            "explore.exec_per_s": (executions / (t["explore"] or busy)
                                   if t["explore"] or busy else 0.0),
            "explore.distinct_outcomes": len(self.outcomes),
            "explore.exec_per_outcome": (executions / len(self.outcomes)
                                         if self.outcomes else 0.0),
            "graph.extract_s": s["graph"],
            "graph.graphs": c["graphs"],
            "graph.events": c["events"],
            "spec.check_s": spec_total,
            **spec,
            "spec.checks": c["checks"],
            "spec.violations": c["violations"],
            "check.self_s": s["check"],
            "shard.plan_s": s["shard.plan"],
            "shard.count": c["shards"],
            "shard.planner_pruned": c["planner_pruned"],
            "pool.self_s": s["pool"],
            "pool.busy_s": busy,
            "pool.idle_s": idle,
            "pool.busy_ratio": (busy / (workers * pool_wall)
                                if pool_wall else 0.0),
            "pool.retries": c["retries"],
            "merge.decode_s": s["merge.decode"],
            "merge.fold_s": s["merge.fold"],
            "durable.appends": c["appends"],
            "durable.fsyncs": c["fsyncs"],
            "durable.bytes": c["bytes"],
            "durable.s": s["durable"],
            "corpus.entries": c["corpus_entries"],
            "trace.wall_s": wall,
            "trace.unattributed_s": wall - self.attributed(),
            "trace.hooks_missing": len(self.missing),
        }

    def span_records(self) -> List[Dict]:
        return [{"id": i, "parent": p, "layer": layer, "start": a, "end": b}
                for i, p, layer, a, b in self.records]
