"""Sleep-set DPOR tests: footprints, independence, and the differential
equivalence suite (DPOR-on vs DPOR-off must agree on every observable
verdict while exploring fewer interleavings)."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.checking import check_scenario
from repro.core import SpecStyle
from repro.engine import (ScenarioSpec, Shard, build_scenario, iter_shard,
                          plan_exhaustive_shards_dpor, stats_from_json,
                          stats_to_json)
from repro.rmc import (ACQ, NA, RLX, SC, Alloc, Cas, Fence, Footprint,
                       GhostCommit, Load, Program, SleepSetCut,
                       SleepSetDecider, Store, explore_all, explore_all_dpor,
                       op_footprint)
from repro.rmc.dpor import DporStats, independent
from repro.rmc.machine import Machine
from repro.rmc.scheduler import Decider
from repro.rmc.explore import RACE_TRACE_CAP, ExplorationStats
from repro.rmc.litmus import CATALOGUE, na_publication, outcomes
from tests.engine._support import assert_reports_equal, hw_spec, vyukov_spec


def writers_distinct(n):
    """n threads each storing to their own location: fully independent."""
    def setup(mem):
        return [mem.alloc(f"x{i}", 0) for i in range(n)]

    def writer(i):
        def body(env):
            yield Store(env[i], 1, RLX)
        return body
    return lambda: Program(setup, [writer(i) for i in range(n)])


def writers_same_loc(n):
    """n threads all storing to one location: fully dependent."""
    def setup(mem):
        return {"x": mem.alloc("x", 0)}

    def writer(env):
        yield Store(env["x"], 1, RLX)
    return lambda: Program(setup, [writer] * n)


class TestFootprint:
    def test_load_store(self):
        assert op_footprint(1, Load(5, ACQ)) == \
            Footprint(1, "read", 5, ACQ.value, False, False)
        assert op_footprint(0, Store(3, 7, SC)) == \
            Footprint(0, "write", 3, SC.value, True, False)

    def test_cas_is_rmw_and_sees_fail_path(self):
        fp = op_footprint(2, Cas(4, 0, 1, RLX))
        assert (fp.kind, fp.loc, fp.sc, fp.hooked) == ("rmw", 4, False, False)
        # An SC fail_mode or a failure hook must make the footprint
        # conservative even when the success path looks benign.
        assert op_footprint(2, Cas(4, 0, 1, RLX, fail_mode=SC)).sc
        assert op_footprint(2, Cas(4, 0, 1, RLX,
                                   commit_fail=lambda ctx: None)).hooked

    def test_fence_alloc_ghost(self):
        fence = op_footprint(1, Fence(SC))
        assert (fence.kind, fence.loc, fence.sc) == ("fence", None, True)
        assert op_footprint(0, Alloc([0])) == \
            Footprint(0, "alloc", None, "", False, True)
        assert op_footprint(0, GhostCommit(lambda ctx: None)).kind == "ghost"

    def test_sc_model_footprint_is_seq_cst(self):
        """Under the ``sc`` model every atomic executes seq-cst; the
        footprint reflects the mode the op executes at, not the one it
        was written with."""
        assert op_footprint(0, Load(1, RLX), model="sc").sc
        assert op_footprint(0, Cas(1, 0, 1, RLX), model="sc").sc
        # Non-atomics stay non-atomic under the upgrade.
        assert not op_footprint(0, Load(1, NA), model="sc").sc

    def test_json_round_trip(self):
        fp = Footprint(3, "rmw", 17, RLX.value, True, True)
        assert Footprint.from_json(fp.to_json()) == fp


class TestIndependence:
    def test_same_thread_dependent(self):
        a = Footprint(1, "read", 5, RLX.value)
        b = Footprint(1, "write", 6, RLX.value)
        assert not independent(a, b)

    def test_location_rules(self):
        w0 = Footprint(0, "write", 5, RLX.value)
        w1 = Footprint(1, "write", 5, RLX.value)
        w1_other = Footprint(1, "write", 6, RLX.value)
        r1 = Footprint(1, "read", 5, RLX.value)
        r2 = Footprint(2, "read", 5, RLX.value)
        rmw1 = Footprint(1, "rmw", 5, RLX.value)
        assert not independent(w0, w1)          # same-loc write/write
        assert not independent(w0, r1)          # same-loc write/read
        assert not independent(w0, rmw1)        # same-loc write/rmw
        assert independent(w0, w1_other)        # different locations
        assert independent(r1, r2)              # same-loc read/read

    def test_sc_and_fence_rules(self):
        sc0 = Footprint(0, "write", 5, SC.value, sc=True)
        sc1 = Footprint(1, "read", 6, SC.value, sc=True)
        scfence = Footprint(1, "fence", None, SC.value, sc=True)
        fence = Footprint(1, "fence", None, ACQ.value)
        w0 = Footprint(0, "write", 5, RLX.value)
        assert not independent(sc0, sc1)        # both touch the SC view
        assert not independent(sc0, scfence)
        assert independent(w0, fence)           # plain fences are local
        assert independent(w0, scfence)         # only sc×sc is dependent

    def test_hooked_and_global_rules(self):
        h0 = Footprint(0, "write", 5, RLX.value, hooked=True)
        h1 = Footprint(1, "read", 6, RLX.value, hooked=True)
        w1 = Footprint(1, "write", 6, RLX.value)
        alloc = Footprint(1, "alloc", None, "", False, True)
        ghost = Footprint(1, "ghost", None, "", False, True)
        assert not independent(h0, h1)          # shared commit sequence
        assert independent(h0, w1)              # one hook, disjoint locs
        assert not independent(h0, alloc)       # alloc: global counters
        assert not independent(h0, ghost)       # arbitrary hook
        w0 = Footprint(0, "write", 5, RLX.value)
        assert not independent(w0, alloc)

    def test_symmetry(self):
        pool = [
            Footprint(0, "write", 5, RLX.value),
            Footprint(1, "read", 5, RLX.value),
            Footprint(1, "write", 6, RLX.value),
            Footprint(2, "rmw", 5, RLX.value),
            Footprint(2, "fence", None, SC.value, sc=True),
            Footprint(3, "write", 7, SC.value, sc=True),
            Footprint(3, "alloc", None, "", False, True),
            Footprint(0, "read", 6, RLX.value, hooked=True),
        ]
        for a in pool:
            for b in pool:
                assert independent(a, b) == independent(b, a), (a, b)


class TestSleepSets:
    def test_independent_writers_collapse_to_one(self):
        """3 fully-independent writers: 3! = 6 naive schedules, one
        representative under DPOR, all 5 siblings pruned."""
        factory = writers_distinct(3)
        naive = sum(1 for _ in explore_all(factory))
        stats = DporStats()
        reduced = sum(1 for _ in explore_all_dpor(factory, stats=stats))
        assert naive == 6
        assert reduced == 1
        assert stats.pruned_subtrees == 5

    def test_dependent_writers_not_pruned(self):
        """Same-location writes never commute: DPOR must not prune."""
        for n in (2, 3):
            factory = writers_same_loc(n)
            naive = sum(1 for _ in explore_all(factory))
            stats = DporStats()
            reduced = sum(1 for _ in explore_all_dpor(factory, stats=stats))
            assert reduced == naive
            assert stats.pruned_subtrees == 0

    @pytest.mark.parametrize("name", sorted(CATALOGUE))
    def test_never_more_executions_than_naive(self, name):
        factory = CATALOGUE[name]
        naive = sum(1 for _ in explore_all(factory))
        reduced = sum(1 for _ in explore_all_dpor(factory))
        assert reduced <= naive


class TestDifferentialLitmus:
    @pytest.mark.parametrize("name", sorted(CATALOGUE))
    def test_outcome_sets_equal(self, name):
        factory = CATALOGUE[name]
        assert outcomes(factory, dpor=True) == outcomes(factory, dpor=False)

    def test_race_verdict_preserved(self):
        """DPOR preserves *whether* a race exists (counts may differ)."""
        racy = na_publication(RLX, RLX)
        clean = na_publication()
        for factory, expect in ((racy, True), (clean, False)):
            naive = any(r.race is not None for r in explore_all(factory))
            dpor = any(r.race is not None
                       for r in explore_all_dpor(factory))
            assert naive == expect
            assert dpor == expect


def final_outcomes(factory, max_steps):
    """Distinct complete-execution return tuples, DPOR vs naive."""
    out = []
    for source in (explore_all_dpor(factory, max_steps=max_steps),
                   explore_all(factory, max_steps=max_steps)):
        out.append(frozenset(
            tuple(repr(r.returns[tid]) for tid in sorted(r.returns))
            for r in source if r.ok))
    return out


class TestDifferentialScenarios:
    """DPOR-on and DPOR-off must agree on every scenario-level verdict."""

    @pytest.mark.parametrize("spec_fn", [vyukov_spec, hw_spec])
    def test_final_outcome_sets_equal(self, spec_fn):
        factory = build_scenario(spec_fn()).factory
        reduced, naive = final_outcomes(factory, max_steps=400)
        assert reduced == naive

    @pytest.mark.parametrize("spec_fn", [vyukov_spec, hw_spec])
    def test_check_scenario_verdicts_equal(self, spec_fn):
        styles = (SpecStyle.LAT_HB, SpecStyle.LAT_HB_ABS)
        reports = {}
        for dpor in (True, False):
            reports[dpor] = check_scenario(
                build_scenario(spec_fn()), styles=styles, exhaustive=True,
                max_steps=400, dpor=dpor)
        on, off = reports[True], reports[False]
        assert on.exhausted and off.exhausted
        assert on.executions <= off.executions
        # Each pruned branch hides at least one naive execution, so the
        # effective tree size is a lower bound on the naive count.
        assert on.executions + on.pruned_subtrees <= off.executions
        if on.executions < off.executions:
            assert on.pruned_subtrees > 0
        assert off.pruned_subtrees == 0
        assert (on.raced > 0) == (off.raced > 0)
        assert (on.outcome_failures > 0) == (off.outcome_failures > 0)
        for style in styles:
            assert on.styles[style].ok == off.styles[style].ok, style


class TestDifferentialQuick:
    """The CI smoke slice: two litmus tests + one queue scenario."""

    @pytest.mark.parametrize("name", ["MP+rel+acq", "SB+rlx"])
    def test_litmus_outcomes(self, name):
        factory = CATALOGUE[name]
        assert outcomes(factory, dpor=True) == outcomes(factory, dpor=False)

    def test_queue_scenario_sharded_matches_serial(self):
        spec = hw_spec()
        styles = (SpecStyle.LAT_HB,)
        serial = check_scenario(build_scenario(spec), styles=styles,
                                exhaustive=True, max_steps=400)
        sharded = check_scenario(build_scenario(spec), styles=styles,
                                 exhaustive=True, max_steps=400,
                                 workers=4, spec=spec)
        assert serial.pruned_subtrees > 0  # DPOR was actually on
        assert_reports_equal(sharded, serial)
        naive = check_scenario(build_scenario(spec), styles=styles,
                               exhaustive=True, max_steps=400, dpor=False)
        assert serial.executions < naive.executions
        for style in styles:
            assert serial.styles[style].ok == naive.styles[style].ok


class _FakeResult:
    def __init__(self, race=None, truncated=False, steps=1, trace=()):
        self.race = race
        self.truncated = truncated
        self.steps = steps
        self.trace = list(trace)


class TestStatsDropped:
    def test_record_counts_overflow(self):
        stats = ExplorationStats()
        for i in range(RACE_TRACE_CAP + 3):
            stats.record(_FakeResult(race=ValueError("race"),
                                     trace=[(2, i % 2)]))
        assert len(stats.race_traces) == RACE_TRACE_CAP
        assert stats.race_traces_dropped == 3

    def test_merge_accounts_for_truncation(self):
        a = ExplorationStats(race_traces=[[(2, 0)]] * (RACE_TRACE_CAP - 1))
        b = ExplorationStats(race_traces=[[(2, 1)]] * 3,
                             race_traces_dropped=2)
        a.merge(b)
        assert len(a.race_traces) == RACE_TRACE_CAP
        # b's own drops plus the 2 traces that no longer fit.
        assert a.race_traces_dropped == 4

    def test_add_preserves_new_fields(self):
        a = ExplorationStats(race_traces_dropped=1, pruned_subtrees=7)
        c = a + ExplorationStats(race_traces_dropped=2, pruned_subtrees=5)
        assert c.race_traces_dropped == 3
        assert c.pruned_subtrees == 12
        assert a.race_traces_dropped == 1  # __add__ does not mutate

    def test_json_round_trip(self):
        stats = ExplorationStats(executions=9, complete=7, truncated=1,
                                 raced=1, steps=42, exhausted=True,
                                 race_traces=[[(3, 1), (2, 0)]],
                                 race_traces_dropped=4, pruned_subtrees=11)
        back = stats_from_json(stats_to_json(stats))
        assert back == stats


class TestShardDpor:
    def test_shard_json_round_trip_with_sleep(self):
        shard = Shard(kind="prefix", prefix=(1, 0, 2),
                      sleep=(Footprint(0, "write", 5, RLX.value),
                             Footprint(2, "read", 6, ACQ.value)))
        assert Shard.from_json(shard.to_json()) == shard
        # Naive shards keep the pre-DPOR wire format.
        assert "sleep" not in Shard(kind="prefix", prefix=(1,)).to_json()

    def test_sharded_union_is_the_serial_enumeration(self):
        """Shards in prefix order concatenate to exactly the serial DPOR
        run — execution for execution, prune for prune."""
        factory = build_scenario(vyukov_spec()).factory
        serial_stats = DporStats()
        serial = [tuple(r.trace) for r in
                  explore_all_dpor(factory, max_steps=400,
                                   stats=serial_stats)]
        shards, planner_pruned = plan_exhaustive_shards_dpor(
            factory, target=8, max_steps=400)
        assert len(shards) >= 8
        concat = []
        shard_pruned = 0
        for shard in shards:
            stats = DporStats()
            concat.extend(tuple(r.trace) for r in
                          iter_shard(factory, shard, 400, 100_000,
                                     dpor=True, stats=stats))
            shard_pruned += stats.pruned_subtrees
        assert concat == serial
        assert planner_pruned + shard_pruned == serial_stats.pruned_subtrees


class TestShardDporPerModel:
    """DPOR sharding must stay exact under every memory model: the model
    changes both the enumeration (strengthened modes widen or narrow read
    choices) and the independence relation (TSO atomic reads are
    SC-footprinted), so the planner/iterator pair is re-proven per model.
    """

    SHAPES = ["SB+rlx", "MP+rel+acq", "IRIW+acq"]

    @pytest.mark.parametrize("model", ["sc", "tso", "ra", "orc11"])
    @pytest.mark.parametrize("name", SHAPES)
    def test_sharded_outcomes_match_serial(self, model, name):
        factory = CATALOGUE[name]
        serial = [tuple(r.trace) for r in
                  explore_all_dpor(factory, max_steps=400, model=model)]
        shards, _pruned = plan_exhaustive_shards_dpor(
            factory, target=4, max_steps=400, model=model)
        concat = []
        for shard in shards:
            concat.extend(tuple(r.trace) for r in
                          iter_shard(factory, shard, 400, 100_000,
                                     dpor=True, model=model))
        assert concat == serial

    @pytest.mark.parametrize("model", ["sc", "tso", "ra", "orc11"])
    def test_dpor_outcome_set_matches_naive(self, model):
        """Per model, the sleep-set reduction must preserve the outcome
        set of the naive enumeration (the refactored independence check
        consumes model-strengthened footprints)."""
        for name in self.SHAPES:
            factory = CATALOGUE[name]
            assert outcomes(factory, dpor=True, model=model) == \
                outcomes(factory, dpor=False, model=model), (name, model)


# ----------------------------------------------------------------------
# Replay bookkeeping: inherited prefixes and the per-thread footprint cache
# ----------------------------------------------------------------------

#: The implementations of the benchmark's exhaustive DPOR cells
#: (``perfbench/workloads.py``).
DPOR_IMPLS = ("vyukov-queue/rlx", "hw-queue/rlx", "ms-queue/ra",
              "elim-stack", "treiber/rel-acq")
#: Executions per scenario cell: enough for hundreds of inherited
#: replays, small enough for the suite.
CELL_EXECUTIONS = 250


def stress_factory(impl, threads, ops, seed=0):
    return build_scenario(ScenarioSpec("mixed-stress", kwargs={
        "impl": impl, "threads": threads, "ops": ops,
        "seed": seed})).factory


def recording(factory, on_run):
    """``factory`` whose programs call ``on_run(program, run, decider,
    kwargs)`` in place of their own ``run``."""
    def make():
        program = factory()
        run = program.run

        def hooked(decider, **kwargs):
            return on_run(program, run, decider, kwargs)
        program.run = hooked
        return program
    return make


def written_seq_cst(factory):
    """``factory`` whose programs have every atomic access and fence
    rewritten to seq-cst in the source, before the machine sees it."""
    def strengthen(op):
        if getattr(op, "mode", NA) is NA:
            return op
        if isinstance(op, Cas):
            return dataclasses.replace(op, mode=SC, fail_mode=SC)
        return dataclasses.replace(op, mode=SC)

    def wrap(body):
        def strengthened(env):
            gen = body(env)
            result = None
            try:
                while True:
                    result = yield strengthen(gen.send(result))
            except StopIteration as stop:
                return stop.value
        return strengthened

    def make():
        program = factory()
        program.threads = [wrap(body) for body in program.threads]
        return program
    return make


def bookkeeping(decider):
    return (list(decider.trace), list(decider.footprints),
            list(decider.entry_sleeps), decider.pruned)


def assert_inheritance_is_invisible(factory, **explore_kw):
    """Every replay of an exploration, with the bookkeeping it inherited,
    records exactly what a fresh `SleepSetDecider` records replaying the
    same prefix from scratch.  Returns the number of inheriting replays."""
    replays = []

    def on_run(_program, run, decider, kwargs):
        replays.append((decider, kwargs))
        return run(decider, **kwargs)

    list(explore_all_dpor(recording(factory, on_run), **explore_kw))
    inheriting = 0
    for decider, kwargs in replays:
        fresh = SleepSetDecider(decider.prefix, pin=decider.pin,
                                entry_sleep=decider.entry)
        try:
            factory().run(fresh, **kwargs)
        except SleepSetCut:
            pass
        assert bookkeeping(decider) == bookkeeping(fresh), decider.prefix
        inheriting += decider.inherited > 0
    return inheriting


class TestInheritedBookkeeping:
    """A replay inherits the previous replay's footprints and entry sleep
    sets up to the backtrack depth; that must be indistinguishable from
    recomputing them."""

    @pytest.mark.parametrize("name", sorted(CATALOGUE))
    def test_litmus(self, name):
        assert_inheritance_is_invisible(CATALOGUE[name], max_steps=400)

    @pytest.mark.parametrize("shape", [(2, 1), (2, 2), (3, 1)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("impl", DPOR_IMPLS)
    def test_stress_cells(self, impl, shape):
        factory = stress_factory(impl, *shape)
        assert assert_inheritance_is_invisible(
            factory, max_steps=2000, max_executions=CELL_EXECUTIONS) > 0

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10_000),
           impl=st.sampled_from(DPOR_IMPLS))
    def test_script_seeds(self, seed, impl):
        assert_inheritance_is_invisible(
            stress_factory(impl, 2, 1, seed), max_steps=2000,
            max_executions=CELL_EXECUTIONS)

    def test_sharded_roots(self):
        """Under a shard pin (``pin > 0``, inherited sleep set at the
        root) inheritance is still invisible."""
        factory = build_scenario(vyukov_spec()).factory
        shards, _pruned = plan_exhaustive_shards_dpor(
            factory, target=8, max_steps=400)
        pinned = [s for s in shards if s.prefix and s.sleep]
        assert pinned
        for shard in pinned:
            assert_inheritance_is_invisible(
                factory, max_steps=400, prefix=shard.prefix,
                sleep=shard.sleep)

    def test_inherited_decisions_skip_footprints(self):
        """The machine hands footprints only past the inherited prefix."""
        handed = []

        class Spy(SleepSetDecider):
            def choose(self, n, footprints=None):
                if footprints is not None:
                    handed.append((len(self.trace), self.inherited))
                return super().choose(n, footprints)

        factory = CATALOGUE["SB+rlx"]
        base = SleepSetDecider()
        factory().run(base)
        sched = [i for i, fp in enumerate(base.footprints) if fp is not None]
        j = sched[len(sched) // 2]
        prefix = [c for _n, c in base.trace[:j + 1]]
        spy = Spy(prefix, inherit=(base.footprints[:j + 1],
                                   base.entry_sleeps[:j + 1]))
        factory().run(spy)
        assert handed and all(i >= inherited for i, inherited in handed)
        assert spy.footprints[:j + 1] == base.footprints[:j + 1]

    def test_mismatched_inheritance_rejected(self):
        with pytest.raises(ValueError):
            SleepSetDecider([0], inherit=([None, None], [{}, {}]))


class FootprintAudit(Decider):
    """Wraps the explorer's decider and checks every footprint the
    machine hands it against a fresh `op_footprint` of the thread's
    pending op."""

    wants_footprints = True

    def __init__(self, inner):
        super().__init__()
        self.inner = inner
        self.trace = inner.trace
        self.inherited = inner.inherited
        self.machine = None
        self.checked = 0
        self.modes = set()

    def choose(self, n, footprints=None):
        if footprints is not None:
            for fp in footprints:
                pending = self.machine.threads[fp.thread].pending
                assert fp == op_footprint(fp.thread, pending,
                                          model=self.machine.model)
            self.checked += len(footprints)
            self.modes.update(fp.mode for fp in footprints)
        return self.inner.choose(n, footprints)


class TestFootprintCache:
    """Cached per-thread footprints equal freshly computed ones, under
    every memory model, and for programs written all-seq-cst (the
    SC-upgrade ablation itself is the ``sc`` model)."""

    FACTORIES = [CATALOGUE["SB+rlx"], CATALOGUE["MP+rel+acq"],
                 CATALOGUE["IRIW+acq"],
                 stress_factory("ms-queue/ra", 2, 1),
                 stress_factory("treiber/rel-acq", 2, 1),
                 stress_factory("elim-stack", 2, 1)]

    @pytest.mark.parametrize("model,all_sc", [
        ("orc11", False), ("tso", False), ("sc", False), ("orc11", True)])
    def test_cached_footprints_are_fresh(self, model, all_sc):
        audits = []

        def on_run(program, _run, decider, kwargs):
            audit = FootprintAudit(decider)
            machine = Machine(program, audit, kwargs["max_steps"],
                              kwargs["race_detection"],
                              model=kwargs["model"])
            audit.machine = machine
            audits.append(audit)
            return machine.run()

        for factory in self.FACTORIES:
            if all_sc:
                factory = written_seq_cst(factory)
            list(explore_all_dpor(recording(factory, on_run),
                                  max_steps=2000, max_executions=40,
                                  model=model))
        assert sum(a.checked for a in audits) > 0
        if all_sc:
            modes = set().union(*(a.modes for a in audits))
            assert SC.value in modes
            assert modes <= {SC.value, NA.value, ""}
