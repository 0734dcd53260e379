"""Machine step-semantics unit tests: one rule per behaviour."""

import pytest

from repro.rmc import (ACQ, ACQ_REL, EMPTY_VIEW, NA, REL, RLX, SC, Alloc,
                       Cas, Faa, Fence, FixedDecider, GhostCommit, Load,
                       Location, Message, Program, RandomDecider,
                       RoundRobinDecider, SteppingError, Store, Xchg,
                       explore_all, run)
from repro.rmc.scheduler import PrefixDecider


def run_one(threads, setup=None, decider=None, **kw):
    prog = Program(setup or (lambda mem: {"x": mem.alloc("x", 0)}), threads)
    return prog.run(decider or RandomDecider(0), **kw)


class TestStoresAndLoads:
    def test_single_thread_store_load(self):
        def t(env):
            yield Store(env["x"], 5, RLX)
            return (yield Load(env["x"], RLX))
        r = run_one([t])
        assert r.ok and r.returns[0] == 5

    def test_na_store_load(self):
        def t(env):
            yield Store(env["x"], "v", NA)
            return (yield Load(env["x"], NA))
        r = run_one([t])
        assert r.returns[0] == "v"

    def test_load_sees_initial_value(self):
        def t(env):
            return (yield Load(env["x"], ACQ))
        def setup(mem):
            return {"x": mem.alloc("x", 42)}
        assert run_one([t], setup).returns[0] == 42

    def test_own_writes_are_coherent(self):
        def t(env):
            yield Store(env["x"], 1, RLX)
            yield Store(env["x"], 2, RLX)
            return (yield Load(env["x"], RLX))
        # A thread can never read its own writes out of order.
        for r in explore_all(lambda: Program(
                lambda mem: {"x": mem.alloc("x", 0)}, [t])):
            assert r.returns[0] == 2

    def test_acquire_store_is_rejected(self):
        def t(env):
            yield Store(env["x"], 1, ACQ)
        with pytest.raises(SteppingError):
            run_one([t])

    def test_history_grows_append_only(self):
        def t(env):
            yield Store(env["x"], 1, RLX)
            yield Store(env["x"], 2, REL)
        r = run_one([t])
        hist = r.memory.location(r.env["x"]).history
        assert [m.val for m in hist] == [0, 1, 2]
        assert [m.ts for m in hist] == [0, 1, 2]

    def test_release_message_carries_full_view(self):
        def t(env):
            yield Store(env["y"], 7, RLX)
            yield Store(env["x"], 1, REL)
        def setup(mem):
            return {"x": mem.alloc("x", 0), "y": mem.alloc("y", 0)}
        r = run_one([t], setup)
        msg = r.memory.location(r.env["x"]).latest
        assert msg.view.get(r.env["y"]) == 1

    def test_relaxed_message_does_not_carry_other_locations(self):
        def t(env):
            yield Store(env["y"], 7, RLX)
            yield Store(env["x"], 1, RLX)
        def setup(mem):
            return {"x": mem.alloc("x", 0), "y": mem.alloc("y", 0)}
        r = run_one([t], setup)
        msg = r.memory.location(r.env["x"]).latest
        assert msg.view.get(r.env["y"]) == 0


class TestRmw:
    def test_cas_success_on_expected(self):
        def t(env):
            ok, old = yield Cas(env["x"], 0, 9, ACQ_REL)
            return (ok, old, (yield Load(env["x"], RLX)))
        r = run_one([t])
        assert r.returns[0] == (True, 0, 9)

    def test_cas_fails_on_unexpected(self):
        def t(env):
            yield Store(env["x"], 3, RLX)
            ok, old = yield Cas(env["x"], 0, 9, ACQ_REL)
            return (ok, old, (yield Load(env["x"], RLX)))
        r = run_one([t])
        assert r.returns[0] == (False, 3, 3)

    def test_cas_never_fails_spuriously(self):
        # Single-threaded: value always matches, so every execution succeeds.
        def t(env):
            ok, _ = yield Cas(env["x"], 0, 1, ACQ_REL)
            return ok
        for r in explore_all(lambda: Program(
                lambda mem: {"x": mem.alloc("x", 0)}, [t])):
            assert r.returns[0] is True

    def test_concurrent_cas_exactly_one_wins(self):
        def t(env):
            ok, _ = yield Cas(env["x"], 0, 1, ACQ_REL)
            return ok
        wins = set()
        for r in explore_all(lambda: Program(
                lambda mem: {"x": mem.alloc("x", 0)}, [t, t])):
            wins.add((r.returns[0], r.returns[1]))
        assert wins == {(True, False), (False, True)}

    def test_faa_returns_old_and_increments(self):
        def t(env):
            a = yield Faa(env["x"], 3, RLX)
            b = yield Faa(env["x"], 3, RLX)
            return (a, b, (yield Load(env["x"], RLX)))
        assert run_one([t]).returns[0] == (0, 3, 6)

    def test_concurrent_faa_unique_tickets(self):
        def t(env):
            return (yield Faa(env["x"], 1, RLX))
        for r in explore_all(lambda: Program(
                lambda mem: {"x": mem.alloc("x", 0)}, [t, t, t])):
            assert sorted(r.returns.values()) == [0, 1, 2]

    def test_xchg_returns_old(self):
        def t(env):
            a = yield Xchg(env["x"], "new", ACQ)
            return (a, (yield Load(env["x"], RLX)))
        assert run_one([t]).returns[0] == (0, "new")

    def test_rmw_carries_release_view(self):
        """Release sequences through RMW chains: an acquirer of the CAS'd
        message also synchronizes with the original release write."""
        def t(env):
            yield Store(env["y"], 1, RLX)
            yield Store(env["x"], 1, REL)
            yield Cas(env["x"], 1, 2, RLX)
        def setup(mem):
            return {"x": mem.alloc("x", 0), "y": mem.alloc("y", 0)}
        r = run_one([t], setup)
        msg = r.memory.location(r.env["x"]).latest
        assert msg.val == 2 and msg.view.get(r.env["y"]) == 1


class TestFences:
    def test_acquire_fence_claims_relaxed_reads(self):
        # rel-write + rlx-read + acq-fence == synchronization.
        def setup(mem):
            return {"x": mem.alloc("x", 0), "f": mem.alloc("f", 0)}
        def w(env):
            yield Store(env["x"], 1, RLX)
            yield Store(env["f"], 1, REL)
        def r(env):
            f = yield Load(env["f"], RLX)
            yield Fence(ACQ)
            x = yield Load(env["x"], RLX)
            return (f, x)
        outcomes = {res.returns[1] for res in explore_all(
            lambda: Program(setup, [w, r]))}
        assert (1, 0) not in outcomes
        assert (1, 1) in outcomes

    def test_release_fence_promotes_relaxed_write(self):
        def setup(mem):
            return {"x": mem.alloc("x", 0), "f": mem.alloc("f", 0)}
        def w(env):
            yield Store(env["x"], 1, RLX)
            yield Fence(REL)
            yield Store(env["f"], 1, RLX)
        def r(env):
            f = yield Load(env["f"], ACQ)
            x = yield Load(env["x"], RLX)
            return (f, x)
        outcomes = {res.returns[1] for res in explore_all(
            lambda: Program(setup, [w, r]))}
        assert (1, 0) not in outcomes

    def test_no_sync_without_fence(self):
        def setup(mem):
            return {"x": mem.alloc("x", 0), "f": mem.alloc("f", 0)}
        def w(env):
            yield Store(env["x"], 1, RLX)
            yield Store(env["f"], 1, RLX)
        def r(env):
            f = yield Load(env["f"], RLX)
            x = yield Load(env["x"], RLX)
            return (f, x)
        outcomes = {res.returns[1] for res in explore_all(
            lambda: Program(setup, [w, r]))}
        assert (1, 0) in outcomes


class TestScAccesses:
    def test_sc_loads_read_latest(self):
        def setup(mem):
            return {"x": mem.alloc("x", 0)}
        def w(env):
            yield Store(env["x"], 1, SC)
        def r(env):
            a = yield Load(env["x"], SC)
            b = yield Load(env["x"], SC)
            return (a, b)
        outcomes = {res.returns[1] for res in explore_all(
            lambda: Program(setup, [w, r]))}
        assert (1, 0) not in outcomes


class TestAllocAndGhost:
    def test_alloc_returns_fresh_initialized_locations(self):
        def t(env):
            locs = yield Alloc([10, 20], "n")
            a = yield Load(locs[0], NA)
            b = yield Load(locs[1], NA)
            return (a, b, locs[0] != locs[1])
        assert run_one([t]).returns[0] == (10, 20, True)

    def test_ghost_commit_runs_hook_atomically(self):
        seen = []
        def t(env):
            yield GhostCommit(commit=lambda ctx: seen.append(ctx.thread.tid))
        r = run_one([t])
        assert r.ok and seen == [0]

    def test_commit_hook_on_store_sees_written_ts(self):
        captured = []
        def t(env):
            yield Store(env["x"], 1, REL,
                        commit=lambda ctx: captured.append(ctx.ts_written))
        run_one([t])
        assert captured == [1]

    def test_cas_commit_only_on_success(self):
        hits = []
        def t(env):
            yield Store(env["x"], 5, RLX)
            yield Cas(env["x"], 0, 9, ACQ_REL,
                      commit=lambda ctx: hits.append("ok"),
                      commit_fail=lambda ctx: hits.append("fail"))
            yield Cas(env["x"], 5, 9, ACQ_REL,
                      commit=lambda ctx: hits.append("ok2"))
        run_one([t])
        assert hits == ["fail", "ok2"]

    def test_commit_ghost_published_by_release_write(self):
        """A ghost planted in the commit hook is sealed into the released
        message — the core mechanism behind logical views."""
        def t(env):
            yield Store(env["x"], 1, REL,
                        commit=lambda ctx: ctx.add_ghost(999))
        r = run_one([t])
        assert r.memory.location(r.env["x"]).latest.view.get(999) == 1

    def test_commit_ghost_not_published_by_relaxed_write(self):
        def t(env):
            yield Store(env["x"], 1, RLX,
                        commit=lambda ctx: ctx.add_ghost(999))
        r = run_one([t])
        assert r.memory.location(r.env["x"]).latest.view.get(999) == 0


class TestExecutionControl:
    def test_max_steps_truncates(self):
        def t(env):
            while True:
                yield Load(env["x"], RLX)
        r = run_one([t], max_steps=10)
        assert r.truncated and r.steps == 10

    def test_returns_collected_per_thread(self):
        def a(env):
            return "a"
            yield  # pragma: no cover
        def b(env):
            return "b"
            yield  # pragma: no cover
        r = run_one([a, b])
        assert r.returns == {0: "a", 1: "b"}

    def test_replay_reproduces_execution(self):
        def setup(mem):
            return {"x": mem.alloc("x", 0)}
        def w(env):
            yield Store(env["x"], 1, RLX)
        def r_(env):
            return (yield Load(env["x"], RLX))
        prog = lambda: Program(setup, [w, r_])
        first = prog().run(RandomDecider(42))
        replayed = prog().run(FixedDecider(first.trace))
        assert replayed.returns == first.returns

    def test_round_robin_is_deterministic(self):
        def setup(mem):
            return {"x": mem.alloc("x", 0)}
        def w(env):
            yield Store(env["x"], 1, RLX)
        def r_(env):
            return (yield Load(env["x"], RLX))
        a = Program(setup, [w, r_]).run(RoundRobinDecider())
        b = Program(setup, [w, r_]).run(RoundRobinDecider())
        assert a.returns == b.returns

    def test_empty_program_rejected(self):
        with pytest.raises(ValueError):
            Program(None, [])

    def test_prefix_decider_follows_prefix(self):
        d = PrefixDecider([1, 0, 2])
        assert d.choose(3) == 1
        assert d.choose(2) == 0
        assert d.choose(5) == 2
        assert d.choose(4) == 0  # past the prefix: branch 0


class TestModeValidation:
    @pytest.mark.parametrize("op_builder,msg", [
        (lambda env: Load(env["x"], REL), "load"),
        (lambda env: Store(env["x"], 1, ACQ), "store"),
        (lambda env: Store(env["x"], 1, ACQ_REL), "store"),
        (lambda env: Cas(env["x"], 0, 1, NA), "CAS"),
        (lambda env: Faa(env["x"], 1, NA), "FAA"),
        (lambda env: Xchg(env["x"], 1, NA), "XCHG"),
        (lambda env: Fence(NA), "fence"),
        (lambda env: Fence(RLX), "fence"),
    ])
    def test_invalid_modes_rejected(self, op_builder, msg):
        def t(env):
            yield op_builder(env)
        with pytest.raises(SteppingError, match=msg):
            run_one([t])

    def test_all_valid_mode_combinations_accepted(self):
        from repro.rmc.modes import (FENCE_MODES, READ_MODES, RMW_MODES,
                                     WRITE_MODES)

        def t(env):
            for m in WRITE_MODES:
                yield Store(env["x"], 1, m)
            for m in READ_MODES:
                yield Load(env["x"], m)
            for m in RMW_MODES:
                yield Faa(env["y"], 1, m)
            for m in FENCE_MODES:
                yield Fence(m)

        def setup(mem):
            return {"x": mem.alloc("x", 0), "y": mem.alloc("y", 0)}
        r = run_one([t], setup)
        assert r.ok


class TestScUpgrade:
    """The SC-upgrade ablation (E11) is the ``sc`` memory model: every
    atomic executes seq-cst, non-atomics stay non-atomic."""

    def test_upgrade_removes_weak_mp(self):
        from repro.rmc.litmus import message_passing
        factory = message_passing(RLX, RLX)
        outs = set()
        for r in explore_all(factory, model="sc"):
            if r.ok:
                outs.add(r.returns[1])
        assert (1, 0) not in outs
        assert (1, 42) in outs

    def test_upgrade_removes_sb_weak_outcome(self):
        from repro.rmc.litmus import store_buffering
        outs = set()
        for r in explore_all(store_buffering(RLX, RLX), model="sc"):
            if r.ok:
                outs.add((r.returns[0], r.returns[1]))
        assert (0, 0) not in outs

    def test_upgrade_preserves_na_semantics(self):
        """Non-atomics are not upgraded: racy programs still race."""
        from repro.rmc.litmus import na_publication
        from repro.rmc import explore_all as ea
        raced = sum(1 for r in ea(na_publication(RLX, RLX),
                                  model="sc") if r.race)
        # The rlx flag accesses become SC (synchronizing), so the race
        # disappears; NA data accesses themselves stay NA.
        assert raced == 0

    def test_upgrade_off_by_default(self):
        from repro.rmc.litmus import store_buffering
        outs = {(r.returns[0], r.returns[1])
                for r in explore_all(store_buffering(RLX, RLX)) if r.ok}
        assert (0, 0) in outs


class TestValueSemantics:
    """Messages are immutable values; locations are slotted records; the
    type-keyed step dispatch keeps the old rejections word for word."""

    def msg(self, **over):
        fields = dict(loc=1, ts=2, val=(3, "e"), view=EMPTY_VIEW, writer=0,
                      wclock=4, is_na=False)
        fields.update(over)
        return Message(**fields)

    @pytest.mark.parametrize("field", Message._fields)
    def test_message_fields_are_read_only(self, field):
        with pytest.raises(AttributeError):
            setattr(self.msg(), field, 9)

    def test_equal_messages_compare_and_hash_equal(self):
        a, b = self.msg(), self.msg()
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != self.msg(ts=3)
        assert a != self.msg(view=EMPTY_VIEW.extend(1, 1))

    def test_location_is_slotted(self):
        cell = Location(7, "x")
        assert (cell.loc, cell.name, cell.history, cell.next_ts) == \
            (7, "x", [], 0)
        assert not cell.has_na_write
        assert cell.na_read_marks == {} and cell.at_read_marks == {}
        assert Location(8, "y").history is not cell.history
        with pytest.raises(AttributeError):
            cell.typo = 1

    def test_unknown_op_rejected(self):
        def t(env):
            yield "not an op"
        with pytest.raises(SteppingError,
                           match=r"^unknown operation 'not an op'$"):
            run_one([t])

    @pytest.mark.parametrize("op_builder,msg", [
        (lambda env: Load(env["x"], REL), "load cannot be Mode.REL"),
        (lambda env: Store(env["x"], 1, ACQ),
         "plain store cannot be Mode.ACQ"),
        (lambda env: Cas(env["x"], 0, 1, NA), "CAS cannot be Mode.NA"),
        (lambda env: Faa(env["x"], 1, NA), "FAA cannot be Mode.NA"),
        (lambda env: Xchg(env["x"], 1, NA), "XCHG cannot be Mode.NA"),
        (lambda env: Fence(RLX), "fence cannot be Mode.RLX"),
    ])
    def test_illegal_mode_messages(self, op_builder, msg):
        def t(env):
            yield op_builder(env)
        with pytest.raises(SteppingError) as err:
            run_one([t])
        assert str(err.value) == msg

    def test_op_subclass_dispatches_as_its_base(self):
        class TaggedStore(Store):
            pass

        def t(env):
            yield TaggedStore(env["x"], 5, RLX)
            return (yield Load(env["x"], RLX))
        assert run_one([t]).returns[0] == 5
