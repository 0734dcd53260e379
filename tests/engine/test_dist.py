"""The distributed layer: protocol framing, leases/fencing, equivalence.

The acceptance property mirrors the pool's
(`tests/engine/test_equivalence.py`): a coordinator + N worker nodes
over localhost TCP must merge to the serial report **byte-for-byte**,
including with a node SIGKILLed mid-shard — and a run whose nodes never
return must degrade to honest truncated `Coverage`, not raise and not
lie.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import threading
import time

import pytest

from repro.engine import EngineParams, run_scenario
from repro.engine.chaos import _dist_node_main
from repro.engine.dist import (Channel, Coordinator, DistParams, LeaseTable,
                               Severed, run_node)
from repro.engine.dist.handshake import (REFUSED_EXIT, engine_fingerprint,
                                         handshake_mismatch)
from repro.engine.dist.lease import ACCEPTED, DONE, FAILED, PENDING, STALE
from repro.engine.dist.protocol import PROTOCOL_VERSION, parse_hostport
from repro.engine.faults import Fault, FaultPlan

from ._support import assert_reports_equal, hw_spec

#: Generous bound for CI boxes; localhost runs settle in well under it.
JOIN_TIMEOUT = 60.0


def _chan_pair():
    a, b = socket.socketpair()
    return Channel(a), Channel(b)


def _engine_params(**overrides) -> EngineParams:
    base = dict(exhaustive=True, target_shards=4, max_steps=400,
                heartbeat_interval=0.05)
    base.update(overrides)
    return EngineParams(**base)


def _serial_report():
    return run_scenario(None, EngineParams(exhaustive=True, max_steps=400),
                        spec=hw_spec()).report


def _serve_async(coord: Coordinator):
    box = {}
    thread = threading.Thread(
        target=lambda: box.update(result=coord.serve()), daemon=True)
    thread.start()
    return thread, box


class TestChannel:
    def test_roundtrip(self):
        a, b = _chan_pair()
        a.send("hello", node="n0", pid=17, proto=1)
        assert b.recv(timeout=2.0) == {"t": "hello", "node": "n0",
                                       "pid": 17, "proto": 1}

    def test_reserved_field_names_are_refused(self):
        a, _b = _chan_pair()
        # "crc"/"v" would be clobbered by the line framing and fail the
        # frame CRC on the far side — refuse loudly instead.
        with pytest.raises(ValueError):
            a.send("result", crc=123)
        with pytest.raises(ValueError):
            a.send("result", v=2)

    def test_corrupt_frame_is_skipped_not_trusted(self):
        a, b = _chan_pair()
        a.sock.sendall(b'{"t": "grant", "shard_id": 9, "crc": "bad"}\n')
        a.send("idle", wait=0.1)
        msg = b.recv(timeout=2.0)
        assert msg["t"] == "idle"
        assert b.corrupt == 1

    def test_timeout_returns_none_and_channel_survives(self):
        # Regression: a makefile()-based reader is permanently poisoned
        # by its first timeout; the channel must keep working after one.
        a, b = _chan_pair()
        assert b.recv(timeout=0.05) is None
        a.send("beat", node="n0", shard_id=None, token=0, execs=3)
        assert b.recv(timeout=2.0)["execs"] == 3

    def test_partial_frame_survives_timeout(self):
        a, b = _chan_pair()
        a.send("idle", wait=0.25)
        # Cut a second frame in half across a timeout boundary.
        line = b'{"no": "newline yet"'
        a.sock.sendall(line)
        assert b.recv(timeout=0.5)["t"] == "idle"
        assert b.recv(timeout=0.05) is None
        a.sock.sendall(b', "crc": "00000000"}\n')
        a.send("done")
        # The reassembled middle frame fails its CRC (counted), the
        # trailing frame arrives intact.
        assert b.recv(timeout=2.0)["t"] == "done"
        assert b.corrupt == 1

    def test_eof_raises_connection_error(self):
        a, b = _chan_pair()
        a.close()
        with pytest.raises(ConnectionError):
            b.recv(timeout=2.0)

    def test_parse_hostport(self):
        assert parse_hostport("10.0.0.2:9000", 7671) == ("10.0.0.2", 9000)
        assert parse_hostport("myhost", 7671) == ("myhost", 7671)
        assert parse_hostport(":9000", 7671) == ("127.0.0.1", 9000)

    def test_parse_hostport_ipv6(self):
        # Regression: rpartition(':') parsed '::1' as host '::' port 1
        # and left the brackets on '[::1]:7671'.
        assert parse_hostport("[::1]:9000", 7671) == ("::1", 9000)
        assert parse_hostport("[::1]", 7671) == ("::1", 7671)
        assert parse_hostport("::1", 7671) == ("::1", 7671)
        assert parse_hostport("fe80::2:1", 7671) == ("fe80::2:1", 7671)
        with pytest.raises(ValueError):
            parse_hostport("[::1:9000", 7671)
        with pytest.raises(ValueError):
            parse_hostport("[::1]9000", 7671)


class TestChannelFaults:
    def test_drop_is_one_shot_so_the_resend_lands(self):
        a, b = _chan_pair()
        plan = FaultPlan((Fault("net.send.result", "drop",
                                shard=0, attempt=1),))
        with plan:
            a.send("result", fault_shard=0, fault_attempt=1, shard_id=0)
            assert b.recv(timeout=0.1) is None
            a.send("result", fault_shard=0, fault_attempt=1, shard_id=0)
            assert b.recv(timeout=2.0)["shard_id"] == 0

    def test_duplicate_delivers_two_copies(self):
        a, b = _chan_pair()
        plan = FaultPlan((Fault("net.send.result", "duplicate",
                                shard=1, attempt=1),))
        with plan:
            a.send("result", fault_shard=1, fault_attempt=1, shard_id=1)
        assert b.recv(timeout=2.0)["shard_id"] == 1
        assert b.recv(timeout=2.0)["shard_id"] == 1

    def test_sever_cuts_the_connection(self):
        a, b = _chan_pair()
        plan = FaultPlan((Fault("net.send.result", "sever",
                                shard=2, attempt=1),))
        with plan:
            with pytest.raises(Severed):
                a.send("result", fault_shard=2, fault_attempt=1)
        with pytest.raises(ConnectionError):
            b.recv(timeout=2.0)


class TestLeaseTable:
    def test_grant_is_idempotent_per_node(self):
        table = LeaseTable(3, lease_seconds=10.0, backoff_base=0.0)
        lease = table.grant("a", now=0.0)
        # A lost grant reply means the node re-asks: same lease back,
        # renewed — never a second shard it would silently abandon.
        again = table.grant("a", now=1.0)
        assert again is lease and again.deadline == 11.0

    def test_stale_token_is_fenced(self):
        table = LeaseTable(1, lease_seconds=1.0, backoff_base=0.0)
        old = table.grant("a", now=0.0)
        table.expire(now=5.0)  # node paused past its deadline
        fresh = table.grant("b", now=5.0)
        assert fresh.token > old.token
        # The resurrected node submits under the fenced-off token.
        assert table.complete(0, old.token, "a") == STALE
        assert table.status(0) == PENDING or table.lease_of(0) is fresh
        assert table.complete(0, fresh.token, "b") == ACCEPTED
        assert table.status(0) == DONE

    def test_renew_requires_exact_lease(self):
        table = LeaseTable(1, lease_seconds=1.0, backoff_base=0.0)
        lease = table.grant("a", now=0.0)
        assert not table.renew("b", 0, lease.token, now=0.5)
        assert not table.renew("a", 0, lease.token + 7, now=0.5)
        assert table.renew("a", 0, lease.token, now=0.5)
        assert lease.deadline == 1.5

    def test_requeue_excludes_the_failing_node(self):
        table = LeaseTable(1, max_retries=3, lease_seconds=1.0,
                           backoff_base=0.0)
        lease = table.grant("a", now=0.0)
        table.fail(0, lease.token, "a", now=0.0, reason="boom")
        assert table.grant("a", now=1.0) is None
        assert table.grant("a", now=1.0, lenient=True) is not None

    def test_retry_budget_exhaustion_fails_the_shard(self):
        table = LeaseTable(1, max_retries=1, lease_seconds=1.0,
                           backoff_base=0.0)
        for attempt in (1, 2):
            lease = table.grant("a", now=float(attempt), lenient=True)
            assert lease.attempt == attempt
            table.fail(0, lease.token, "a", now=float(attempt),
                       reason="boom")
        assert table.status(0) == FAILED
        assert table.settled and table.failed_ids == [0]

    def test_all_live_nodes_excluded_grants_leniently(self):
        # Regression: with two nodes and a shard failed once on each,
        # both were excluded and neither could be granted the shard,
        # so it sat PENDING forever and the coordinator never settled.
        table = LeaseTable(1, max_retries=3, lease_seconds=1.0,
                           backoff_base=0.0)
        live = {"a", "b"}
        for node in ("a", "b"):
            lease = table.grant(node, now=0.0, live_nodes=live)
            assert lease is not None
            table.fail(0, lease.token, node, now=0.0, reason="boom")
        assert table.status(0) == PENDING
        # Strict grants still honour the exclusion...
        assert table.grant("a", now=1.0) is None
        # ...but once every live node is excluded, liveness wins.
        lease = table.grant("a", now=1.0, live_nodes=live)
        assert lease is not None and lease.attempt == 3

    def test_partial_exclusion_still_waits_for_the_clean_node(self):
        table = LeaseTable(1, max_retries=3, lease_seconds=1.0,
                           backoff_base=0.0)
        lease = table.grant("a", now=0.0, live_nodes={"a", "b"})
        table.fail(0, lease.token, "a", now=0.0, reason="boom")
        # "b" is live and not excluded: "a" must not take the shard.
        assert table.grant("a", now=1.0, live_nodes={"a", "b"}) is None
        assert table.grant("b", now=1.0, live_nodes={"a", "b"}) is not None

    def test_release_node_requeues_all_its_leases(self):
        table = LeaseTable(4, lease_seconds=10.0, backoff_base=0.0)
        a1, a2 = table.grant("a", 0.0), table.grant("b", 0.0)
        lost = table.release_node("a", now=0.0)
        assert [l.shard_id for l in lost] == [a1.shard_id]
        assert table.status(a1.shard_id) == PENDING
        assert table.lease_of(a2.shard_id) is a2


class TestCoordinatorConnections:
    def test_stale_connection_does_not_release_reconnected_node(self):
        """Regression: _serve_conn's finally ran release_node even when
        the node had already reconnected under the same id, so the dying
        old connection requeued the fresh lease and burned a retry."""
        coord = Coordinator(_engine_params(), hw_spec(),
                            DistParams(lease_seconds=30.0,
                                       node_wait_seconds=30.0))
        acceptor = threading.Thread(target=coord._accept_loop,
                                    daemon=True)
        acceptor.start()
        old = new = None
        try:
            old = Channel(socket.create_connection(
                (coord.host, coord.port), timeout=5.0))
            old.send("hello", node="n0", pid=1, proto=PROTOCOL_VERSION,
                     fp=engine_fingerprint())
            assert old.recv(timeout=5.0)["t"] == "welcome"
            # Same node id reconnects (sever fault, TCP reset) and
            # leases a shard on the fresh connection.
            new = Channel(socket.create_connection(
                (coord.host, coord.port), timeout=5.0))
            new.send("hello", node="n0", pid=1, proto=PROTOCOL_VERSION,
                     fp=engine_fingerprint())
            assert new.recv(timeout=5.0)["t"] == "welcome"
            new.send("want", node="n0")
            grant = new.recv(timeout=5.0)
            assert grant["t"] == "grant"
            # The old connection dies; its serve thread must leave the
            # reconnected node's lease (and retry budget) alone.
            old.close()
            deadline = time.time() + 5.0
            while time.time() < deadline:
                with coord._lock:
                    if "n0" in coord._nodes:
                        break
                time.sleep(0.05)
            time.sleep(0.3)  # let the old serve thread run its finally
            with coord._lock:
                lease = coord.table.lease_of(grant["shard_id"])
                assert lease is not None
                assert lease.token == grant["token"]
                assert coord.table.attempts(grant["shard_id"]) == 1
                assert coord._nodes.get("n0") is not None
        finally:
            coord._stop.set()
            try:
                coord._listener.close()
            except OSError:
                pass
            for ch in (old, new):
                if ch is not None:
                    ch.close()


class TestHandshake:
    def test_matching_fingerprint_is_accepted(self):
        assert handshake_mismatch(_engine_params(),
                                  engine_fingerprint()) is None

    def test_mismatch_reasons_are_one_line(self):
        params = _engine_params()
        fp = engine_fingerprint()
        for bad in (None,
                    {**fp, "models": [m for m in fp["models"]
                                      if m != params.model]},
                    {**fp, "catalog": "deadbeefdeadbeef"},
                    {**fp, "dpor": False}):
            reason = handshake_mismatch(params, bad)
            assert reason, f"expected a refusal for {bad!r}"
            assert "\n" not in reason

    def test_coordinator_refuses_incompatible_node(self):
        """A node presenting a stale catalog hash must be refused at
        connect with a one-line reason, never granted work."""
        coord = Coordinator(_engine_params(), hw_spec(),
                            DistParams(lease_seconds=30.0,
                                       node_wait_seconds=30.0))
        acceptor = threading.Thread(target=coord._accept_loop,
                                    daemon=True)
        acceptor.start()
        ch = legacy = None
        try:
            fp = dict(engine_fingerprint())
            fp["catalog"] = "0000000000000000"
            ch = Channel(socket.create_connection(
                (coord.host, coord.port), timeout=5.0))
            ch.send("hello", node="bad0", pid=1, proto=PROTOCOL_VERSION,
                    fp=fp)
            resp = ch.recv(timeout=5.0)
            assert resp["t"] == "refuse"
            assert "catalog" in resp["reason"]
            # A legacy hello with no fingerprint at all is refused too:
            # no evidence of compatibility is not compatibility.
            legacy = Channel(socket.create_connection(
                (coord.host, coord.port), timeout=5.0))
            legacy.send("hello", node="old0", pid=1,
                        proto=PROTOCOL_VERSION)
            resp = legacy.recv(timeout=5.0)
            assert resp["t"] == "refuse"
            with coord._lock:
                assert "bad0" not in coord._nodes
                assert "old0" not in coord._nodes
            assert coord.reporter.summary.nodes_refused == 2
        finally:
            coord._stop.set()
            try:
                coord._listener.close()
            except OSError:
                pass
            for c in (ch, legacy):
                if c is not None:
                    c.close()

    def test_refused_node_exits_with_refused_exit(self, monkeypatch):
        """`run_node` on a refusal: report the reason once and exit
        `REFUSED_EXIT` immediately — no reconnect storm."""
        import repro.engine.dist.node as node_mod
        stale = dict(engine_fingerprint())
        stale["dpor"] = False
        monkeypatch.setattr(node_mod, "engine_fingerprint", lambda: stale)
        coord = Coordinator(_engine_params(), hw_spec(),
                            DistParams(lease_seconds=30.0,
                                       node_wait_seconds=30.0))
        acceptor = threading.Thread(target=coord._accept_loop,
                                    daemon=True)
        acceptor.start()
        lines = []
        try:
            rc = run_node(coord.host, coord.port, node_id="stale0",
                          emit=lines.append)
        finally:
            coord._stop.set()
            try:
                coord._listener.close()
            except OSError:
                pass
        assert rc == REFUSED_EXIT
        assert any("refused" in line for line in lines)


class TestDistEquivalence:
    def test_two_nodes_match_serial(self):
        serial = _serial_report()
        coord = Coordinator(_engine_params(), hw_spec(),
                            DistParams(lease_seconds=5.0,
                                       node_wait_seconds=20.0))
        thread, box = _serve_async(coord)
        workers = [threading.Thread(
            target=run_node, args=(coord.host, coord.port),
            kwargs={"node_id": f"n{i}", "emit": lambda *_: None},
            daemon=True) for i in range(2)]
        for w in workers:
            w.start()
        thread.join(timeout=JOIN_TIMEOUT)
        assert "result" in box, "coordinator never settled"
        result = box["result"]
        assert_reports_equal(result.report, serial)
        assert not result.coverage.degraded
        assert result.telemetry.nodes_joined == 2

    def test_two_nodes_full_audit_match_serial(self):
        """Audit smoke: every completed shard re-executed in the
        coordinator's trusted process; a clean fleet yields zero
        findings and a byte-equal merge."""
        serial = _serial_report()
        coord = Coordinator(_engine_params(audit_fraction=1.0), hw_spec(),
                            DistParams(lease_seconds=5.0,
                                       node_wait_seconds=20.0))
        thread, box = _serve_async(coord)
        workers = [threading.Thread(
            target=run_node, args=(coord.host, coord.port),
            kwargs={"node_id": f"n{i}", "emit": lambda *_: None},
            daemon=True) for i in range(2)]
        for w in workers:
            w.start()
        thread.join(timeout=JOIN_TIMEOUT)
        assert "result" in box, "coordinator never settled"
        result = box["result"]
        assert_reports_equal(result.report, serial)
        tel = result.telemetry
        assert tel.audits_done >= 4
        assert tel.audit_divergences == 0
        assert not result.coverage.degraded

    def test_straggling_node_rescued_by_shadow_grant(self):
        """Dist hedging: one node pinned inside shard 1 by a slow-worker
        delay; once its lease runs past the adaptive deadline the other
        node gets a shadow grant under a fresh token, wins, and the
        merge stays byte-equal to serial."""
        serial = _serial_report()
        plan = FaultPlan((Fault("hedge.slow_worker", "delay", shard=1,
                                attempt=1, delay_seconds=2.5),))
        with plan:
            coord = Coordinator(
                _engine_params(hedge=True, hedge_floor=0.25,
                               hedge_factor=1.5), hw_spec(),
                DistParams(lease_seconds=10.0, node_wait_seconds=20.0))
            thread, box = _serve_async(coord)
            workers = [threading.Thread(
                target=run_node, args=(coord.host, coord.port),
                kwargs={"node_id": f"n{i}", "emit": lambda *_: None},
                daemon=True) for i in range(2)]
            for w in workers:
                w.start()
            thread.join(timeout=JOIN_TIMEOUT)
        assert "result" in box, "coordinator never settled"
        result = box["result"]
        assert_reports_equal(result.report, serial)
        tel = result.telemetry
        assert tel.hedges_issued >= 1
        assert tel.hedge_wins >= 1
        assert tel.leases_expired == 0

    def test_lying_node_convicted_and_quarantined(self):
        """Dist audit conviction: a node's result blob has a digit
        rotated before the CRC (framing-consistent lie).  The trusted
        re-execution convicts it, the node is refused further grants,
        the trusted result is substituted, and coverage degrades."""
        serial = _serial_report()
        plan = FaultPlan((Fault("pool.flip_result_byte", "corrupt",
                                shard=1, attempt=1),))
        with plan:
            coord = Coordinator(
                _engine_params(audit_fraction=1.0), hw_spec(),
                DistParams(lease_seconds=5.0, node_wait_seconds=20.0))
            thread, box = _serve_async(coord)
            workers = [threading.Thread(
                target=run_node, args=(coord.host, coord.port),
                kwargs={"node_id": f"n{i}", "emit": lambda *_: None},
                daemon=True) for i in range(2)]
            for w in workers:
                w.start()
            thread.join(timeout=JOIN_TIMEOUT)
        assert "result" in box, "coordinator never settled"
        result = box["result"]
        tel = result.telemetry
        assert tel.audit_divergences == 1
        assert tel.workers_quarantined == 1
        assert result.coverage.divergences == 1
        assert result.coverage.degraded
        repaired = result.report
        assert repaired.exhausted is False
        repaired.exhausted = serial.exhausted
        assert_reports_equal(repaired, serial)

    def test_node_sigkilled_mid_shard_merges_exactly(self):
        """The headline invariant: kill a node mid-shard; the lease
        expires, the shard requeues, and the merged report is exactly
        the serial DPOR report."""
        serial = _serial_report()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")
        lease_seconds = 1.0
        # Pin the victim inside shard 0's exploration so the SIGKILL
        # deterministically lands mid-shard.
        plan = FaultPlan((Fault("worker.explore", "hang",
                                shard=0, attempt=1),))
        procs = []
        try:
            with plan:
                coord = Coordinator(
                    _engine_params(), hw_spec(),
                    DistParams(lease_seconds=lease_seconds,
                               node_wait_seconds=30.0))
                thread, box = _serve_async(coord)
                victim = ctx.Process(
                    target=_dist_node_main,
                    args=(coord.host, coord.port, "victim"), daemon=True)
                victim.start()
                procs.append(victim)
                # Let it lease shard 0, hang, and lose the lease.
                time.sleep(lease_seconds + 1.0)
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(timeout=5.0)
                survivor = ctx.Process(
                    target=_dist_node_main,
                    args=(coord.host, coord.port, "survivor"),
                    daemon=True)
                survivor.start()
                procs.append(survivor)
                thread.join(timeout=JOIN_TIMEOUT)
        finally:
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
                proc.join(timeout=5.0)
        assert "result" in box, "coordinator never settled"
        result = box["result"]
        assert_reports_equal(result.report, serial)
        assert not result.coverage.degraded
        assert result.telemetry.leases_expired >= 1
        assert result.telemetry.nodes_lost >= 1

    def test_shard_failing_on_every_node_does_not_starve(self):
        """Regression: a shard that failed once on each of two nodes
        had both excluded; with lenient grants gated on <=1 connected
        node the shard stayed PENDING forever and serve() never
        returned.  It must be re-granted to an excluded node, succeed
        on its final attempt, and merge to the serial report."""
        serial = _serial_report()
        plan = FaultPlan((Fault("worker.explore", "raise",
                                shard=0, attempt=1),
                          Fault("worker.explore", "raise",
                                shard=0, attempt=2)))
        with plan:
            coord = Coordinator(_engine_params(), hw_spec(),
                                DistParams(lease_seconds=5.0,
                                           node_wait_seconds=20.0))
            thread, box = _serve_async(coord)
            workers = [threading.Thread(
                target=run_node, args=(coord.host, coord.port),
                kwargs={"node_id": f"n{i}", "emit": lambda *_: None},
                daemon=True) for i in range(2)]
            for w in workers:
                w.start()
            thread.join(timeout=JOIN_TIMEOUT)
        assert "result" in box, \
            "coordinator wedged: exclusion starved the failing shard"
        result = box["result"]
        assert_reports_equal(result.report, serial)
        assert not result.coverage.degraded
        assert result.telemetry.retries >= 2

    def test_degraded_coverage_when_no_node_ever_joins(self):
        coord = Coordinator(_engine_params(), hw_spec(),
                            DistParams(lease_seconds=1.0,
                                       node_wait_seconds=0.4))
        result = coord.serve()
        assert result.coverage.degraded
        assert result.coverage.shards_complete == 0
        # A degraded run must never claim a universal result.
        assert not result.report.exhausted

    def test_duplicate_result_is_fenced_not_double_counted(self):
        serial = _serial_report()
        plan = FaultPlan((Fault("net.send.result", "duplicate",
                                shard=1, attempt=1),))
        with plan:
            coord = Coordinator(_engine_params(), hw_spec(),
                                DistParams(lease_seconds=5.0,
                                           node_wait_seconds=20.0))
            thread, box = _serve_async(coord)
            worker = threading.Thread(
                target=run_node, args=(coord.host, coord.port),
                kwargs={"node_id": "n0", "emit": lambda *_: None},
                daemon=True)
            worker.start()
            thread.join(timeout=JOIN_TIMEOUT)
        assert "result" in box, "coordinator never settled"
        result = box["result"]
        assert_reports_equal(result.report, serial)
        assert result.telemetry.results_fenced == 1

    def test_checkpoint_resume_skips_done_shards(self, tmp_path):
        serial = _serial_report()
        checkpoint = str(tmp_path / "ckpt.jsonl")
        params = _engine_params(checkpoint_path=checkpoint)
        for _round in range(2):
            coord = Coordinator(params, hw_spec(),
                                DistParams(lease_seconds=5.0,
                                           node_wait_seconds=20.0))
            thread, box = _serve_async(coord)
            worker = threading.Thread(
                target=run_node, args=(coord.host, coord.port),
                kwargs={"node_id": "n0", "emit": lambda *_: None},
                daemon=True)
            worker.start()
            thread.join(timeout=JOIN_TIMEOUT)
            assert "result" in box
            assert_reports_equal(box["result"].report, serial)
        # Second round resumed everything; every execution is
        # attributed to the resume (pid 0), none to a node.
        tel = box["result"].telemetry
        assert tel.shards_resumed == 4
        assert tel.worker_shards == {0: 4}
