"""The coordinator: lease shards to worker nodes, merge honestly.

This is the one scheduler behind every multi-worker run.
`repro.engine.pool.run_scenario` forks local worker nodes on
socketpairs and hands their ends in as already-connected channels;
``python -m repro serve`` and the campaign service accept remote nodes
over TCP instead.  Everything result-determining is shared: the run is
set up by `repro.engine.pool.start_run` (plan, fingerprint, checkpoint
resume) and merged by `repro.engine.pool.RunState.finalize` — which is
why a sharded run is byte-for-byte the serial report, and why a
degraded run (nodes lost, retry budgets spent) reports truncated
`Coverage` instead of lying.

Liveness is the lease table (`repro.engine.dist.lease`) and nothing
else.  A node's in-band beat names the ``(shard_id, token)`` it is
working under and renews exactly that lease.

* A node that dies closes its connection: the EOF requeues only that
  node's own lease, at once.
* A node that hangs stops beating: its lease expires at its deadline
  and the shard is requeued to another node with the hung one
  excluded.  A hung *local* node is also SIGKILLed, reaped and replaced
  by a fresh fork.
* A node that was merely paused and submits after expiry presents a
  fenced-off token and is counted once — as `results_fenced`, not as
  coverage.
* A shard that keeps failing spends its retry budget and is marked
  FAILED: a served run degrades coverage, a local run raises
  `repro.engine.pool.ShardFailed`.

The serve loop sleeps until something can change the outcome: a
result, a failure, a node joining or lost, a new lease, or the next
lease or run deadline.
"""

from __future__ import annotations

import math
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ...checking.runner import ScenarioReport
from .. import pool as engine_pool
from ..audit import (AuditLog, AuditSampler, audit_shard, divergence_witness,
                     report_fingerprint)
from ..corpus import CorpusEntry
from ..hedge import HEDGE_ATTEMPT_BASE, DeadlineEstimator
from ..pool import (RUN_BUDGET_SPENT, EngineParams, EngineResult,
                    ResultCorrupt, RunState, ShardFailed, start_run)
from ..registry import ScenarioSpec, build_scenario
from .handshake import handshake_mismatch
from .lease import ACCEPTED, FAILED, Lease, LeaseTable
from .node import LocalNodes
from .protocol import (MSG_BEAT, MSG_DONE, MSG_FAIL, MSG_GRANT, MSG_HELLO,
                       MSG_IDLE, MSG_REFUSE, MSG_RESULT, MSG_WANT,
                       MSG_WELCOME, PROTOCOL_VERSION, Channel)

#: Seconds a fresh connection may take to say ``hello`` (a spawned
#: local node imports the engine first).
HELLO_TIMEOUT = 30.0
#: Seconds local nodes told ``done`` get to exit before being killed.
LOCAL_EXIT_GRACE = 1.0


@dataclass
class DistParams:
    """Coordinator-side knobs; nothing here affects the merged report."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 -> ephemeral; the bound port is `Coordinator.port`
    lease_seconds: float = 10.0
    #: How long to keep waiting with zero connected nodes before
    #: degrading to a truncated-coverage result.
    node_wait_seconds: float = 30.0
    idle_wait: float = 0.25


class Coordinator:
    """Serve one scenario's shards to worker nodes and merge the run.

    Remote runs pass a registry ``spec`` and accept nodes on a TCP
    listener.  Local runs (`repro.engine.pool.run_scenario`) pass the
    already-started ``run``, the `LocalNodes` that forked the nodes,
    and the coordinator's ends of their socketpairs as ``channels``.
    """

    def __init__(self, params: EngineParams, spec: Optional[ScenarioSpec],
                 dist: Optional[DistParams] = None,
                 listener: Optional[socket.socket] = None,
                 on_event: Optional[Callable[..., None]] = None,
                 token_floor: int = 0, run: Optional[RunState] = None,
                 local: Optional[LocalNodes] = None,
                 channels: Sequence[Channel] = ()):
        if spec is None and local is None:
            raise ValueError("distributed runs need a registry spec: "
                             "nodes rebuild the scenario from its "
                             "to_json() form")
        self.params = params
        self.spec = spec
        self.dist = dist or DistParams()
        if run is None:
            scenario = build_scenario(spec)
            run = start_run(scenario, spec, params,
                            label=f"dist:{scenario.name}")
        self.run = run
        self.scenario = run.scenario
        self.shards = run.shards
        self.results = run.results
        self.reporter = reporter = run.reporter

        def on_requeue(lease: Lease, reason: str) -> None:
            # Every spent attempt — a failure, a corrupt result, an
            # expired lease, a lost node — is one retry.  A closure over
            # the reporter, not a bound method: the table must not keep
            # the coordinator alive in a reference cycle.
            reporter.on_retry(lease.shard_id, lease.attempt, reason)

        self.table = LeaseTable(len(self.shards),
                                max_retries=params.max_retries,
                                lease_seconds=self.dist.lease_seconds,
                                backoff_base=params.retry_backoff,
                                token_floor=token_floor,
                                on_requeue=on_requeue)
        for sid in self.results:
            self.table.mark_done(sid)
        # Observability hook for the campaign service: called as
        # ``on_event(kind, **fields)`` with kinds "grant" (a fresh lease
        # is about to go on the wire), "merge" (a result was accepted
        # and merged), and "settled" (about to finalize) — so a WAL can
        # record the transition *before* the action it describes.
        self._on_event = on_event or (lambda kind, **fields: None)
        self._grant_seen: set = set()
        # Hedging (`repro.engine.hedge`): per-grant dispatch times feed
        # the deadline estimator; stragglers get a *shadow grant* — a
        # duplicate dispatched under a fresh fencing token but outside
        # the lease table, so whichever copy submits second fails the
        # exact-(node, token) check and is fenced.
        self._hedger = (DeadlineEstimator(quantile=params.hedge_quantile,
                                          factor=params.hedge_factor,
                                          floor=params.hedge_floor,
                                          seed=params.seed)
                        if params.hedge else None)
        self._lease_started: Dict[Tuple[int, int], float] = {}
        self._shadow: Dict[int, Tuple[int, str]] = {}
        self._hedge_won: set = set()
        # Audit (`repro.engine.audit`): sampled shards are re-executed
        # in this (trusted) process; a node whose result diverges is
        # quarantined — no further grants, its leases requeued.
        self._audit_log = (AuditLog(AuditSampler(params.audit_fraction,
                                                 params.seed))
                           if params.audit_fraction > 0 else None)
        self._audit_queue: List[Tuple[int, ScenarioReport, str]] = []
        self._quarantined: set = set()
        self._draining = threading.Event()
        self._cancelled = threading.Event()
        self._lock = threading.Lock()
        self._nodes: Dict[str, Channel] = {}
        self._stop = threading.Event()
        # Set after every state change the serve loop must react to.
        self._wake = threading.Event()
        # The first unexpected error of a connection thread (a failed
        # checkpoint write, say): `serve` stops and re-raises it rather
        # than wait on a lease nobody will settle.
        self._error: Optional[BaseException] = None
        self._threads: List[threading.Thread] = []
        self._local = local
        self._channels = list(channels)
        # Local nodes lost mid-lease, awaiting reaping and replacement.
        self._lost_local: List[str] = []
        self._listener = listener
        # The campaign daemon keeps one node port alive across many
        # runs: it injects its own bound listener, which the run must
        # borrow (stop accepting on shutdown) but never close.
        self._owns_listener = listener is None and local is None
        if self._owns_listener:
            self._listener = socket.socket(socket.AF_INET,
                                           socket.SOCK_STREAM)
            self._listener.setsockopt(socket.SOL_SOCKET,
                                      socket.SO_REUSEADDR, 1)
            self._listener.bind((self.dist.host, self.dist.port))
            self._listener.listen()
        self.host, self.port = (self._listener.getsockname()[:2]
                                if self._listener is not None
                                else (None, None))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def serve(self) -> EngineResult:
        """Serve nodes, lease shards until settled, merge, return."""
        for ch in self._channels:
            self._start_conn(ch)
        self._channels = []
        if self._listener is not None:
            self._acceptor = threading.Thread(target=self._accept_loop,
                                              name="dist-accept",
                                              daemon=True)
            self._acceptor.start()
        last_node_seen = time.time()
        try:
            while True:
                self._wake.clear()
                # Audits run on the serve thread, outside the lock: a
                # re-execution must never stall heartbeat renewals.
                self._run_audits()
                if self._cancelled.is_set() or self._error is not None:
                    break
                now = time.time()
                with self._lock:
                    hung = self._expire(now)
                    if self._finished(now):
                        break
                    have_nodes = bool(self._nodes)
                    timeout = self._next_deadline(now)
                self._replace_local(hung, now)
                if have_nodes:
                    last_node_seen = now
                else:
                    idle = now - last_node_seen
                    if idle >= self.dist.node_wait_seconds:
                        break  # degrade: merge what came back
                    left = self.dist.node_wait_seconds - idle
                    timeout = left if timeout is None \
                        else min(timeout, left)
                self._wake.wait(timeout)
        finally:
            self._shutdown()
        if self._error is not None:
            raise self._error
        # Results accepted on the loop's final pass may still be queued
        # for audit: screen them before the merge is finalized.
        self._run_audits()
        with self._lock:
            out_of_time = self.run.out_of_time()
            for sid in range(len(self.shards)):
                if sid in self.results:
                    continue
                if self.table.status(sid) == FAILED:
                    reason = self.table.failure_reason(sid)
                elif out_of_time:
                    reason = RUN_BUDGET_SPENT
                else:
                    reason = "no live node returned this shard"
                if self._local is not None and reason != RUN_BUDGET_SPENT:
                    raise ShardFailed(
                        f"shard {sid} ({self.shards[sid]}) failed "
                        f"{self.table.attempts(sid)} times: {reason}")
                self.reporter.on_skipped(sid, reason)
            self._on_event("settled", settled=self.table.settled,
                           drained=self._draining.is_set(),
                           cancelled=self._cancelled.is_set())
            return self.run.finalize(self._audit_log)

    def _expire(self, now: float) -> List[Lease]:
        """Requeue expired leases; return those held by local nodes,
        which are hung and must be killed.  Caller holds the lock."""
        hung = []
        for lease in self.table.expire(now):
            self.reporter.on_lease_expired(lease.shard_id, lease.node_id)
            if self._local is not None and lease.node_id in self._local:
                hung.append(lease)
        return hung

    def _finished(self, now: float) -> bool:
        """Nothing left to wait for.  Caller holds the lock."""
        if self._audit_queue:
            return False
        if self.table.settled:
            return True
        if self._local is not None and self.table.failed_ids:
            return True  # a local run raises ShardFailed: stop early
        stopping = self._draining.is_set() or self.run.out_of_time(now)
        # Past the run deadline no lease is granted; in-flight ones stop
        # themselves at the same deadline and come home partial.
        return stopping and not self.table.leases

    def _next_deadline(self, now: float) -> Optional[float]:
        """Seconds until the next lease or run deadline (None = none).
        Caller holds the lock."""
        times = [lease.deadline for lease in self.table.leases]
        if self.run.deadline is not None and now < self.run.deadline:
            times.append(self.run.deadline)
        times = [t for t in times if math.isfinite(t)]
        return max(min(times) - now, 0.0) if times else None

    def _replace_local(self, hung: List[Lease], now: float) -> None:
        """Kill hung local nodes, reap lost ones, fork replacements."""
        if self._local is None:
            return
        for lease in hung:
            pid = self._local.kill(lease.node_id)
            with self._lock:
                self.reporter.on_hung_worker(
                    pid, lease.shard_id,
                    now - lease.deadline + self.dist.lease_seconds)
            self._spawn_local()
        with self._lock:
            lost, self._lost_local = self._lost_local, []
        for node_id in lost:
            self._local.kill(node_id)
            self._spawn_local()

    def _spawn_local(self) -> None:
        # Forked under the lock: no other thread is then mid-way through
        # a reporter line or a table update, and the child never takes
        # the lock it inherits.
        with self._lock:
            if self._stop.is_set() or self.table.settled:
                return
            ch = self._local.spawn()
        self._start_conn(ch)

    def drain(self) -> None:
        """Stop granting new leases; `serve` returns once every
        in-flight lease has completed, failed, or expired."""
        if not self._draining.is_set():
            self._draining.set()
            self.reporter.on_drain()
        self._wake.set()

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def cancel(self) -> None:
        """Stop now: abandon in-flight leases and merge what came back."""
        self._cancelled.set()
        self._wake.set()

    def _shutdown(self) -> None:
        self._stop.set()
        if self._owns_listener:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._lock:
            channels = list(self._nodes.values())
        for ch in channels:
            try:
                ch.send(MSG_DONE)
            except ConnectionError:
                pass
        if self._local is not None:
            self._local.close(LOCAL_EXIT_GRACE)
        for thread in self._threads:
            thread.join(timeout=2.0)
        # A borrowed listener outlives this run: the next run must not
        # race this one's acceptor for it, so wait the acceptor out.
        acceptor = getattr(self, "_acceptor", None)
        if acceptor is not None:
            acceptor.join(timeout=2.0)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        self._listener.settimeout(0.2)
        while not self._stop.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._start_conn(Channel(conn))

    def _start_conn(self, ch: Channel) -> None:
        thread = threading.Thread(target=self._serve_conn, args=(ch,),
                                  name="dist-conn", daemon=True)
        self._threads.append(thread)
        thread.start()

    def _serve_conn(self, ch: Channel) -> None:
        node_id = None
        try:
            hello = ch.recv(timeout=HELLO_TIMEOUT)
            if (hello is None or hello.get("t") != MSG_HELLO
                    or hello.get("proto") != PROTOCOL_VERSION):
                return
            node_id = str(hello["node"])
            reason = handshake_mismatch(self.params, hello.get("fp"))
            if reason is not None:
                # A node built from different code would return well-
                # formed results that are simply wrong: refuse it with
                # the reason on the wire, before any grant.
                with self._lock:
                    self.reporter.on_node_refused(node_id, reason)
                ch.send(MSG_REFUSE, reason=reason)
                node_id = None
                return
            with self._lock:
                self._nodes[node_id] = ch
                self.reporter.on_node_joined(node_id)
                self._wake.set()
            ch.send(MSG_WELCOME,
                    spec=self.spec.to_json() if self.spec else None,
                    params=self.params.wire_json(),
                    lease=self.dist.lease_seconds,
                    heartbeat=self.params.heartbeat_interval)
            while not self._stop.is_set():
                msg = ch.recv(timeout=0.5)
                if msg is None:
                    continue
                self._dispatch(ch, node_id, msg)
        except ConnectionError:
            pass
        except Exception as err:  # noqa: BLE001 — handed to `serve`
            if self._error is None:
                self._error = err
            self._wake.set()
        finally:
            if node_id is not None:
                with self._lock:
                    # Only the node's *current* channel may release its
                    # leases: a node that reconnected under the same id
                    # (sever fault, TCP reset) must not have its fresh
                    # lease requeued by the dying old connection.  A
                    # node leaving after shutdown began was *told* to go
                    # (`done`): that is a graceful exit, not a loss.
                    if self._nodes.get(node_id) is ch:
                        del self._nodes[node_id]
                        if not self._stop.is_set():
                            self._release(node_id)
            ch.close()

    def _release(self, node_id: str) -> None:
        """A node's connection is gone mid-run: requeue its leases.
        Caller holds the lock."""
        lost = self.table.release_node(node_id, time.time())
        # Shadow grants the dead node held are retired so a later
        # straggler can be hedged afresh.
        for sid, (_tok, nid) in list(self._shadow.items()):
            if nid == node_id:
                del self._shadow[sid]
        if not self.table.settled:
            self.reporter.on_node_lost(
                node_id, f"connection lost ({len(lost)} leases requeued)")
        if lost and self._local is not None and node_id in self._local:
            self._lost_local.append(node_id)
        self._wake.set()

    def _dispatch(self, ch: Channel, node_id: str, msg: Dict) -> None:
        mtype = msg.get("t")
        if mtype == MSG_WANT:
            self._on_want(ch, node_id)
        elif mtype == MSG_BEAT:
            if msg.get("shard_id") is not None:
                with self._lock:
                    self.table.renew(node_id, msg["shard_id"],
                                     msg["token"], time.time())
        elif mtype == MSG_RESULT:
            self._on_result(node_id, msg)
            self._wake.set()
        elif mtype == MSG_FAIL:
            self._on_fail(node_id, msg)
            self._wake.set()

    def _on_want(self, ch: Channel, node_id: str) -> None:
        shadow = None
        with self._lock:
            if self._draining.is_set() or self._cancelled.is_set() \
                    or self.run.out_of_time():
                # Draining, or the run budget is spent: no fresh grants,
                # only in-flight leases may finish.  IDLE (not DONE) so
                # the node stays attached until `_shutdown` dismisses
                # everyone together.
                ch.send(MSG_IDLE, wait=self.dist.idle_wait)
                return
            if node_id in self._quarantined:
                # A convicted node gets no further work — IDLE, never
                # DONE, so the honest fleet finishes the run around it.
                ch.send(MSG_IDLE, wait=self.dist.idle_wait)
                return
            now = time.time()
            # Exclusion must not starve a requeued shard: the table
            # grants a shard back to an excluded node once every live
            # node is excluded from it (spending a retry, so a
            # deterministic crasher still degrades to FAILED).
            lease = self.table.grant(
                node_id, now,
                live_nodes=set(self._nodes) - self._quarantined)
            settled = self.table.settled
            if lease is not None \
                    and (lease.shard_id, lease.token) not in self._grant_seen:
                # Log the grant exactly once per lease *before* it goes
                # on the wire (grant replies are idempotent per node,
                # so a re-sent lease must not double-log).
                self._grant_seen.add((lease.shard_id, lease.token))
                self._on_event("grant", shard=lease.shard_id,
                               token=lease.token, attempt=lease.attempt,
                               node=node_id)
                self._lease_started[(lease.shard_id, lease.token)] = now
                self._wake.set()  # a new lease deadline to watch
            if lease is None and not settled:
                # An idle node with stragglers in flight is exactly the
                # spare capacity hedging wants to spend.
                shadow = self._maybe_shadow(node_id, now)
        if shadow is not None:
            self._send_grant(ch, *shadow)
            return
        if lease is None:
            ch.send(MSG_DONE if settled else MSG_IDLE,
                    wait=self.dist.idle_wait)
            return
        self._send_grant(ch, lease.shard_id, lease.token, lease.attempt)

    def _send_grant(self, ch: Channel, sid: int, token: int,
                    attempt: int) -> None:
        # The run budget travels as seconds left, so node clocks need
        # not agree with ours.
        deadline = self.run.deadline
        run_left = (max(deadline - time.time(), 0.0)
                    if deadline is not None else None)
        ch.send(MSG_GRANT, fault_shard=sid, fault_attempt=attempt,
                shard_id=sid, shard=self.shards[sid].to_json(),
                token=token, attempt=attempt, run_left=run_left)

    def _maybe_shadow(self, node_id: str,
                      now: float) -> Optional[Tuple[int, int, int]]:
        """Issue a shadow grant for the slowest straggler, if any is
        past the adaptive deadline.  Caller holds the lock."""
        if self._hedger is None:
            return None
        deadline = self._hedger.deadline()
        if deadline is None:
            return None  # no completed shards yet: nothing to estimate
        worst: Optional[Tuple[float, int, int]] = None
        for lease in self.table.leases:
            sid = lease.shard_id
            if sid in self._shadow or sid in self.results \
                    or lease.node_id == node_id:
                continue
            started = self._lease_started.get((sid, lease.token))
            if started is None:
                continue
            elapsed = now - started
            if elapsed > deadline \
                    and (worst is None or elapsed > worst[0]):
                worst = (elapsed, sid, lease.attempt)
        if worst is None:
            return None
        elapsed, sid, attempt = worst
        token = self.table.issue_token()
        hedge_attempt = HEDGE_ATTEMPT_BASE + attempt
        self._shadow[sid] = (token, node_id)
        self._lease_started[(sid, token)] = now
        # Shadow tokens go through the same WAL channel as leases: a
        # restarted coordinator's token floor must clear them too.
        self._on_event("grant", shard=sid, token=token,
                       attempt=hedge_attempt, node=node_id)
        self.reporter.on_hedge(sid, elapsed, deadline)
        return (sid, token, hedge_attempt)

    def _on_result(self, node_id: str, msg: Dict) -> None:
        sid, token = msg["shard_id"], msg["token"]
        with self._lock:
            shadow = self._shadow.get(sid)
            is_shadow = shadow is not None and shadow[0] == token
            # Decode *before* settling the lease: a corrupt blob must
            # spend a retry, not permanently settle the shard as done.
            # Looked up on the module so the benchmark tracer sees it.
            try:
                report, entries = engine_pool._decode_result(
                    sid, msg["blob"], msg["blob_crc"])
            except ResultCorrupt:
                self.reporter.on_corrupt_result(sid)
                if is_shadow:
                    # A corrupt duplicate just retires the hedge; the
                    # primary lease is untouched.
                    del self._shadow[sid]
                else:
                    self.table.fail(sid, token, node_id, time.time(),
                                    "result failed its CRC check")
                return
            if is_shadow:
                del self._shadow[sid]
                if sid in self.results:
                    # The primary beat its duplicate home; the hedge's
                    # price is known once the loser lands.
                    self.reporter.summary.hedge_wasted_execs += \
                        report.executions
                    return
                # The duplicate wins: popping the primary lease is what
                # fences the straggler — its later submission matches no
                # current lease and is rejected STALE below.
                self.table.mark_done(sid)
                self._hedge_won.add(sid)
                self.reporter.on_hedge_win(sid)
                self._complete(sid, report, entries,
                               int(msg.get("pid", 0)), token, node_id)
                return
            verdict = self.table.complete(sid, token, node_id)
            if verdict != ACCEPTED:
                # A resurrected node's stale submission — or the fenced
                # straggler of a won hedge: either way, counted once.
                self.reporter.on_fenced(sid, node_id)
                if sid in self._hedge_won:
                    self._hedge_won.discard(sid)
                    self.reporter.summary.hedge_wasted_execs += \
                        report.executions
                return
            if sid in self._shadow:
                # The original dispatch won after all; the duplicate in
                # flight is a loser (its execs are charged on landing).
                self.reporter.on_hedge_loss(sid)
            self._complete(sid, report, entries, int(msg.get("pid", 0)),
                           token, node_id)

    def _on_fail(self, node_id: str, msg: Dict) -> None:
        sid, token = msg["shard_id"], msg["token"]
        error = str(msg.get("error", "unknown error"))
        with self._lock:
            if not self.table.fail(sid, token, node_id, time.time(),
                                   error):
                self.reporter.on_fenced(sid, node_id)

    def _complete(self, sid: int, report: ScenarioReport,
                  entries: List[CorpusEntry], pid: int,
                  token: int = 0, node_id: str = "") -> None:
        self._on_event("merge", shard=sid, token=token,
                       executions=report.executions)
        started = self._lease_started.pop((sid, token), None)
        if self._hedger is not None and started is not None:
            self._hedger.observe(time.time() - started)
        self.run.complete(sid, report, entries, pid)
        if self._audit_log is not None \
                and self._audit_log.sampler.should_audit(sid):
            self._audit_queue.append((sid, report, node_id))

    def _run_audits(self) -> None:
        """Re-execute queued sampled shards in this (trusted) process.

        Runs on the serve thread with the lock dropped around each
        re-execution — exploration can take seconds, and heartbeat
        renewals must keep flowing meanwhile.  A divergence convicts
        the origin node: the trusted result replaces its lie in the
        merge (and in the checkpoint — replay is last-record-wins), the
        node is quarantined from further grants (a local node is killed
        and replaced: process identity is not recoverable), and a
        replayable witness is registered for the corpus.
        """
        if self._audit_log is None:
            return
        while True:
            with self._lock:
                if not self._audit_queue:
                    return
                sid, report, node_id = self._audit_queue.pop(0)
            observed_fp = report_fingerprint(report)
            trusted, finding = audit_shard(
                self.scenario, self.spec, self.shards[sid], self.params,
                sid, report, observed_fp,
                worker=f"node {node_id or '?'}")
            convicted = False
            with self._lock:
                self._audit_log.audits_done += 1
                self.reporter.on_audit(sid, finding is not None)
                if finding is None:
                    continue
                self._audit_log.findings.append(finding)
                self._audit_log.witnesses.append(
                    divergence_witness(finding, self.spec, self.params))
                self._on_event("divergence", shard=sid, node=node_id,
                               finding=finding.to_json())
                self.run.replace(sid, *trusted)
                if node_id and node_id not in self._quarantined:
                    convicted = True
                    self._quarantined.add(node_id)
                    self._audit_log.quarantined.append(node_id)
                    self.reporter.on_worker_quarantined(
                        f"node {node_id}", finding.describe())
                    for lease in self.table.release_node(node_id,
                                                         time.time()):
                        self.reporter.on_lease_expired(lease.shard_id,
                                                       node_id)
            if convicted and self._local is not None \
                    and node_id in self._local:
                self._local.kill(node_id)
                self._spawn_local()


def serve_scenario(params: EngineParams, spec: ScenarioSpec,
                   dist: Optional[DistParams] = None,
                   on_listening=None) -> EngineResult:
    """One-call coordinator: bind, serve until settled, merge."""
    coord = Coordinator(params, spec, dist)
    if on_listening is not None:
        on_listening(coord.host, coord.port)
    return coord.serve()
