"""The worker node: the engine's single-shard path behind a socket.

A node is deliberately thin — introduce itself, then loop
``want -> grant -> explore -> result``.  Exploration is literally
`repro.engine.pool._explore_shard`, with the heartbeat duck-type
(`NetBeat`) streaming beats *upstream* over the channel, each naming
the ``(shard_id, token)`` lease it renews — so a lease the node never
learned about is never renewed.  The result blob is CRC'd JSON
(including the in-flight-corruption fault site ``worker.result``), so
the coordinator's integrity check is one code path for every node.

Nodes come in two shapes that run the same loop (`_serve_grants`):

* a **remote** node (`run_node`, ``python -m repro work``) connects
  over TCP and reconnects with jittered exponential backoff on any
  connection error; the coordinator requeues our lease when it
  notices, and any result we submit from before the drop is fenced off
  by its stale token;
* a **local** node (`LocalNodes`) is a child process forked by
  `repro.engine.pool.run_scenario` on one end of a ``socketpair()``;
  the coordinator holds the other end.  A forked node uses the
  inherited `Scenario`, so ad-hoc scenarios without a registry spec
  work too; under ``spawn`` it rebuilds the scenario from the spec in
  the welcome.

An exploration error becomes an explicit ``fail`` message (spending a
retry on the coordinator) rather than a silent drop, so a
deterministically poisoned shard cannot loop forever.
"""

from __future__ import annotations

import json
import os
import socket
import time
import zlib
from typing import Callable, Dict, Optional

from ..faults import flip_result_digit, mutate_blob
from ..merge import report_to_json
from ..pool import EngineParams, _explore_shard
from ..registry import ScenarioSpec, build_scenario
from ..retry import RetryPolicy
from ..shard import Shard
from .handshake import REFUSED_EXIT, engine_fingerprint
from .protocol import (MSG_BEAT, MSG_DONE, MSG_FAIL, MSG_GRANT, MSG_HELLO,
                       MSG_IDLE, MSG_REFUSE, MSG_RESULT, MSG_WANT,
                       MSG_WELCOME, PROTOCOL_VERSION, Channel)


class Refused(Exception):
    """The coordinator refused this node at handshake (version skew)."""


class NetBeat:
    """Heartbeat duck-type streaming beats upstream over the channel."""

    def __init__(self, channel: Channel, node_id: str, shard_id: int,
                 token: int, interval: float):
        self._channel = channel
        self._node_id = node_id
        self._shard_id = shard_id
        self._token = token
        self._interval = interval
        self._last = 0.0

    def beat(self, shard: int, execs: int, force: bool = False) -> None:
        now = time.monotonic()
        if not force and now - self._last < self._interval:
            return
        self._last = now
        self._channel.send(MSG_BEAT, node=self._node_id,
                           shard_id=self._shard_id, token=self._token,
                           execs=execs)


def _default_node_id() -> str:
    return f"{socket.gethostname()}:{os.getpid()}"


def _serve_grants(ch: Channel, node_id: str, emit: Callable,
                  scenario=None) -> bool:
    """Work one connection until ``done``; True means run finished.

    ``scenario`` is a local node's inherited `Scenario`; without one
    the node builds it from the registry spec in the welcome.
    """
    ch.send(MSG_HELLO, node=node_id, pid=os.getpid(),
            proto=PROTOCOL_VERSION, fp=engine_fingerprint())
    welcome = ch.recv(timeout=10.0)
    if welcome is not None and welcome.get("t") == MSG_REFUSE:
        raise Refused(str(welcome.get("reason", "incompatible node")))
    if welcome is None or welcome.get("t") != MSG_WELCOME:
        raise ConnectionError("no welcome from coordinator")
    spec = (ScenarioSpec.from_json(welcome["spec"])
            if welcome.get("spec") is not None else None)
    params = EngineParams.from_wire(welcome["params"])
    heartbeat = float(welcome.get("heartbeat", 0.25))
    if scenario is None:
        scenario = build_scenario(spec)
    while True:
        ch.send(MSG_WANT, node=node_id)
        # A short reply window on purpose: a grant lost in flight is
        # recovered by re-asking — the coordinator re-grants the same
        # lease idempotently — so waiting longer only adds stall.
        msg = ch.recv(timeout=2.0)
        if msg is None:
            continue  # reply lost or coordinator busy; re-ask
        mtype = msg.get("t")
        if mtype == MSG_DONE:
            return True
        if mtype == MSG_IDLE:
            # Wait out the idle hint on the channel, not in a sleep: the
            # coordinator's ``done`` ends the wait at once.  Anything
            # else that arrives is dropped and recovered by re-asking.
            msg = ch.recv(timeout=float(msg.get("wait", 0.25)))
            if msg is not None and msg.get("t") == MSG_DONE:
                return True
            continue
        if mtype != MSG_GRANT:
            continue
        sid = int(msg["shard_id"])
        token = int(msg["token"])
        attempt = int(msg.get("attempt", 1))
        shard = Shard.from_json(msg["shard"])
        # The run budget arrives as seconds left, not as a timestamp,
        # so this node's clock need not agree with the coordinator's.
        run_left = msg.get("run_left")
        deadline = (time.time() + float(run_left)
                    if run_left is not None else None)
        emit(f"[node {node_id}] shard {sid} leased "
             f"(token {token}, attempt {attempt})")
        beat = NetBeat(ch, node_id, sid, token, heartbeat)
        try:
            report, entries = _explore_shard(scenario, spec, shard,
                                             params, shard_id=sid,
                                             attempt=attempt,
                                             deadline=deadline, beat=beat)
        except ConnectionError:
            raise  # a severed beat: reconnect, lease will be requeued
        except Exception as err:  # noqa: BLE001 — spend a retry upstream
            ch.send(MSG_FAIL, fault_shard=sid, fault_attempt=attempt,
                    node=node_id, shard_id=sid, token=token,
                    error=repr(err))
            continue
        payload = {"report": report_to_json(report),
                   "corpus": [e.to_json() for e in entries]}
        blob = json.dumps(payload, sort_keys=True)
        # The lying-executor fault site: the blob is damaged *before*
        # the CRC is taken, so the frame and the integrity check both
        # pass — only the audit layer's re-execution can catch it.
        blob = flip_result_digit("pool.flip_result_byte", blob,
                                 shard=sid, attempt=attempt)
        crc = zlib.crc32(blob.encode("utf-8"))
        # The in-flight-damage fault site: the CRC is taken first, so
        # injected corruption must be caught by the coordinator's
        # check, never merged.
        blob = mutate_blob("worker.result", blob, shard=sid,
                           attempt=attempt)
        ch.send(MSG_RESULT, fault_shard=sid, fault_attempt=attempt,
                node=node_id, shard_id=sid, token=token, attempt=attempt,
                blob=blob, blob_crc=crc, pid=os.getpid())


def run_node(host: str, port: int, node_id: Optional[str] = None,
             max_reconnects: int = 8, reconnect_base: float = 0.2,
             emit: Callable = print) -> int:
    """Work for ``host:port`` until the coordinator says ``done``.

    Reconnects with jittered exponential backoff on any connection
    failure (including injected ``sever`` faults); gives up — exit
    code 1 — once ``max_reconnects`` consecutive attempts fail to
    reach a coordinator.  A handshake refusal (engine-fingerprint
    mismatch) exits immediately with `REFUSED_EXIT` and no reconnect:
    a refused build stays refused.
    """
    node_id = node_id or _default_node_id()
    # The same reconnect discipline the service client uses
    # (`repro.engine.retry.RECONNECT_POLICY` shape), parameterized by
    # this node's CLI knobs; attempts is a budget of *consecutive*
    # failures, reset on every successful connection.
    policy = RetryPolicy(attempts=max_reconnects + 1,
                         base=reconnect_base, cap=5.0)
    failures = 0
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=5.0)
        except OSError:
            failures += 1
            if failures > max_reconnects:
                emit(f"[node {node_id}] giving up after "
                     f"{failures - 1} reconnect attempts")
                return 1
            policy.sleep(failures, key=f"node-{node_id}")
            continue
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(None)
        failures = 0  # reachable again: the give-up budget resets
        ch = Channel(sock)
        try:
            if _serve_grants(ch, node_id, emit):
                emit(f"[node {node_id}] coordinator done; exiting")
                return 0
        except Refused as err:
            emit(f"[node {node_id}] refused by coordinator: {err}")
            return REFUSED_EXIT
        except ConnectionError as err:
            failures += 1
            emit(f"[node {node_id}] connection lost ({err}); "
                 f"reconnect {failures}/{max_reconnects}")
            if failures > max_reconnects:
                return 1
            policy.sleep(failures, key=f"node-{node_id}")
        finally:
            ch.close()


def _local_node_main(sock: socket.socket, node_id: str, scenario,
                     inherited) -> None:
    """Body of a local node process: serve grants until ``done``."""
    # A forked child holds copies of the coordinator's ends of every
    # node's socketpair, its own included: close them, or a dead
    # coordinator would never read as EOF to the surviving nodes.
    for other in inherited:
        other.close()
    ch = Channel(sock)
    try:
        _serve_grants(ch, node_id, emit=lambda *_args: None,
                      scenario=scenario)
    except ConnectionError:
        pass  # the coordinator is gone: nothing is left to serve
    finally:
        ch.close()


class LocalNodes:
    """Worker node processes on this machine, one socketpair each.

    `spawn` starts a node and returns the coordinator's end as an
    already-connected `Channel`; the coordinator needs no listener and
    no acceptor.  Only the coordinator's serve thread starts or kills
    nodes, and a node process touches none of the coordinator's locks,
    so replacements may be forked while coordinator threads run.
    """

    def __init__(self, ctx, scenario):
        self._ctx = ctx
        self._fork = ctx.get_start_method() == "fork"
        # Forked nodes inherit the scenario by memory; spawned ones
        # rebuild it from the welcome's registry spec.
        self._scenario = scenario if self._fork else None
        self._procs: Dict[str, object] = {}
        self._ends: Dict[str, socket.socket] = {}
        self._count = 0

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._procs

    def spawn(self) -> Channel:
        node_id = f"local-{self._count}"
        self._count += 1
        ours, theirs = socket.socketpair()
        inherited = [*self._ends.values(), ours] if self._fork else []
        proc = self._ctx.Process(
            target=_local_node_main, name=f"repro-{node_id}",
            args=(theirs, node_id, self._scenario, inherited), daemon=True)
        proc.start()
        theirs.close()
        self._procs[node_id] = proc
        self._ends[node_id] = ours
        return Channel(ours)

    def kill(self, node_id: str) -> int:
        """SIGKILL and reap one node; returns its pid (0 if unknown)."""
        self._ends.pop(node_id, None)
        proc = self._procs.pop(node_id, None)
        if proc is None:
            return 0
        proc.kill()
        proc.join()
        return proc.pid or 0

    def close(self, grace: float) -> None:
        """Reap every node: wait up to ``grace`` seconds for those told
        ``done`` to exit, then SIGKILL whatever is still running (a
        hedge's losing copy, or a node mid-shard when the run ended)."""
        for end in self._ends.values():
            # EOF after any queued ``done``: a node that never got to
            # say hello stops waiting for its welcome at once.
            try:
                end.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        end = time.monotonic() + grace
        for proc in self._procs.values():
            proc.join(max(end - time.monotonic(), 0.0))
        for node_id in list(self._procs):
            self.kill(node_id)
