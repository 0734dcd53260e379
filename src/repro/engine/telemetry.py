"""Run telemetry: one event stream, its counters and progress lines.

Everything the engine reports about a run goes through one call,
``ProgressReporter.emit(kind, **fields)``.  The `EVENTS` table says,
for each kind, which `TelemetrySummary` counters it updates and which
progress line it prints — throttled status lines and event lines on
stderr are the ``--progress`` flag of the CLI.  An optional subscriber
sees every event after that; the campaign service's WAL is one
(`repro.service.daemon`).  The same counters back the scaling row in
``benchmarks/bench_micro.py`` through `TelemetrySummary`.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, TextIO, Tuple


@dataclass
class TelemetrySummary:
    """Final counters of one engine run."""

    shards_total: int = 0
    shards_done: int = 0
    shards_resumed: int = 0
    executions: int = 0
    steps: int = 0
    retries: int = 0
    #: Hung local worker nodes SIGKILLed and replaced after their lease
    #: expired (their shards were requeued).
    hung_killed: int = 0
    #: Shard results that failed the driver-side CRC check.
    corrupt_results: int = 0
    #: Shards never started because a run budget ran out.
    shards_skipped: int = 0
    #: Shards that stopped early on a per-shard budget breach.
    budget_stops: int = 0
    #: Corrupt checkpoint/corpus lines quarantined on load.
    quarantined_lines: int = 0
    #: Durable writes (checkpoint/corpus) that failed with ENOSPC/EIO;
    #: the run continued in-memory with degraded coverage.
    durable_write_errors: int = 0
    #: Branches skipped by sleep-set DPOR (`repro.rmc.dpor`), planner
    #: charges included; 0 when DPOR is off.
    pruned_subtrees: int = 0
    #: Distributed runs (`repro.engine.dist`): worker nodes that joined.
    nodes_joined: int = 0
    #: Nodes declared lost (connection gone or heartbeats stopped).
    nodes_lost: int = 0
    #: Nodes refused at handshake (engine fingerprint mismatch).
    nodes_refused: int = 0
    #: Leases that expired and were requeued to another node.
    leases_expired: int = 0
    #: Stale results rejected by fencing-token checks (never merged).
    results_fenced: int = 0
    #: The run ended by a graceful drain (campaign service SIGTERM):
    #: in-flight leases finished, nothing new was granted.
    drained: bool = False
    #: Hedged re-dispatches issued for shards past their adaptive
    #: deadline (`repro.engine.hedge`).
    hedges_issued: int = 0
    #: Hedges whose duplicate delivered the winning result.
    hedge_wins: int = 0
    #: Hedges where the original dispatch won after all.
    hedge_losses: int = 0
    #: Executions spent by losing duplicates (the price of hedging).
    hedge_wasted_execs: int = 0
    #: Completed shards re-executed by the audit layer
    #: (`repro.engine.audit`).
    audits_done: int = 0
    #: Audited shards whose origin result diverged from the trusted
    #: re-execution (each one also quarantined its origin).
    audit_divergences: int = 0
    #: Workers/nodes quarantined after a confirmed divergence.
    workers_quarantined: int = 0
    wall_seconds: float = 0.0
    #: shards completed per worker pid (pid 0 = inline/resumed).
    worker_shards: Dict[int, int] = field(default_factory=dict)
    #: executions per worker pid.
    worker_executions: Dict[int, int] = field(default_factory=dict)

    @property
    def executions_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.executions / self.wall_seconds

    @property
    def effective_tree_size(self) -> int:
        """Executions the naive enumeration would have visited at the
        explored frontier: actual executions plus DPOR-pruned branches."""
        return self.executions + self.pruned_subtrees


@dataclass(frozen=True)
class EventKind:
    """What one kind of engine event does to the run's telemetry."""

    #: ``(summary field, event field)`` pairs: the event adds that
    #: field's value to the counter (``None`` adds 1).  A flag is set;
    #: a per-worker map is bumped under the event's ``pid``.
    counts: Tuple[Tuple[str, Optional[str]], ...] = ()
    #: The progress line, formatted over the event's fields; `STATUS`
    #: for the throttled status line; ``None`` prints nothing.
    line: Optional[str] = None


#: `EventKind.line` of events that print the throttled status line.
STATUS = "<status>"

_DONE = (("shards_done", None), ("executions", "executions"),
         ("steps", "steps"), ("pruned_subtrees", "pruned"),
         ("worker_shards", None), ("worker_executions", "executions"))

#: Every event the engine emits.  `ProgressReporter.emit` is the only
#: way counters change or progress lines are printed, and subscribers
#: (the campaign service's WAL) see the same stream, in order.
EVENTS: Dict[str, EventKind] = {
    # -- run setup (`repro.engine.pool.start_run`) ---------------------
    "quarantined": EventKind((("quarantined_lines", "count"),)),
    "planner_pruned": EventKind((("pruned_subtrees", "count"),)),
    "resumed": EventKind(_DONE + (("shards_resumed", None),)),
    # -- shard outcomes ------------------------------------------------
    "shard_done": EventKind(_DONE, STATUS),
    "budget_stop": EventKind((("budget_stops", None),)),
    "retry": EventKind((("retries", None),),
                       "shard {shard} failed (attempt {attempt}): "
                       "{error}; requeued"),
    "skipped": EventKind((("shards_skipped", None),),
                         "shard {shard} skipped: {reason}"),
    "corrupt_result": EventKind((("corrupt_results", None),),
                                "shard {shard} returned a corrupt result "
                                "(CRC mismatch); requeued"),
    "durable_error": EventKind((("durable_write_errors", None),),
                               "durable write failed ({detail}); "
                               "continuing in-memory with degraded "
                               "coverage"),
    # -- nodes and leases (`repro.engine.dist.coordinator`) -----------
    "node_joined": EventKind((("nodes_joined", None),),
                             "node {node} joined"),
    "node_lost": EventKind((("nodes_lost", None),),
                           "node {node} lost: {reason}"),
    "node_refused": EventKind((("nodes_refused", None),),
                              "node {node} refused: {reason}"),
    "hung_worker": EventKind((("hung_killed", None),),
                             "worker {pid} hung on shard {shard} (no "
                             "heartbeat for {age:.1f}s); killed and "
                             "requeued"),
    "lease_expired": EventKind((("leases_expired", None),),
                               "lease on shard {shard} (node {node}) "
                               "expired; requeued"),
    "fenced": EventKind((("results_fenced", None),),
                        "stale result for shard {shard} from node "
                        "{node} fenced off"),
    "drain": EventKind((("drained", None),),
                       "draining: no new grants, waiting for in-flight "
                       "leases"),
    # A lease is about to go on the wire; a result was accepted and is
    # about to be merged; the run is about to finalize.  Counted
    # nowhere: the WAL records them before the action they describe.
    "grant": EventKind(),
    "merge": EventKind(),
    "settled": EventKind(),
    # -- hedging (`repro.engine.hedge`) --------------------------------
    "hedge": EventKind((("hedges_issued", None),),
                       "shard {shard} past its hedge deadline "
                       "({elapsed:.1f}s > {deadline:.1f}s); "
                       "speculatively re-dispatched"),
    "hedge_win": EventKind((("hedge_wins", None),),
                           "hedge won shard {shard}; original dispatch "
                           "abandoned"),
    "hedge_loss": EventKind((("hedge_losses", None),)),
    "hedge_waste": EventKind((("hedge_wasted_execs", "executions"),)),
    # -- audit (`repro.engine.audit`) ----------------------------------
    "audit": EventKind((("audits_done", None),)),
    "divergence": EventKind((("audit_divergences", None),),
                            "audit: shard {shard} diverged from trusted "
                            "re-execution"),
    "worker_quarantined": EventKind((("workers_quarantined", None),),
                                    "quarantined {who}: {reason}"),
}


class ProgressReporter:
    """The run's event stream: counters, throttled progress lines, and
    one optional ``subscriber(kind, **fields)`` called after both."""

    def __init__(self, total_shards: int, enabled: bool = True,
                 out: Optional[TextIO] = None, interval: float = 0.5,
                 label: str = "engine"):
        self.summary = TelemetrySummary(shards_total=total_shards)
        self.enabled = enabled
        self.out = out if out is not None else sys.stderr
        self.interval = interval
        self.label = label
        self.subscriber: Optional[Callable[..., None]] = None
        self._start = time.perf_counter()
        self._last_emit = 0.0

    def emit(self, kind: str, **fields) -> None:
        """Record one event: update its counters, print its line, then
        hand it to the subscriber (synchronously, so a WAL record lands
        before the caller acts)."""
        spec = EVENTS.get(kind)
        if spec is None:
            raise ValueError(f"unknown engine event {kind!r}")
        s = self.summary
        for counter, source in spec.counts:
            amount = 1 if source is None else fields[source]
            value = getattr(s, counter)
            if isinstance(value, dict):
                pid = fields["pid"]
                value[pid] = value.get(pid, 0) + amount
            elif isinstance(value, bool):
                setattr(s, counter, True)
            else:
                setattr(s, counter, value + amount)
        if spec.line is STATUS:
            self._status()
        elif spec.line is not None and self.enabled:
            print(f"[{self.label}] {spec.line.format(**fields)}",
                  file=self.out, flush=True)
        if self.subscriber is not None:
            self.subscriber(kind, **fields)

    def finish(self) -> TelemetrySummary:
        self.summary.wall_seconds = time.perf_counter() - self._start
        if self.enabled:
            self._status(force=True, final=True)
        return self.summary

    # ------------------------------------------------------------------
    def _status(self, force: bool = False, final: bool = False) -> None:
        if not self.enabled:
            return
        now = time.perf_counter()
        if not force and now - self._last_emit < self.interval:
            return
        self._last_emit = now
        s = self.summary
        elapsed = max(now - self._start, 1e-9)
        rate = s.executions / elapsed
        if s.shards_done and s.shards_done < s.shards_total:
            eta = elapsed / s.shards_done * (s.shards_total - s.shards_done)
            eta_txt = f" | ETA {eta:5.1f}s"
        else:
            eta_txt = ""
        workers = " ".join(
            f"w{pid}:{n}" for pid, n in sorted(s.worker_shards.items()))
        tag = "done" if final else "running"
        dpor_txt = (f" | pruned {s.pruned_subtrees} "
                    f"(tree {s.effective_tree_size})"
                    if s.pruned_subtrees else "")
        hedge_txt = (f" | hedges {s.hedges_issued} "
                     f"({s.hedge_wins}w/{s.hedge_losses}l, "
                     f"{s.hedge_wasted_execs} wasted exec)"
                     if s.hedges_issued else "")
        audit_txt = (f" | audits {s.audits_done}"
                     + (f" ({s.audit_divergences} diverged, "
                        f"{s.workers_quarantined} quarantined)"
                        if s.audit_divergences else "")
                     if s.audits_done else "")
        print(f"[{self.label}] {tag}: shards {s.shards_done}/"
              f"{s.shards_total} ({s.shards_resumed} resumed) | "
              f"{s.executions} exec ({rate:,.0f}/s) | {s.steps} steps"
              f"{dpor_txt}{hedge_txt}{audit_txt}{eta_txt} | {workers}",
              file=self.out, flush=True)
