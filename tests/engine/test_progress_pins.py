"""Pins of the engine's ``--progress`` output and telemetry counters.

Every progress line and every `TelemetrySummary` field is derived from
the engine's event stream (`repro.engine.telemetry`).  These tests pin
the text and the counters of whole runs, so a change to how events are
routed cannot change what a run reports.  Only what depends on timing
or on process ids is normalised: seconds, rates, the ETA, and the
per-worker shard map (its total is kept).
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import fields

import pytest

from repro.engine import EngineParams, run_scenario
from repro.engine.faults import Fault, FaultPlan
from repro.engine.registry import build_scenario
from repro.engine.telemetry import ProgressReporter, TelemetrySummary

from ._support import hw_spec


def _normalise(text: str) -> list:
    lines = []
    for line in text.splitlines():
        line = re.sub(r"\d+\.\d+s", "#s", line)
        line = re.sub(r"\([\d,]+/s\)", "(#/s)", line)
        line = re.sub(r" \| ETA +#s", " | ETA #s", line)
        workers = re.findall(r"w\d+:(\d+)", line)
        if workers:
            line = re.sub(r"w\d+:\d+( w\d+:\d+)*$",
                          f"w*:{sum(map(int, workers))}", line)
        lines.append(line)
    return lines


def _fixed_interval(monkeypatch, interval: float) -> None:
    """Make the throttle of every reporter deterministic: 0 prints a
    status line per finished shard, inf prints only the final one."""
    init = ProgressReporter.__init__

    def patched(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.interval = interval
    monkeypatch.setattr(ProgressReporter, "__init__", patched)


def _counters(summary: TelemetrySummary) -> dict:
    """Every summary field but the wall clock; per-worker maps by total
    (their keys are process ids)."""
    out = {}
    for f in fields(summary):
        if f.name == "wall_seconds":
            continue
        value = getattr(summary, f.name)
        out[f.name] = sum(value.values()) if isinstance(value, dict) \
            else value
    return out


ZERO = {name: 0 for name in (
    "shards_resumed", "retries", "hung_killed", "corrupt_results",
    "shards_skipped", "budget_stops", "quarantined_lines",
    "durable_write_errors", "nodes_joined", "nodes_lost",
    "nodes_refused", "leases_expired", "results_fenced", "hedges_issued",
    "hedge_wins", "hedge_losses", "hedge_wasted_execs", "audits_done",
    "audit_divergences", "workers_quarantined")}


class TestTwoWorkerRunPin:
    def test_retry_hedge_and_audit(self, capfd, monkeypatch):
        """Two local nodes, two shards.  Shard 0 fails once (one retry,
        and the failing node is excluded from it); its second attempt
        straggles, so the free node hedges it and wins.  Every shard is
        audited.  The straggler is dismissed before it submits, so
        nothing is fenced."""
        _fixed_interval(monkeypatch, math.inf)
        spec = hw_spec()
        params = EngineParams(exhaustive=True, workers=2, target_shards=2,
                              progress=True, retry_backoff=0.0,
                              hedge=True, hedge_floor=0.3,
                              hedge_factor=1.5, audit_fraction=1.0)
        plan = FaultPlan((
            Fault("worker.explore", "raise", shard=0, attempt=1),
            Fault("hedge.slow_worker", "delay", shard=0, attempt=2,
                  delay_seconds=30.0)))
        with plan:
            result = run_scenario(build_scenario(spec), params, spec=spec)
        lines = _normalise(capfd.readouterr().err)
        label = "[engine:hw-queue/rlx[t2xo1#0]]"
        assert len(result.shards) == 2
        # The nodes connect on their own threads: their lines may come
        # in either order, and a late one after the first retry.
        joined = [line for line in lines if line.endswith(" joined")]
        assert sorted(joined) == [f"{label} node local-0 joined",
                                  f"{label} node local-1 joined"]
        assert [line for line in lines if line not in joined] == [
            f"{label} shard 0 failed (attempt 1): FaultInjected('injected "
            f"transient fault at worker.explore (shard=0, attempt=1)'); "
            f"requeued",
            f"{label} shard 0 past its hedge deadline (#s > #s); "
            f"speculatively re-dispatched",
            f"{label} hedge won shard 0; original dispatch abandoned",
            f"{label} done: shards 2/2 (0 resumed) | 16 exec (#/s) | "
            f"96 steps | pruned 2 (tree 18) | hedges 1 (1w/0l, "
            f"0 wasted exec) | audits 2 | w*:2",
        ]
        assert _counters(result.telemetry) == {
            **ZERO, "shards_total": 2, "shards_done": 2,
            "executions": 16, "steps": 96, "retries": 1,
            "pruned_subtrees": 2, "nodes_joined": 2, "hedges_issued": 1,
            "hedge_wins": 1, "audits_done": 2, "drained": False,
            "worker_shards": 2, "worker_executions": 16}


class TestSerialRunPin:
    def test_resume_retry_and_status_lines(self, capfd, monkeypatch,
                                                tmp_path):
        """One worker: a checkpointed first run, then a resume over a
        cut checkpoint (two shards kept, one torn line quarantined) in
        which one shard is retried — every status line printed."""
        _fixed_interval(monkeypatch, 0.0)
        spec = hw_spec()
        ck = tmp_path / "ck.jsonl"
        params = EngineParams(exhaustive=True, workers=1, target_shards=4,
                              progress=True, retry_backoff=0.0,
                              checkpoint_path=str(ck))
        run_scenario(build_scenario(spec), params, spec=spec)
        capfd.readouterr()
        kept = ck.read_text().splitlines(keepends=True)[:2]
        ck.write_text("".join(kept) + "{torn\n")
        with FaultPlan((Fault("worker.explore", "raise", shard=3,
                              attempt=1),)):
            result = run_scenario(build_scenario(spec), params, spec=spec)
        lines = _normalise(capfd.readouterr().err)
        label = "[engine:hw-queue/rlx[t2xo1#0]]"
        assert lines == [
            f"{label} running: shards 3/4 (2 resumed) | 12 exec (#/s) | "
            f"72 steps | pruned 2 (tree 14) | ETA #s | w*:3",
            f"{label} shard 3 failed (attempt 1): FaultInjected('injected "
            f"transient fault at worker.explore (shard=3, attempt=1)'); "
            f"requeued",
            f"{label} running: shards 4/4 (2 resumed) | 16 exec (#/s) | "
            f"96 steps | pruned 2 (tree 18) | w*:4",
            f"{label} done: shards 4/4 (2 resumed) | 16 exec (#/s) | "
            f"96 steps | pruned 2 (tree 18) | w*:4",
        ]
        assert _counters(result.telemetry) == {
            **ZERO, "shards_total": 4, "shards_done": 4,
            "shards_resumed": 2, "executions": 16, "steps": 96,
            "retries": 1, "quarantined_lines": 1, "pruned_subtrees": 2,
            "drained": False, "worker_shards": 4, "worker_executions": 16}


class TestEventStream:
    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown engine event"):
            ProgressReporter(1, enabled=False).emit("shard_finished")

    def test_subscriber_sees_each_event_after_its_counters_and_line(self):
        out = io.StringIO()
        reporter = ProgressReporter(1, out=out, label="t")
        seen = []
        reporter.subscriber = lambda kind, **f: seen.append(
            (kind, f, reporter.summary.retries, out.getvalue()))
        reporter.emit("retry", shard=0, attempt=1, error="boom")
        reporter.emit("grant", shard=0, token=1, attempt=2, node="n")
        line = "[t] shard 0 failed (attempt 1): boom; requeued\n"
        assert seen == [
            ("retry", {"shard": 0, "attempt": 1, "error": "boom"}, 1, line),
            ("grant", {"shard": 0, "token": 1, "attempt": 2, "node": "n"},
             1, line)]
