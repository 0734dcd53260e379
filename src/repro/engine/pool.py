"""The engine entry point: plan, resume, explore, merge, persist.

`run_scenario` supersedes the serial ``check_scenario`` loop while
keeping `explore_all`/`explore_random` as the single-worker core:

1. **plan** — split the decision tree (exhaustive) or seed range
   (randomized) into disjoint shards (`repro.engine.shard`);
2. **resume** — drop shards already completed by an identical earlier
   run, recovered from the checkpoint log (`repro.engine.checkpoint`);
3. **explore** — run the remaining shards inline for one worker; for
   many, fork ``min(workers, pending)`` local worker nodes, each on one
   end of a socketpair, and drive them with the distributed
   coordinator (`repro.engine.dist.coordinator`).  Local and remote
   runs therefore share one scheduler: the lease table is the only
   liveness scheme (a node that stops beating loses its lease after
   ``shard_timeout`` and is SIGKILLed and replaced; a crashed node's
   EOF requeues only its own lease), every result is CRC-checked, and
   failures are retried within a bounded budget.  Per-shard and
   per-run resource budgets (`repro.engine.budget`) degrade gracefully
   into partial reports instead of dying;
4. **merge** — fold per-shard partial reports *in shard order*
   (`repro.engine.merge`), reproducing the serial report exactly
   (modulo timing) when nothing was truncated — and an honest
   `repro.engine.budget.Coverage` when something was; persist
   counterexamples idempotently to the corpus (`repro.engine.corpus`).

Under the ``fork`` start method a local node inherits the closure-laden
`Scenario` object by memory, so ad-hoc scenarios without a registry
spec work too; under ``spawn`` nodes rebuild the scenario from the
registry spec the coordinator sends.  The whole failure path is
exercised by deterministic fault injection (`repro.engine.faults`,
``python -m repro chaos``).
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..checking.runner import (Scenario, ScenarioReport, StyleTally,
                               record_result)
from ..core.spec_styles import SpecStyle
from .audit import AuditLog
from .budget import BudgetSpec, BudgetTracker, Coverage
from .checkpoint import (CheckpointWriter, load_completed_ex,
                         run_fingerprint)
from .corpus import (CORPUS_CAP, CorpusEntry, CorpusSink, append_entries,
                     entry_hash)
from .faults import fault_point, injected_delay
from .merge import merge_reports, report_from_json
from .registry import ScenarioSpec, build_scenario
from .retry import BACKOFF_CAP, jittered_backoff
from ..rmc.dpor import DporStats
from .shard import (SHARDS_PER_WORKER, Shard, iter_shard,
                    plan_exhaustive_shards, plan_exhaustive_shards_dpor,
                    plan_random_shards)
from .telemetry import ProgressReporter, TelemetrySummary

#: Seconds a worker may go without a heartbeat before its lease expires
#: and the node is declared hung, killed and replaced.  A real default:
#: a lone hung node no longer stalls a run forever.  Exploration loops
#: beat *between* executions, so keep this comfortably above the
#: longest single execution (``max_steps`` bounds it).
DEFAULT_SHARD_TIMEOUT = 300.0

#: Skip reason of shards the run budget left unexplored.
RUN_BUDGET_SPENT = "run budget exhausted"


@dataclass
class EngineParams:
    """Everything that shapes one engine run."""

    styles: Tuple[SpecStyle, ...] = (SpecStyle.LAT_HB,)
    exhaustive: bool = False
    runs: int = 300
    seed: int = 0
    max_steps: int = 20_000
    #: Execution cap; in parallel exhaustive mode it bounds each shard.
    max_executions: int = 100_000
    workers: int = 1
    #: Max prefix length for exhaustive splitting (None = default).
    split_depth: Optional[int] = None
    #: Shard-count target (None = SHARDS_PER_WORKER per worker).
    target_shards: Optional[int] = None
    checkpoint_path: Optional[str] = None
    corpus_path: Optional[str] = None
    corpus_cap: int = CORPUS_CAP
    progress: bool = False
    max_retries: int = 2
    #: Base delay of the jittered exponential backoff between retry
    #: attempts of the same shard (0 disables; `repro.engine.retry`).
    retry_backoff: float = 0.05
    #: ``multiprocessing`` start method for local worker nodes (None =
    #: fork when available, else spawn).  ``spawn`` requires a registry
    #: spec; without one the run falls back to inline execution.
    start_method: Optional[str] = None
    #: Lease length of a local worker node: seconds without a heartbeat
    #: before the node is declared hung, killed and replaced, and its
    #: shard requeued (None = wait forever).
    shard_timeout: Optional[float] = DEFAULT_SHARD_TIMEOUT
    #: Seconds between a worker node's in-band heartbeats.
    heartbeat_interval: float = 0.25
    #: Wall-clock budget per shard; a breaching shard stops cleanly and
    #: returns a partial report flagged ``budget_exhausted``.
    shard_seconds: Optional[float] = None
    #: Wall-clock budget for the whole run; on breach remaining shards
    #: are skipped and the merged report carries coverage accounting.
    run_seconds: Optional[float] = None
    #: Peak-RSS ceiling per worker process, in MiB.
    max_rss_mb: Optional[float] = None
    #: Sleep-set partial-order reduction (`repro.rmc.dpor`).  None
    #: resolves to "on in exhaustive mode"; randomized mode ignores it.
    dpor: Optional[bool] = None
    #: Memory model id (`repro.models`): the semantics every execution
    #: of this run is interpreted under.  Part of the fingerprint —
    #: outcome sets differ across models, so checkpoints and corpus
    #: records must never mix models.
    model: str = "orc11"
    #: Hedged execution (`repro.engine.hedge`): once a shard runs past
    #: ``quantile(observed durations) × factor`` (never below
    #: ``hedge_floor`` seconds), dispatch a speculative duplicate; the
    #: first structurally-valid result wins.  Deliberately *not* part of
    #: the fingerprint: hedging changes who delivers a result, never
    #: what it contains.
    hedge: bool = False
    hedge_quantile: float = 0.95
    hedge_factor: float = 3.0
    hedge_floor: float = 0.5
    #: Fraction of completed shards re-executed by the trusted driver
    #: process and fingerprint-compared (`repro.engine.audit`); 0 = off.
    #: Also excluded from the fingerprint for the same reason.
    audit_fraction: float = 0.0

    def dpor_on(self) -> bool:
        """The resolved DPOR switch: defaults to on for exhaustive mode."""
        return self.exhaustive and self.dpor is not False

    def fingerprint_json(self) -> Dict:
        """The parameters that determine exploration results.

        Budgets, timeouts, and heartbeat cadence are deliberately
        excluded: they shape *how far* a run gets, not what any
        completed shard contains, so checkpoints stay resumable across
        different budget settings.
        """
        return {
            "styles": [s.name for s in self.styles],
            "exhaustive": self.exhaustive,
            "runs": self.runs,
            "seed": self.seed,
            "max_steps": self.max_steps,
            "max_executions": self.max_executions,
            "dpor": self.dpor_on(),
            "model": self.model,
        }

    def budget_spec(self, deadline: Optional[float]) -> BudgetSpec:
        return BudgetSpec(shard_seconds=self.shard_seconds,
                          run_deadline=deadline,
                          max_rss_mb=self.max_rss_mb)

    def wire_json(self) -> Dict:
        """The fields a worker node needs to explore a shard.

        A superset of `fingerprint_json` (everything result-determining)
        plus the knobs that shape a node's local loop, the per-shard
        budgets included.  The run deadline travels with each grant as
        the seconds left (``run_left``), so node clocks need not agree;
        lease lengths stay coordinator-side.
        """
        data = self.fingerprint_json()
        data["corpus_cap"] = self.corpus_cap
        data["heartbeat_interval"] = self.heartbeat_interval
        data["shard_seconds"] = self.shard_seconds
        data["max_rss_mb"] = self.max_rss_mb
        data["hedge"] = self.hedge
        data["hedge_quantile"] = self.hedge_quantile
        data["hedge_factor"] = self.hedge_factor
        data["hedge_floor"] = self.hedge_floor
        data["audit_fraction"] = self.audit_fraction
        return data

    @staticmethod
    def from_wire(data: Dict) -> "EngineParams":
        """Rebuild node-side params from `wire_json` output."""
        return EngineParams(
            styles=tuple(SpecStyle[name] for name in data["styles"]),
            exhaustive=data["exhaustive"], runs=data["runs"],
            seed=data["seed"], max_steps=data["max_steps"],
            max_executions=data["max_executions"], dpor=data["dpor"],
            model=data.get("model", "orc11"),
            corpus_cap=data.get("corpus_cap", CORPUS_CAP),
            heartbeat_interval=data.get("heartbeat_interval", 0.25),
            shard_seconds=data.get("shard_seconds"),
            max_rss_mb=data.get("max_rss_mb"),
            hedge=data.get("hedge", False),
            hedge_quantile=data.get("hedge_quantile", 0.95),
            hedge_factor=data.get("hedge_factor", 3.0),
            hedge_floor=data.get("hedge_floor", 0.5),
            audit_fraction=data.get("audit_fraction", 0.0))


@dataclass
class EngineResult:
    """A merged report plus the run's mechanics."""

    report: ScenarioReport
    telemetry: TelemetrySummary
    shards: List[Shard] = field(default_factory=list)
    corpus_entries: List[CorpusEntry] = field(default_factory=list)
    coverage: Optional[Coverage] = None


class ShardFailed(RuntimeError):
    """A shard kept failing after its retry budget was spent."""


class ResultCorrupt(RuntimeError):
    """A shard result came back failing its CRC integrity check."""


# ----------------------------------------------------------------------
# Per-shard exploration (runs inline or inside a worker node)
# ----------------------------------------------------------------------

def _explore_shard(scenario: Scenario, spec: Optional[ScenarioSpec],
                   shard: Shard, params: EngineParams, shard_id: int = 0,
                   attempt: int = 1, deadline: Optional[float] = None,
                   beat=None) -> Tuple[ScenarioReport, List[CorpusEntry]]:
    """Explore one shard.  ``beat`` is a worker node's heartbeat
    (`repro.engine.dist.node.NetBeat`), called between executions."""
    report = ScenarioReport(scenario=scenario.name)
    report.styles = {s: StyleTally() for s in params.styles}
    sink = CorpusSink(scenario.name, spec, params.max_steps,
                      cap=params.corpus_cap, model=params.model)
    budget = BudgetTracker(params.budget_spec(deadline))
    if beat is not None:
        beat.beat(shard_id, 0, force=True)
    # The straggler site: an injected delay that keeps beating — a slow
    # worker, not a hung one, so its lease stays renewed and the
    # hedging layer is what rescues the shard.
    delay = injected_delay("hedge.slow_worker", shard=shard_id,
                           attempt=attempt)
    while delay > 0:
        chunk = min(delay, 0.05)
        time.sleep(chunk)
        delay -= chunk
        if beat is not None:
            beat.beat(shard_id, 0)
    start = time.perf_counter()
    dstats = DporStats()
    for result in iter_shard(scenario.factory, shard, params.max_steps,
                             params.max_executions,
                             dpor=params.dpor_on(), stats=dstats,
                             model=params.model):
        fault_point("worker.explore", shard=shard_id, attempt=attempt,
                    execs=report.executions + 1)
        record_result(report, scenario, result, params.styles, sink)
        if beat is not None:
            beat.beat(shard_id, report.executions)
        if report.executions >= params.max_executions:
            break
        if budget.breach() is not None:
            report.budget_exhausted = True
            break
    report.pruned_subtrees = dstats.pruned_subtrees
    report.exhausted = (params.exhaustive and not report.budget_exhausted
                        and report.executions < params.max_executions)
    report.seconds = time.perf_counter() - start
    return report, sink.entries


def _decode_result(shard_id: int, blob: str, crc: int) \
        -> Tuple[ScenarioReport, List[CorpusEntry]]:
    if zlib.crc32(blob.encode("utf-8")) != crc:
        raise ResultCorrupt(f"shard {shard_id}: result failed its CRC "
                            f"integrity check")
    payload = json.loads(blob)
    return (report_from_json(payload["report"]),
            [CorpusEntry.from_json(e) for e in payload["corpus"]])


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------

def plan_shards_ex(scenario: Scenario,
                   params: EngineParams) -> Tuple[List[Shard], int]:
    """Deterministically split the run into disjoint work items.

    Returns ``(shards, planner_pruned)``: under DPOR the planner itself
    prunes asleep branches at nodes it pins into shard prefixes (see
    `repro.engine.shard.plan_exhaustive_shards_dpor`); the count is
    folded into the merged report so serial and sharded telemetry agree.
    """
    if params.target_shards is not None:
        target = max(1, params.target_shards)
    else:
        target = max(1, params.workers) * SHARDS_PER_WORKER
        if params.workers <= 1 and params.checkpoint_path is None:
            target = 1  # no workers, no resume: skip planning probes
        elif params.checkpoint_path is not None:
            target = max(target, 2 * SHARDS_PER_WORKER)
    if params.exhaustive:
        if target == 1:
            return [Shard(kind="prefix")], 0
        kwargs = {"model": params.model}
        if params.split_depth is not None:
            kwargs["max_split_depth"] = params.split_depth
        if params.dpor_on():
            return plan_exhaustive_shards_dpor(scenario.factory, target,
                                               params.max_steps, **kwargs)
        return plan_exhaustive_shards(scenario.factory, target,
                                      params.max_steps, **kwargs), 0
    return plan_random_shards(params.runs, params.seed, target), 0


def plan_shards(scenario: Scenario, params: EngineParams) -> List[Shard]:
    """Deterministically split the run into disjoint work items."""
    return plan_shards_ex(scenario, params)[0]


@dataclass
class RunState:
    """One run's setup and results, shared by every way of running it.

    `start_run` builds it — plan, fingerprint, checkpoint resume,
    reporter, writer — for both the inline loop below and the
    coordinator (`repro.engine.dist.coordinator`), so a local and a
    distributed run cannot drift apart in how they begin or end.
    """

    scenario: Scenario
    spec: Optional[ScenarioSpec]
    params: EngineParams
    shards: List[Shard]
    planner_pruned: int
    results: Dict[int, Tuple[ScenarioReport, List[CorpusEntry]]]
    markers: set
    reporter: ProgressReporter
    writer: Optional[CheckpointWriter]
    #: Absolute ``time.time()`` the run budget ends at (None = unbounded).
    deadline: Optional[float]

    def pending(self) -> List[Tuple[int, Shard]]:
        return [(sid, shard) for sid, shard in enumerate(self.shards)
                if sid not in self.results]

    def out_of_time(self, now: Optional[float] = None) -> bool:
        return self.deadline is not None \
            and (time.time() if now is None else now) >= self.deadline

    def complete(self, sid: int, report: ScenarioReport,
                 entries: List[CorpusEntry], pid: int) -> None:
        self.results[sid] = (report, entries)
        if report.budget_exhausted:
            # Not checkpointed: a later, better-funded resume should
            # re-explore a truncated shard rather than trust its stub.
            self.reporter.on_budget_stop(sid)
        elif self.writer is not None:
            self.writer.write_shard(sid, report, entries)
        self.reporter.on_shard_done(sid, pid, report.executions,
                                    report.steps, report.pruned_subtrees)

    def replace(self, sid: int, report: ScenarioReport,
                entries: List[CorpusEntry]) -> None:
        """Audit repair: substitute a trusted re-execution for a
        divergent result without re-counting the shard.  Checkpoint
        replay is last-record-wins, so appending the trusted record
        heals a later resume too."""
        self.results[sid] = (report, entries)
        if self.writer is not None and not report.budget_exhausted:
            self.writer.write_shard(sid, report, entries)

    def finalize(self, audit_log: Optional[AuditLog] = None) \
            -> EngineResult:
        return finalize_run(self.scenario.name, self.params, self.shards,
                            self.planner_pruned, self.results,
                            self.markers, self.reporter, self.writer,
                            audit_log=audit_log)


def start_run(scenario: Scenario, spec: Optional[ScenarioSpec],
              params: EngineParams, label: str) -> RunState:
    """Plan, fingerprint and resume one run; start its clock."""
    shards, planner_pruned = plan_shards_ex(scenario, params)
    fingerprint = run_fingerprint(scenario.name, spec,
                                  params.fingerprint_json(), shards)
    results: Dict[int, Tuple[ScenarioReport, List[CorpusEntry]]] = {}
    markers: set = set()
    quarantined = 0
    if params.checkpoint_path:
        done, markers, diag = load_completed_ex(params.checkpoint_path,
                                                fingerprint)
        quarantined = diag.corrupt
        for sid, (report, entries) in done.items():
            if 0 <= sid < len(shards):
                results[sid] = (report, entries)
    reporter = ProgressReporter(total_shards=len(shards),
                                enabled=params.progress, label=label)
    reporter.on_quarantined(quarantined)
    reporter.on_planner_pruned(planner_pruned)
    for report, _entries in results.values():
        reporter.on_resumed(report.executions, report.steps,
                            report.pruned_subtrees)
    writer = CheckpointWriter(params.checkpoint_path, fingerprint) \
        if params.checkpoint_path else None
    deadline = (time.time() + params.run_seconds
                if params.run_seconds is not None else None)
    return RunState(scenario=scenario, spec=spec, params=params,
                    shards=shards, planner_pruned=planner_pruned,
                    results=results, markers=markers, reporter=reporter,
                    writer=writer, deadline=deadline)


def run_scenario(scenario: Optional[Scenario], params: EngineParams,
                 spec: Optional[ScenarioSpec] = None) -> EngineResult:
    """Explore + check one scenario with the full engine machinery."""
    if scenario is None:
        if spec is None:
            raise ValueError("need a scenario or a registry spec")
        scenario = build_scenario(spec)
    run = start_run(scenario, spec, params, label=f"engine:{scenario.name}")
    pending = run.pending()
    ctx = _node_context(params, spec) \
        if params.workers > 1 and len(pending) > 1 else None
    if ctx is None:
        _run_inline(run)
        return run.finalize()
    from .dist.coordinator import Coordinator, DistParams
    from .dist.node import LocalNodes
    nodes = LocalNodes(ctx, scenario)
    # Every node is forked here, before the coordinator starts a thread.
    channels = [nodes.spawn() for _ in range(min(params.workers,
                                                 len(pending)))]
    lease = params.shard_timeout
    dist = DistParams(lease_seconds=math.inf if lease is None else lease)
    return Coordinator(params, spec, dist, run=run, local=nodes,
                       channels=channels).serve()


def _node_context(params: EngineParams, spec: Optional[ScenarioSpec]):
    """The ``multiprocessing`` context local nodes start under, or None
    when the scenario cannot reach them (spawn without a registry spec:
    only a fork inherits an ad-hoc `Scenario`)."""
    method = params.start_method
    if method is None:
        methods = multiprocessing.get_all_start_methods()
        method = "fork" if "fork" in methods else "spawn"
    if method != "fork" and spec is None:
        return None
    return multiprocessing.get_context(method)


def finalize_run(scenario_name: str, params: EngineParams,
                 shards: List[Shard], planner_pruned: int,
                 results: Dict[int, Tuple[ScenarioReport,
                                          List[CorpusEntry]]],
                 markers: set, reporter: ProgressReporter,
                 writer: Optional[CheckpointWriter],
                 audit_log: Optional[AuditLog] = None) -> EngineResult:
    """Merge per-shard results into one honest `EngineResult`.

    The shared tail of every run (`RunState.finalize`): fold the
    partial reports in shard order, charge planner prunes exactly once,
    account coverage for anything truncated or missing, and flush the
    deduplicated corpus.
    """
    ordered = sorted(results)
    report = merge_reports(scenario_name,
                           (results[sid][0] for sid in ordered),
                           params.exhaustive)
    # Branches the planner itself pruned at pinned prefix nodes: charged
    # here, exactly once, so sharded totals equal the serial DPOR run.
    report.pruned_subtrees += planner_pruned
    entries: List[CorpusEntry] = []
    seen_hashes: Set[str] = set()
    for sid in ordered:
        for entry in results[sid][1]:
            # Same content-hash dedupe as the on-disk corpus, so
            # `corpus_entries` mirrors what a flush would persist.
            key = entry_hash(entry.to_json())
            if key not in seen_hashes:
                seen_hashes.add(key)
                entries.append(entry)
    del entries[params.corpus_cap:]
    if audit_log is not None:
        # Divergence witnesses ride above the per-run cap: there are at
        # most a handful and each one names a provably-lying executor.
        for witness in audit_log.witnesses:
            key = entry_hash(witness.to_json())
            if key not in seen_hashes:
                seen_hashes.add(key)
                entries.append(witness)
    flush_errors: List[str] = []
    if params.corpus_path:
        # Content-hash dedupe makes the flush idempotent, so a crash
        # between the append and the marker cannot duplicate entries —
        # and a torn corpus line is healed by the next resume.  A flush
        # hitting a full/failing disk degrades coverage below instead
        # of losing the in-memory result.
        append_entries(params.corpus_path, entries, errors=flush_errors)
        if writer is not None and "corpus_flushed" not in markers:
            writer.write_marker("corpus_flushed")
    durable_errors: List[str] = flush_errors + \
        (list(writer.write_errors) if writer is not None else [])
    for detail in durable_errors:
        reporter.on_durable_error(detail)
    telemetry = reporter.finish()
    complete_sids = {sid for sid in results
                     if not results[sid][0].budget_exhausted}
    coverage = Coverage(
        shards_total=len(shards),
        shards_complete=len(complete_sids),
        truncated=[shards[sid].describe() for sid in range(len(shards))
                   if sid not in complete_sids],
        durable_errors=len(durable_errors),
        divergences=audit_log.divergences if audit_log else 0)
    report.coverage = coverage
    if coverage.degraded:
        # A degraded run must never claim a universal result — whether
        # work was truncated or its durable record failed to land.
        report.exhausted = False
    return EngineResult(report=report, telemetry=telemetry, shards=shards,
                        corpus_entries=entries, coverage=coverage)


def _run_inline(run: RunState) -> None:
    params = run.params
    for sid, shard in run.pending():
        if run.out_of_time():
            run.reporter.on_skipped(sid, RUN_BUDGET_SPENT)
            continue
        attempt = 1
        while True:
            try:
                report, entries = _explore_shard(run.scenario, run.spec,
                                                 shard, params,
                                                 shard_id=sid,
                                                 attempt=attempt,
                                                 deadline=run.deadline)
                break
            except Exception as err:  # noqa: BLE001 — requeue any failure
                run.reporter.on_retry(sid, attempt, repr(err))
                attempt += 1
                if attempt > params.max_retries + 1:
                    raise ShardFailed(
                        f"shard {sid} ({shard}) failed "
                        f"{params.max_retries + 1} times: {err!r}") from err
                _retry_sleep(params, sid, attempt)
        run.complete(sid, report, entries, os.getpid())


def _retry_sleep(params: EngineParams, sid: int, attempt: int) -> None:
    """Jittered exponential backoff before retry ``attempt`` of a shard —
    transient failures (a flaky filesystem, memory pressure) get room to
    clear instead of an immediate identical requeue."""
    delay = jittered_backoff(attempt - 1, params.retry_backoff,
                             BACKOFF_CAP, key=f"shard-{sid}")
    if delay > 0:
        time.sleep(delay)
