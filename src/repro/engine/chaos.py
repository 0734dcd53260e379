"""The chaos self-test: prove the engine converges under injected faults.

``python -m repro chaos`` runs a matrix of engine invocations — fault
kind × exploration mode × worker count — with a deterministic
:class:`repro.engine.faults.FaultPlan` active, and asserts after every
cell that

* the merged report is **identical to the fault-free serial run**
  (modulo ``seconds`` and telemetry) — crashes, hangs, transient
  exceptions, corrupt results, and torn durable-log writes must all be
  absorbed, not surfaced;
* **no child process leaked**: every worker the run started (including
  SIGKILLed hung ones and crashed ones) has been reaped.

Torn-write cells additionally exercise the recovery *cycle*: a first
run tears a checkpoint/corpus line mid-write, a second run resumes past
the quarantined line and heals the corpus idempotently.

The matrix is intentionally small and deterministic — it is a smoke
test run in CI on every push (see ``.github/workflows/ci.yml``), not a
fuzzer.  Faults that take the worker process itself down (crash/hang)
are only scheduled for cells with worker nodes (``workers >= 2``):
inline execution shares the caller's process, where "kill the worker"
would mean "kill the test".  Those rows assert the telemetry counter of
the path they target (``retries`` for a crash, ``hung_killed`` for a
hang), so a fault that never fires cannot pass.

A second, **distributed** section (`build_dist_cases`) runs the same
workload through the coordinator/node transport (`repro.engine.dist`)
with real node *processes* on localhost: each network fault kind
(``drop`` / ``delay`` / ``sever`` / ``duplicate``) injected at a
protocol send site, plus a node SIGKILLed mid-shard.  Every row must
still merge to the fault-free serial report, and rows assert the
telemetry counter of the failure path they target (``leases_expired``,
``nodes_lost``, ``results_fenced``) so a fault that silently missed
cannot pass.

A final **service** row (`run_service_case`) drives the whole campaign
service (`repro.service`): the daemon is crashed mid-grant by an
injected fault (the moral equivalent of ``kill -9``), restarted over
the same data directory, and must WAL-replay its way to the fault-free
serial report without double-charging a shard — then drain to exit 0
on SIGTERM.
"""

from __future__ import annotations

import copy
import multiprocessing
import os
import shutil
import signal
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..checking.runner import ScenarioReport
from ..core.spec_styles import SpecStyle
from .corpus import load_corpus
from .faults import Fault, FaultPlan
from .pool import EngineParams, EngineResult, run_scenario
from .registry import ScenarioSpec, build_scenario

#: The chaos workload: small (20 executions exhaustively), branchy
#: enough to split into 4+ shards, and with real style violations so
#: the corpus path is exercised too.
CHAOS_SPEC = ScenarioSpec("mixed-stress",
                          kwargs={"impl": "hw-queue/rlx", "threads": 2,
                                  "ops": 1, "seed": 0})

CHAOS_STYLES: Tuple[SpecStyle, ...] = (SpecStyle.LAT_HB,)
CHAOS_RUNS = 40
#: Watchdog window for chaos cells: long enough that a healthy loaded
#: worker never trips it, short enough that the hang cells stay quick.
CHAOS_SHARD_TIMEOUT = 2.0
CHAOS_HEARTBEAT = 0.05


@dataclass(frozen=True)
class ChaosCase:
    """One cell of the matrix: a fault plan under an engine config."""

    name: str
    plan: FaultPlan
    workers: int = 1
    exhaustive: bool = True
    #: Run twice (resume) — for torn-write recovery cycles.
    resume: bool = False
    #: Attach checkpoint/corpus files to the run.
    durable: bool = False
    #: `EngineParams` attribute overrides, as ``(name, value)`` pairs
    #: (a tuple so the frozen case stays hashable) — the hedge/audit
    #: rows switch their features on here.
    params_update: Tuple[Tuple[str, object], ...] = ()
    #: Telemetry counter that must be non-zero after the run — proof
    #: the intended path (hedge win, audit divergence) actually fired.
    want_counter: Optional[str] = None
    #: The run must report degraded-not-exhausted coverage: the merge
    #: matches the baseline except ``exhausted`` is honestly withheld
    #: (an audited divergence taints the fleet, not the merge).
    expect_degraded: bool = False


@dataclass
class ChaosOutcome:
    """What one cell did."""

    case: ChaosCase
    ok: bool
    detail: str = ""
    mismatches: List[str] = field(default_factory=list)


def report_mismatches(got: ScenarioReport,
                      want: ScenarioReport) -> List[str]:
    """Field-wise diff of two reports, ignoring timing (``seconds``)."""
    bad: List[str] = []
    for name in ("scenario", "executions", "complete", "truncated",
                 "raced", "steps", "exhausted", "outcome_failures",
                 "outcome_examples", "metrics"):
        if getattr(got, name) != getattr(want, name):
            bad.append(f"{name}: {getattr(got, name)!r} != "
                       f"{getattr(want, name)!r}")
    if [list(t) for t in got.outcome_traces] \
            != [list(t) for t in want.outcome_traces]:
        bad.append("outcome_traces differ")
    if set(got.styles) != set(want.styles):
        bad.append(f"styles: {set(got.styles)} != {set(want.styles)}")
        return bad
    for style in want.styles:
        tg, tw = got.styles[style], want.styles[style]
        if (tg.checked, tg.failed) != (tw.checked, tw.failed):
            bad.append(f"{style}: checked/failed "
                       f"{(tg.checked, tg.failed)} != "
                       f"{(tw.checked, tw.failed)}")
        if tg.examples != tw.examples:
            bad.append(f"{style}: examples differ")
        if [list(t) for t in tg.failing_traces] \
                != [list(t) for t in tw.failing_traces]:
            bad.append(f"{style}: failing traces differ")
    return bad


def _params(case: ChaosCase, workdir: Optional[str]) -> EngineParams:
    params = EngineParams(
        styles=CHAOS_STYLES, exhaustive=case.exhaustive, runs=CHAOS_RUNS,
        seed=0, max_steps=100_000, workers=case.workers, target_shards=4,
        shard_timeout=CHAOS_SHARD_TIMEOUT,
        heartbeat_interval=CHAOS_HEARTBEAT)
    if case.durable:
        params.checkpoint_path = os.path.join(workdir, "checkpoint.jsonl")
        params.corpus_path = os.path.join(workdir, "corpus.jsonl")
    for name, value in case.params_update:
        setattr(params, name, value)
    return params


def baseline_report(exhaustive: bool) -> ScenarioReport:
    """The fault-free serial ground truth every cell must reproduce."""
    scenario = build_scenario(CHAOS_SPEC)
    params = EngineParams(styles=CHAOS_STYLES, exhaustive=exhaustive,
                          runs=CHAOS_RUNS, seed=0, max_steps=100_000,
                          workers=1, target_shards=1)
    return run_scenario(scenario, params, spec=CHAOS_SPEC).report


def _leaked_children(before: set) -> List[int]:
    # active_children() joins finished processes as a side effect, so
    # anything still listed afterwards is genuinely alive.
    return sorted(p.pid for p in multiprocessing.active_children()
                  if p.pid not in before)


def run_case(case: ChaosCase,
             baseline: ScenarioReport) -> ChaosOutcome:
    """Run one cell and check convergence + cleanliness."""
    workdir = tempfile.mkdtemp(prefix="repro-chaos-") \
        if case.durable else None
    before = {p.pid for p in multiprocessing.active_children()}
    try:
        scenario = build_scenario(CHAOS_SPEC)
        with case.plan:
            result = run_scenario(scenario, _params(case, workdir),
                                  spec=CHAOS_SPEC)
        if case.resume:
            # Second, fault-free run over the same durable files: it
            # must resume past any torn (quarantined) lines and heal
            # the corpus without duplicating entries.
            result = run_scenario(build_scenario(CHAOS_SPEC),
                                  _params(case, workdir), spec=CHAOS_SPEC)
        want = baseline
        if case.expect_degraded:
            want = copy.copy(baseline)
            want.exhausted = False
        mismatches = report_mismatches(result.report, want)
        leaked = _leaked_children(before)
        if leaked:
            mismatches.append(f"leaked child processes: {leaked}")
        if case.durable:
            mismatches.extend(_check_corpus(workdir, result))
        tel = result.telemetry
        if case.want_counter and not getattr(tel, case.want_counter, 0):
            mismatches.append(f"expected telemetry {case.want_counter} "
                              f"> 0 (the intended path never fired)")
        if case.expect_degraded and not (
                result.coverage and result.coverage.degraded):
            mismatches.append("expected degraded coverage (the audit "
                              "conviction never registered)")
        if mismatches:
            return ChaosOutcome(case, ok=False,
                                detail=mismatches[0],
                                mismatches=mismatches)
        seen = []
        if tel.retries:
            seen.append(f"{tel.retries} retries")
        if tel.hung_killed:
            seen.append(f"{tel.hung_killed} hung killed")
        if tel.corrupt_results:
            seen.append(f"{tel.corrupt_results} corrupt results")
        if tel.quarantined_lines:
            seen.append(f"{tel.quarantined_lines} lines quarantined")
        if tel.hedge_wins:
            seen.append(f"{tel.hedge_wins} hedge wins")
        if tel.audit_divergences:
            seen.append(f"{tel.audit_divergences} divergences caught")
        if tel.workers_quarantined:
            seen.append(f"{tel.workers_quarantined} workers quarantined")
        return ChaosOutcome(case, ok=True,
                            detail=", ".join(seen) or "clean")
    finally:
        if workdir:
            shutil.rmtree(workdir, ignore_errors=True)


def _check_corpus(workdir: str, result: EngineResult) -> List[str]:
    """The persisted corpus must match the run's entries, dupe-free."""
    path = os.path.join(workdir, "corpus.jsonl")
    if not result.corpus_entries:
        return []
    if not os.path.exists(path):
        return ["corpus file was never written"]
    entries = load_corpus(path)
    lines = [e.to_json() for e in entries]
    uniq = {str(sorted(l.items())) for l in lines}
    bad: List[str] = []
    if len(uniq) != len(lines):
        bad.append(f"corpus has {len(lines) - len(uniq)} duplicate "
                   f"entries")
    if len(entries) != len(result.corpus_entries):
        bad.append(f"corpus has {len(entries)} entries, run produced "
                   f"{len(result.corpus_entries)}")
    return bad


def build_cases(max_workers: int = 2) -> List[ChaosCase]:
    """The chaos matrix: fault kind × mode × worker count."""
    counts = sorted({w for w in (1, 2, max_workers) if w <= max_workers})
    cases: List[ChaosCase] = []
    for exhaustive in (True, False):
        mode = "exhaustive" if exhaustive else "random"
        for w in counts:
            tag = f"{mode}/w{w}"
            # Transient exception on shard 1's first attempt: the retry
            # path, exercised inline and on worker nodes alike.
            cases.append(ChaosCase(
                name=f"{tag}/raise",
                plan=FaultPlan((Fault("worker.explore", "raise",
                                      shard=1, attempt=1),)),
                workers=w, exhaustive=exhaustive))
            # Torn checkpoint + corpus lines, then a resume that must
            # quarantine them and converge anyway.
            cases.append(ChaosCase(
                name=f"{tag}/torn-write",
                plan=FaultPlan((Fault("checkpoint.append", "torn"),
                                Fault("corpus.append", "torn"))),
                workers=w, exhaustive=exhaustive,
                durable=True, resume=True))
            # Disk full mid-campaign: the first run keeps its in-memory
            # result but degrades honestly (``exhausted=False``); a
            # fault-free resume over the same files must re-explore the
            # unpersisted shard and converge anyway.
            cases.append(ChaosCase(
                name=f"{tag}/enospc",
                plan=FaultPlan((Fault("checkpoint.append", "enospc"),
                                Fault("corpus.append", "enospc"))),
                workers=w, exhaustive=exhaustive,
                durable=True, resume=True))
            if w < 2:
                continue  # crash/hang/corrupt would take the driver down
            # A node dying hard mid-shard: its EOF requeues its lease.
            cases.append(ChaosCase(
                name=f"{tag}/crash",
                plan=FaultPlan((Fault("worker.explore", "crash",
                                      shard=1, attempt=1),)),
                workers=w, exhaustive=exhaustive,
                want_counter="retries"))
            # A node hung mid-shard: its lease expires, and the
            # coordinator kills and replaces it.
            cases.append(ChaosCase(
                name=f"{tag}/hang",
                plan=FaultPlan((Fault("worker.explore", "hang",
                                      shard=1, attempt=1),)),
                workers=w, exhaustive=exhaustive,
                want_counter="hung_killed"))
            cases.append(ChaosCase(
                name=f"{tag}/corrupt-result",
                plan=FaultPlan((Fault("worker.result", "corrupt",
                                      shard=0, attempt=1),)),
                workers=w, exhaustive=exhaustive))
            # The acceptance triple, together in one run.
            cases.append(ChaosCase(
                name=f"{tag}/crash+hang+torn",
                plan=FaultPlan((Fault("worker.explore", "crash",
                                      shard=1, attempt=1),
                                Fault("worker.explore", "hang",
                                      shard=2, attempt=1),
                                Fault("checkpoint.append", "torn"),
                                Fault("corpus.append", "torn"))),
                workers=w, exhaustive=exhaustive,
                durable=True, resume=True))
    if max_workers >= 2:
        # A worker pinned 2.5 s inside shard 1 — slow, not hung: the
        # delay site keeps heartbeating, so its lease stays renewed
        # and only hedging can rescue the shard.  The adaptive deadline
        # must fire, the speculative duplicate must win, and the merge
        # must still be byte-for-byte serial.
        cases.append(ChaosCase(
            name="hedge-straggler-rescue",
            plan=FaultPlan((Fault("hedge.slow_worker", "delay",
                                  shard=1, attempt=1,
                                  delay_seconds=2.5),)),
            workers=4, exhaustive=True,
            params_update=(("hedge", True), ("hedge_floor", 0.25),
                           ("hedge_factor", 1.5)),
            want_counter="hedge_wins"))
        # A worker that lies: shard 1's result blob has a digit of its
        # execution count rotated *before* the CRC is stamped, so the
        # wire/CRC layer accepts it and only the audit re-execution can
        # convict.  The trusted result must be substituted (merge still
        # matches serial), the worker quarantined, and coverage
        # degraded-not-exhausted.
        cases.append(ChaosCase(
            name="audit-catches-corruption",
            plan=FaultPlan((Fault("pool.flip_result_byte", "corrupt",
                                  shard=1, attempt=1),)),
            workers=2, exhaustive=True,
            params_update=(("audit_fraction", 1.0),),
            want_counter="audit_divergences",
            expect_degraded=True))
    return cases


# ----------------------------------------------------------------------
# Distributed rows: coordinator + real node processes over TCP
# ----------------------------------------------------------------------

#: Short leases so the expiry/requeue path resolves in test time.
DIST_LEASE_SECONDS = 1.5
DIST_NODE_WAIT = 30.0


@dataclass(frozen=True)
class DistChaosCase:
    """One distributed cell: network faults and/or a node killed."""

    name: str
    plan: FaultPlan
    #: SIGKILL the first node mid-shard (a hang fault pins it there
    #: deterministically) and let a late-joining node finish the run.
    kill_node: bool = False
    #: Telemetry counter that must be non-zero — proof the intended
    #: failure path actually ran, not that the fault missed.
    want_counter: Optional[str] = None


def _dist_node_main(host: str, port: int, node_id: str) -> None:
    from .dist.node import run_node
    raise SystemExit(run_node(host, port, node_id=node_id,
                              emit=lambda *_args: None))


def build_dist_cases() -> List[DistChaosCase]:
    """The distributed matrix: every network fault kind, plus a kill.

    Each row must still merge to the fault-free serial report — message
    loss, delay, duplication, severed connections, and a node dying
    mid-shard are all recoverable by leases + fencing + requeue.
    """
    return [
        # Node SIGKILLed while mid-shard (hang pins it inside shard 0's
        # exploration): its lease must expire, the shard requeue, and a
        # late-joining replacement node finish the run exactly.
        DistChaosCase(
            name="dist/node-sigkill",
            plan=FaultPlan((Fault("worker.explore", "hang",
                                  shard=0, attempt=1),)),
            kill_node=True, want_counter="leases_expired"),
        # A grant lost in flight: the node re-asks and the coordinator
        # re-grants the *same* lease idempotently.
        DistChaosCase(
            name="dist/drop-grant",
            plan=FaultPlan((Fault("net.send.grant", "drop",
                                  shard=1, attempt=1),))),
        # A result lost in flight: the node re-asks, re-explores the
        # same lease, and the resend lands.
        DistChaosCase(
            name="dist/drop-result",
            plan=FaultPlan((Fault("net.send.result", "drop",
                                  shard=0, attempt=1),))),
        # A result delayed in flight: slower, never wrong.
        DistChaosCase(
            name="dist/delay-result",
            plan=FaultPlan((Fault("net.send.result", "delay", shard=1,
                                  attempt=1, delay_seconds=0.4),))),
        # The connection severed while submitting: the node reconnects
        # with backoff, the shard requeues to another node.
        DistChaosCase(
            name="dist/sever-result",
            plan=FaultPlan((Fault("net.send.result", "sever",
                                  shard=2, attempt=1),)),
            want_counter="nodes_lost"),
        # Duplicate delivery: the second copy presents a settled lease's
        # token and must be fenced off, not double-counted.
        DistChaosCase(
            name="dist/duplicate-result",
            plan=FaultPlan((Fault("net.send.result", "duplicate",
                                  shard=1, attempt=1),)),
            want_counter="results_fenced"),
    ]


def run_dist_case(case: DistChaosCase,
                  baseline: ScenarioReport) -> ChaosOutcome:
    """Run one distributed cell: coordinator in-thread, nodes as
    processes, convergence checked against the serial baseline."""
    from .dist import Coordinator, DistParams
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")
    before = {p.pid for p in multiprocessing.active_children()}
    params = EngineParams(styles=CHAOS_STYLES, exhaustive=True,
                          runs=CHAOS_RUNS, seed=0, max_steps=100_000,
                          target_shards=4,
                          heartbeat_interval=CHAOS_HEARTBEAT)
    procs: List = []
    box: Dict = {}

    def start_node(name: str):
        proc = ctx.Process(target=_dist_node_main,
                           args=(coord.host, coord.port, name),
                           daemon=True)
        proc.start()
        procs.append(proc)
        return proc

    try:
        with case.plan:
            coord = Coordinator(params, CHAOS_SPEC,
                                DistParams(lease_seconds=DIST_LEASE_SECONDS,
                                           node_wait_seconds=DIST_NODE_WAIT))
            serve = threading.Thread(
                target=lambda: box.update(result=coord.serve()),
                daemon=True)
            serve.start()
            first = start_node("cn0")
            if case.kill_node:
                # Let cn0 lease shard 0 and hang inside it, then let the
                # lease actually expire (the federated-heartbeat path)
                # before the SIGKILL also severs its connection.
                time.sleep(DIST_LEASE_SECONDS + 1.0)
                if first.pid is not None:
                    os.kill(first.pid, signal.SIGKILL)
                first.join(timeout=5.0)
            start_node("cn1")
            serve.join(timeout=90.0)
        if serve.is_alive() or "result" not in box:
            return ChaosOutcome(case, ok=False,
                                detail="coordinator did not settle")
        result: EngineResult = box["result"]
        mismatches = report_mismatches(result.report, baseline)
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5.0)
    tel = result.telemetry
    if case.want_counter and not getattr(tel, case.want_counter, 0):
        mismatches.append(f"expected telemetry {case.want_counter} > 0 "
                          f"(the intended failure path never ran)")
    leaked = _leaked_children(before)
    if leaked:
        mismatches.append(f"leaked child processes: {leaked}")
    if mismatches:
        return ChaosOutcome(case, ok=False, detail=mismatches[0],
                            mismatches=mismatches)
    seen = [f"{tel.nodes_joined} nodes"]
    if tel.nodes_lost:
        seen.append(f"{tel.nodes_lost} lost")
    if tel.leases_expired:
        seen.append(f"{tel.leases_expired} leases expired")
    if tel.results_fenced:
        seen.append(f"{tel.results_fenced} results fenced")
    if tel.retries:
        seen.append(f"{tel.retries} retries")
    return ChaosOutcome(case, ok=True, detail=", ".join(seen))


# ----------------------------------------------------------------------
# Service row: kill -9 the campaign daemon mid-grant, restart, converge
# ----------------------------------------------------------------------


def run_service_case(baseline: ScenarioReport) -> ChaosOutcome:
    """The ``service-restart-recovery`` row: WAL replay under crash.

    A campaign daemon (`repro.service`) is started with a ``crash``
    fault injected inside the WAL's grant transition, a campaign is
    submitted, and the daemon dies mid-run (the injected ``os._exit``
    is indistinguishable from ``kill -9``).  A clean restart over the
    same data directory must replay the WAL, resume the job, and merge
    to the fault-free serial report — with every shard charged exactly
    once and a final SIGTERM drain exiting 0.
    """
    import json
    import subprocess
    import sys
    from .durable import read_records
    from .merge import report_from_json
    case = DistChaosCase(
        name="service-restart-recovery",
        plan=FaultPlan((Fault("service.grant", "crash",
                              shard=1, attempt=1),)))
    workdir = tempfile.mkdtemp(prefix="repro-chaos-svc-")
    data_dir = os.path.join(workdir, "svc")
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, "-m", "repro", "service", "serve",
           "--data-dir", data_dir, "--crash-loop-window", "0",
           "--local-nodes", "2"]
    log = open(os.path.join(workdir, "daemon.log"), "ab")
    daemon = None
    mismatches: List[str] = []
    try:
        crash_env = dict(env)
        crash_env["REPRO_FAULT_PLAN"] = case.plan.encode()
        daemon = subprocess.Popen(cmd, env=crash_env, stdout=log,
                                  stderr=subprocess.STDOUT)
        client = _service_discover(data_dir, daemon)
        params = EngineParams(styles=CHAOS_STYLES, exhaustive=True,
                              runs=CHAOS_RUNS, seed=0, max_steps=100_000)
        wire = params.wire_json()
        wire["target_shards"] = 4
        resp = client.submit(name="chaos", spec_json=CHAOS_SPEC.to_json(),
                             params_json=wire, dedupe_key="chaos-svc")
        job_id = resp["job"]
        # The injected crash fires at shard 1's first grant.
        rc = daemon.wait(timeout=60.0)
        if rc != 86:
            mismatches.append(f"daemon exited {rc}, expected the "
                              f"injected crash (86)")
        # Clean restart: WAL replay must resume and finish the job.
        daemon = subprocess.Popen(cmd, env=env, stdout=log,
                                  stderr=subprocess.STDOUT)
        client = _service_discover(data_dir, daemon)
        deadline = time.time() + 90.0
        job = None
        while time.time() < deadline:
            job = client.status(job_id)["jobs"][0]
            if job["state"] not in ("submitted", "running"):
                break
            time.sleep(0.3)
        if job is None or job["state"] != "done":
            state = job["state"] if job else "unknown"
            mismatches.append(f"resumed job ended {state}, not done")
        else:
            report_path = os.path.join(data_dir, "jobs", job_id,
                                       "report.json")
            with open(report_path, "r", encoding="utf-8") as fh:
                got = report_from_json(json.load(fh))
            mismatches.extend(report_mismatches(got, baseline))
            records, _diag = read_records(
                os.path.join(data_dir, "wal.jsonl"))
            merges = [r["shard"] for r in records
                      if r.get("rec") == "merge"]
            if len(merges) != len(set(merges)):
                mismatches.append(f"shards double-charged in the WAL: "
                                  f"{sorted(merges)}")
        daemon.send_signal(signal.SIGTERM)
        rc = daemon.wait(timeout=30.0)
        if rc != 0:
            mismatches.append(f"SIGTERM drain exited {rc}, expected 0")
        daemon = None
    except Exception as err:  # noqa: BLE001 — a row fails, chaos goes on
        mismatches.append(f"service row error: {err!r}")
    finally:
        if daemon is not None and daemon.poll() is None:
            daemon.kill()
            daemon.wait()
        log.close()
        shutil.rmtree(workdir, ignore_errors=True)
    if mismatches:
        return ChaosOutcome(case, ok=False, detail=mismatches[0],
                            mismatches=mismatches)
    return ChaosOutcome(case, ok=True,
                        detail="killed mid-grant, resumed, converged, "
                               "drained clean")


def _service_discover(data_dir: str, daemon) -> "object":
    """Wait for the daemon's discovery file; return a client for it."""
    import json
    from ..service import ServiceClient
    path = os.path.join(data_dir, "service.json")
    deadline = time.time() + 30.0
    while time.time() < deadline:
        if daemon.poll() is not None:
            raise RuntimeError(f"daemon died during startup "
                               f"(exit {daemon.returncode})")
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                info = json.load(fh)
            if info.get("pid") == daemon.pid:
                return ServiceClient(info["host"], info["api_port"])
        time.sleep(0.1)
    raise RuntimeError("daemon never wrote its discovery file")


def run_chaos(max_workers: int = 2,
              emit: Optional[Callable[[str], None]] = None,
              only: Optional[str] = None) -> List[ChaosOutcome]:
    """Run the whole matrix; ``emit`` gets one line per cell.

    ``only`` is a substring filter over row names — CI uses it to run
    just the hedge/audit rows without paying for the full matrix.
    """
    say = emit or (lambda _line: None)

    def wanted(name: str) -> bool:
        return only is None or only in name

    baselines: Dict[bool, ScenarioReport] = {
        mode: baseline_report(mode) for mode in (True, False)}
    outcomes: List[ChaosOutcome] = []
    for case in build_cases(max_workers):
        if not wanted(case.name):
            continue
        outcome = run_case(case, baselines[case.exhaustive])
        outcomes.append(outcome)
        status = "ok" if outcome.ok else "FAIL"
        say(f"  {case.name:<34} {status:<4} {outcome.detail}")
        for extra in outcome.mismatches[1:]:
            say(f"    {extra}")
    for dist_case in build_dist_cases():
        if not wanted(dist_case.name):
            continue
        outcome = run_dist_case(dist_case, baselines[True])
        outcomes.append(outcome)
        status = "ok" if outcome.ok else "FAIL"
        say(f"  {dist_case.name:<34} {status:<4} {outcome.detail}")
        for extra in outcome.mismatches[1:]:
            say(f"    {extra}")
    if wanted("service-restart-recovery"):
        outcome = run_service_case(baselines[True])
        outcomes.append(outcome)
        status = "ok" if outcome.ok else "FAIL"
        say(f"  {outcome.case.name:<34} {status:<4} {outcome.detail}")
        for extra in outcome.mismatches[1:]:
            say(f"    {extra}")
    return outcomes
