"""Command-line entry point: ``python -m repro <command>``.

Gives downstream users the paper's experiments without writing code:

    python -m repro litmus            # E8: litmus outcome sets
    python -m repro diffmodels        # memory-model lattice check
    python -m repro mp                # E1: Fig. 1 MP client
    python -m repro matrix            # E2: spec-satisfaction matrix
    python -m repro client-logic      # E3: spec-level outcome enumeration
    python -m repro spsc              # E4: SPSC FIFO sweep
    python -m repro elim              # E6: elimination-stack composition
    python -m repro effort            # E7: mechanization-effort table
    python -m repro loc               # source inventory
    python -m repro replay corpus.jsonl   # re-execute counterexamples
    python -m repro fuzz --budget 2000 --seed 42   # scenario fuzzing
    python -m repro chaos             # fault-injection self-test matrix
    python -m repro crashcheck        # enumerate every crash state
    python -m repro fsck DIR --repair # audit + heal all durable state
    python -m repro serve             # distributed coordinator
    python -m repro work --connect HOST:PORT   # distributed worker node
    python -m repro service serve     # crash-resumable campaign daemon
    python -m repro service submit    # submit a campaign to the daemon

The exploration commands (``mp``, ``matrix``, ``spsc``, ``elim``) accept
the parallel-engine flag group:

    --workers N       shard the exploration across N processes
    --progress        live executions/sec, ETA, per-worker counters
    --resume PATH     checkpoint completed shards to PATH and resume
                      an interrupted run from it
    --corpus PATH     persist every failing trace as a replayable
                      JSONL corpus entry
    --corpus-cap N    cap on persisted corpus entries per run
    --shard-timeout S worker lease: seconds without a heartbeat before
                      a worker node is killed and replaced
    --max-retries N   per-shard retry budget (with jittered exponential
                      backoff between attempts)
    --shard-seconds / --run-seconds / --max-rss-mb
                      graceful-degradation budgets (docs/robustness.md)
    --dpor/--no-dpor  sleep-set partial-order reduction for exhaustive
                      exploration (docs/dpor.md; default: on)
    --model M         memory model to explore under (sc|tso|ra|orc11,
                      docs/memory_model.md; default orc11)
"""

from __future__ import annotations

import argparse
import sys


def _engine_kwargs(args) -> dict:
    kwargs = {
        "workers": args.workers,
        "checkpoint": args.resume,
        "corpus": args.corpus,
        "progress": args.progress,
        "shard_seconds": args.shard_seconds,
        "run_seconds": args.run_seconds,
        "max_rss_mb": args.max_rss_mb,
        "dpor": args.dpor,
        "max_retries": args.max_retries,
        "corpus_cap": args.corpus_cap,
        "model": args.model or "orc11",
        "hedge": args.hedge,
        "audit_fraction": args.audit_fraction,
    }
    if args.shard_timeout is not None:
        kwargs["shard_timeout"] = (None if args.shard_timeout <= 0
                                   else args.shard_timeout)
    return kwargs


def _print_coverage(report) -> None:
    """One honest line when a run degraded under a budget."""
    cov = getattr(report, "coverage", None)
    if cov is not None and getattr(cov, "degraded", False):
        print(f"    {cov.line()}")


def cmd_litmus(args) -> int:
    from .rmc.litmus import CATALOGUE, outcomes
    model = args.model or "orc11"
    for name in sorted(CATALOGUE):
        outs = sorted(outcomes(CATALOGUE[name], model=model), key=repr)
        print(f"{name}: {len(outs)} outcomes"
              + (f" under {model}" if model != "orc11" else ""))
        for o in outs:
            print(f"    {o}")
    return 0


def cmd_mp(args) -> int:
    from .checking import check_scenario
    from .engine import ScenarioSpec, build_scenario
    for impl in ("ms", "hw"):
        for use_flag in (True, False):
            spec = ScenarioSpec("mp-queue",
                                kwargs={"impl": impl, "use_flag": use_flag})
            rep = check_scenario(build_scenario(spec), styles=(),
                                 runs=args.runs, seed=1, max_steps=100_000,
                                 spec=spec, **_engine_kwargs(args))
            flag = "with flag" if use_flag else "WITHOUT flag"
            print(f"{impl} {flag}: {rep.complete} completed, "
                  f"right-thread empty: {rep.outcome_failures}")
            _print_coverage(rep)
    return 0


def cmd_matrix(args) -> int:
    from .checking import run_matrix
    print(run_matrix(runs=args.runs, workers=args.workers,
                     progress=args.progress, dpor=args.dpor,
                     model=args.model or "orc11").render())
    return 0


def cmd_client_logic(_args) -> int:
    from .core import (EMPTY, SpecStyle, mp_skeleton, possible_outcomes,
                       spsc_skeleton)
    skel = mp_skeleton()
    for style in (SpecStyle.LAT_SO_ABS, SpecStyle.LAT_HB_ABS,
                  SpecStyle.LAT_HB):
        outs = possible_outcomes(skel, style)
        shown = sorted(
            "(" + ", ".join("ε" if v is EMPTY else str(v) for v in o) + ")"
            for o in outs)
        print(f"{style}: {shown}")
    outs = possible_outcomes(spsc_skeleton(3), SpecStyle.LAT_HB)
    full = sorted(str(o) for o in outs if EMPTY not in o)
    print(f"SPSC(3) complete transfers under LAT_hb: {full}")
    return 0


def cmd_spsc(args) -> int:
    from .checking import check_scenario
    from .engine import ScenarioSpec, build_scenario
    for impl in ("ms", "hw"):
        for n in (2, 4, 8):
            spec = ScenarioSpec("spsc", kwargs={"impl": impl, "n": n,
                                                "capacity": 64})
            rep = check_scenario(build_scenario(spec), styles=(),
                                 runs=args.runs, seed=n, max_steps=100_000,
                                 spec=spec, **_engine_kwargs(args))
            print(f"{impl} n={n}: FIFO violations "
                  f"{rep.outcome_failures}/{args.runs}")
            _print_coverage(rep)
    return 0


def cmd_elim(args) -> int:
    from .checking import check_scenario
    from .core import SpecStyle
    from .engine import ScenarioSpec, build_scenario
    spec = ScenarioSpec("elim-only", kwargs={"patience": 4, "attempts": 2})
    rep = check_scenario(build_scenario(spec),
                         styles=(SpecStyle.LAT_HB,), runs=args.runs,
                         seed=1, max_steps=60_000, spec=spec,
                         **_engine_kwargs(args))
    bad = rep.styles[SpecStyle.LAT_HB].failed
    elim = rep.metrics.get("eliminated_pairs", 0)
    print(f"elim-only ES: violations={bad}, eliminated pairs={elim} "
          f"over {args.runs} runs")
    _print_coverage(rep)
    return 0


def cmd_replay(args) -> int:
    import os
    from .engine import ModelMismatch, load_corpus, replay_entry
    path = args.target or args.corpus
    if not path:
        print("replay: pass a corpus file "
              "(python -m repro replay corpus.jsonl)", file=sys.stderr)
        return 2
    if not os.path.exists(path):
        # Exit 2, one line: a missing file is a usage error, not a
        # stack trace and not the same thing as an empty corpus.
        print(f"replay: no such corpus file: {path}", file=sys.stderr)
        return 2
    try:
        entries = load_corpus(path)
    except OSError as err:
        print(f"replay: cannot read {path}: {err}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as err:
        print(f"replay: {path} is not a corpus file: {err}",
              file=sys.stderr)
        return 2
    diag = getattr(entries, "diagnostics", None)
    if diag is not None and diag.corrupt:
        where = f" (quarantined to {diag.rejected_path})" \
            if diag.rejected_path else ""
        print(f"replay: skipped {diag.corrupt} corrupt corpus "
              f"line(s){where}", file=sys.stderr)
    if not entries:
        print(f"replay: no corpus entries in {path}", file=sys.stderr)
        return 2
    if args.entry is not None:
        if not 0 <= args.entry < len(entries):
            print(f"replay: entry {args.entry} out of range "
                  f"(corpus has {len(entries)})", file=sys.stderr)
            return 2
        selected = [(args.entry, entries[args.entry])]
    else:
        selected = list(enumerate(entries))
    failures = 0
    for i, entry in selected:
        try:
            out = replay_entry(entry, model=args.model)
        except ModelMismatch as err:
            # Exit 2, one line: a trace indexes into model-dependent
            # choice sets; replaying it under another model is a usage
            # error (docs/engine.md exit-code table).
            print(f"replay: entry {i}: {err}", file=sys.stderr)
            return 2
        except KeyError as err:
            # A corpus written by a newer catalogue: the entry names a
            # scenario builder this checkout does not register.
            print(f"replay: entry {i} needs unknown scenario builder "
                  f"{err.args[0] if err.args else err!r}",
                  file=sys.stderr)
            return 2
        what = entry.kind + (f" {entry.style}" if entry.style else "")
        status = "reproduced" if out.reproduced else "NOT reproduced"
        print(f"entry {i} [{entry.scenario_name}] {what}: {status}"
              + (f" — {out.detail}" if out.detail else ""))
        failures += not out.reproduced
    print(f"{len(selected) - failures}/{len(selected)} reproduced")
    return 1 if failures else 0


def cmd_fuzz(args) -> int:
    """Run a budgeted fuzz campaign (docs/fuzzing.md)."""
    from .fuzz import FuzzParams, GrammarConfig, run_campaign
    config = GrammarConfig(max_threads=args.max_threads,
                           max_ops=args.max_ops,
                           include_broken=args.include_broken)
    params = FuzzParams(
        budget=args.budget, seconds=args.budget_seconds, seed=args.seed,
        workers=args.workers, per_case=args.per_case,
        exhaustive=args.exhaustive, config=config,
        corpus_path=args.corpus, shrink_budget=args.shrink_budget,
        max_shrinks=args.max_shrinks, progress=args.progress,
        model=args.model or "orc11")
    if args.corpus_cap is not None:
        params.corpus_cap = args.corpus_cap
    report = run_campaign(
        params, emit=lambda line: print(line, file=sys.stderr, flush=True))
    print(report.summary())
    # Exit honestly: violations on clean (non-broken) signatures are
    # findings in the checkers/machine, not fuzzing business as usual.
    return 1 if report.unexpected else 0


def cmd_chaos(args) -> int:
    from .engine.chaos import run_chaos
    workers = max(2, args.workers)
    print(f"chaos: fault-injection matrix, up to {workers} workers")
    outcomes = run_chaos(max_workers=workers, emit=print, only=args.only)
    if not outcomes:
        print(f"chaos: no rows match --only {args.only!r}")
        return 1
    failed = [o for o in outcomes if not o.ok]
    print(f"chaos: {len(outcomes) - len(failed)}/{len(outcomes)} cells "
          f"converged to the fault-free report")
    return 1 if failed else 0


def cmd_crashcheck(args) -> int:
    """Enumerate every on-disk crash state of a scripted campaign and
    assert the recovery invariants from each (docs/robustness.md)."""
    from .engine.crashcheck import run_crashcheck
    report = run_crashcheck(
        limit=args.limit,
        emit=lambda line: print(line, file=sys.stderr, flush=True))
    print(report.summary())
    return 0 if report.ok else 1


def cmd_fsck(args) -> int:
    """Audit (and with --repair heal) every durable artifact under a
    path: per-record integrity, torn tails, stray temp files, and the
    WAL's cross-record accounting invariants (docs/engine.md)."""
    import os
    from .engine.fsck import run_fsck
    target = args.target
    if not target:
        print("fsck: pass a data directory or artifact file "
              "(python -m repro fsck .repro-service [--repair])",
              file=sys.stderr)
        return 2
    if not os.path.exists(target):
        print(f"fsck: no such path: {target}", file=sys.stderr)
        return 2
    report = run_fsck(target, repair=args.repair,
                      emit=lambda line: print(line, file=sys.stderr,
                                              flush=True))
    print(report.summary())
    return report.exit_code()


def cmd_serve(args) -> int:
    """Coordinate a distributed exploration (docs/distributed.md)."""
    import json
    from .core.spec_styles import SpecStyle
    from .engine import ScenarioSpec
    from .engine.dist import DistParams, serve_scenario
    from .engine.merge import report_to_json
    from .engine.pool import EngineParams
    spec = ScenarioSpec("mixed-stress",
                        kwargs={"impl": args.impl, "threads": args.threads,
                                "ops": args.ops, "seed": args.seed})
    params = EngineParams(
        styles=(SpecStyle.LAT_HB,), exhaustive=True,
        seed=args.seed, target_shards=args.target_shards,
        checkpoint_path=args.resume, corpus_path=args.corpus,
        progress=args.progress, max_retries=args.max_retries,
        run_seconds=args.run_seconds, dpor=args.dpor,
        model=args.model or "orc11", hedge=args.hedge,
        audit_fraction=args.audit_fraction)
    dist = DistParams(host=args.host, port=args.port,
                      lease_seconds=args.lease_seconds,
                      node_wait_seconds=args.node_wait)
    result = serve_scenario(
        params, spec, dist,
        on_listening=lambda host, port: print(
            f"serve: coordinating {spec.kwargs['impl']} on {host}:{port} "
            f"(connect with: python -m repro work --connect {host}:{port})",
            flush=True))
    rep = result.report
    print(f"serve: {rep.executions} executions, "
          f"{result.coverage.shards_complete}/"
          f"{result.coverage.shards_total} shards, "
          f"exhausted={rep.exhausted}")
    _print_coverage(rep)
    if args.report_json:
        with open(args.report_json, "w", encoding="utf-8") as fh:
            json.dump(report_to_json(rep), fh, sort_keys=True, indent=2)
        print(f"serve: report written to {args.report_json}")
    # Exit honestly: a degraded merge is not the full answer.
    return 1 if result.coverage.degraded else 0


def cmd_work(args) -> int:
    """Join a coordinator as a worker node (docs/distributed.md)."""
    from .engine.dist import run_node
    from .engine.dist.protocol import parse_hostport
    if not args.connect:
        print("work: pass --connect HOST:PORT", file=sys.stderr)
        return 2
    host, port = parse_hostport(args.connect, default_port=7671)
    return run_node(host, port, node_id=args.node_id,
                    max_reconnects=args.max_reconnects)


SERVICE_VERBS = ("serve", "submit", "status", "cancel", "findings",
                 "drain")


def _service_spec_params(args) -> tuple:
    """The (spec, params) wire forms a submit verb sends."""
    from .core.spec_styles import SpecStyle
    from .engine import ScenarioSpec
    from .engine.pool import EngineParams
    spec = ScenarioSpec("mixed-stress",
                        kwargs={"impl": args.impl, "threads": args.threads,
                                "ops": args.ops, "seed": args.seed})
    params = EngineParams(styles=(SpecStyle.LAT_HB,), exhaustive=True,
                          seed=args.seed, dpor=args.dpor,
                          model=args.model or "orc11", hedge=args.hedge,
                          audit_fraction=args.audit_fraction)
    wire = params.wire_json()
    wire["target_shards"] = args.target_shards
    return spec.to_json(), wire


def _service_client(args):
    """Find the daemon (service.json beats flags) and build a client."""
    import json as _json
    import os
    from .service import ServiceClient
    host, port = args.host, args.api_port
    discovery = os.path.join(args.data_dir, "service.json")
    if os.path.exists(discovery):
        with open(discovery, "r", encoding="utf-8") as fh:
            info = _json.load(fh)
        host = info.get("host", host)
        port = info.get("api_port", port)
    if not port:
        print(f"service: no daemon found (no {discovery}; start one "
              f"with: python -m repro service serve --data-dir "
              f"{args.data_dir})", file=sys.stderr)
        return None
    return ServiceClient(host, int(port))


def cmd_service(args) -> int:
    """Campaign-service verbs (docs/service.md)."""
    from .service import ServiceError
    verb = args.target
    if verb not in SERVICE_VERBS:
        print(f"service: pass a verb: {'|'.join(SERVICE_VERBS)}",
              file=sys.stderr)
        return 2
    if verb == "serve":
        from .service import CampaignDaemon, ServiceConfig
        config = ServiceConfig(
            data_dir=args.data_dir, host=args.host,
            api_port=args.api_port or 0, node_port=args.node_port,
            local_nodes=args.local_nodes,
            lease_seconds=args.lease_seconds,
            node_wait_seconds=args.node_wait,
            crash_loop_window=args.crash_loop_window,
            target_shards=args.target_shards,
            max_retries=args.max_retries, progress=args.progress)
        return CampaignDaemon(config).run()
    client = _service_client(args)
    if client is None:
        return 2
    try:
        if verb == "submit":
            spec_json, params_json = _service_spec_params(args)
            resp = client.submit(name=args.job or spec_json["builder"],
                                 spec_json=spec_json,
                                 params_json=params_json,
                                 dedupe_key=args.dedupe_key or "")
            job_id = resp["job"]
            if args.quiet:
                print(job_id)
            else:
                word = "submitted" if resp.get("created") else "deduped to"
                print(f"service: {word} {job_id} "
                      f"(state {resp.get('state')})")
            if args.wait:
                return _service_wait(client, job_id, quiet=args.quiet)
            return 0
        if verb == "status":
            resp = client.status(args.job)
            if resp.get("draining"):
                print("service: draining")
            for job in resp.get("jobs", []):
                line = (f"{job['job']} [{job['state']}] {job['name']}: "
                        f"{job['merged']} merged / {job['grants']} "
                        f"granted shards")
                summary = job.get("summary") or {}
                if summary:
                    line += (f" — {summary.get('executions', 0)} "
                             f"executions, "
                             f"{summary.get('shards_complete', 0)}/"
                             f"{summary.get('shards_total', 0)} shards")
                if job.get("divergences"):
                    line += (f" — {job['divergences']} result "
                             f"divergence(s), see 'service findings'")
                if job.get("error"):
                    line += f" — {job['error']}"
                print(line)
            return 0
        if verb == "findings":
            resp = client.findings(args.job)
            found = resp.get("findings", [])
            if not found:
                print("service: no result divergences recorded")
            for item in found:
                detail = (item.get("finding") or {}).get(
                    "detail", "result-divergence")
                print(f"{item['job']} shard {item['shard']} from "
                      f"{item.get('node') or '?'}: {detail}")
            return 0
        if verb == "cancel":
            if not args.job:
                print("service: cancel needs --job JOB_ID",
                      file=sys.stderr)
                return 2
            resp = client.cancel(args.job)
            print(f"service: {args.job} "
                  f"{'cancelled' if resp.get('cancelled') else 'already ' + str(resp.get('state'))}")
            return 0
        # drain
        client.drain()
        print("service: drain requested (daemon exits 0 once in-flight "
              "leases finish)")
        return 0
    except ServiceError as err:
        print(f"service: {err}", file=sys.stderr)
        return 1


def _service_wait(client, job_id: str, quiet: bool) -> int:
    import time as _time
    from .service import DONE, ServiceError
    while True:
        try:
            resp = client.status(job_id)
        except ServiceError as err:
            print(f"service: {err}", file=sys.stderr)
            return 1
        job = resp["jobs"][0]
        if job["state"] in ("done", "failed", "cancelled"):
            summary = job.get("summary") or {}
            if not quiet:
                print(f"service: {job_id} finished [{job['state']}] — "
                      f"{summary.get('executions', 0)} executions, "
                      f"{summary.get('shards_complete', 0)}/"
                      f"{summary.get('shards_total', 0)} shards")
            ok = job["state"] == DONE and not summary.get("degraded")
            return 0 if ok else 1
        _time.sleep(0.3)


def cmd_effort(_args) -> int:
    import importlib.util
    import os
    bench = os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))), "benchmarks",
        "bench_effort_table.py")
    if os.path.exists(bench):
        spec = importlib.util.spec_from_file_location("bench_effort", bench)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        from .checking import render_table, effort_table
        print(render_table(effort_table(mod.battery())))
        return 0
    print("bench_effort_table.py not found (installed package without "
          "the benchmarks tree)")
    return 1


def cmd_loc(_args) -> int:
    import os
    from .tools.loc import count_tree, summarize
    root = os.path.dirname(os.path.abspath(__file__))
    counts = count_tree(root)
    for path, c in sorted(counts.items()):
        print(f"{path:<40} code={c.code:>5} doc={c.doc:>5} total={c.total:>5}")
    total = summarize(counts)
    print(f"{'TOTAL':<40} code={total.code:>5} doc={total.doc:>5} "
          f"total={total.total:>5}")
    return 0


def cmd_diffmodels(args) -> int:
    """Differential memory-model lattice check (docs/memory_model.md)."""
    import json
    from .models import LATTICE
    from .models import diff
    report = diff.run_diff(models=LATTICE, fuzz_cases=args.fuzz_cases,
                           seed=args.seed, emit=print)
    for f in report.findings:
        print(("FINDING " if f.fatal else "note    ") + f.line())
        for outcome in f.delta:
            print(f"    extra outcome: {outcome}")
    chain = " <= ".join(m for m in report.models)
    verdict = "hold" if report.ok else "VIOLATED"
    print(f"diffmodels: {report.scenarios} scenarios x "
          f"{len(report.models)} models; inclusions {verdict} ({chain})")
    if args.report_json:
        with open(args.report_json, "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, sort_keys=True, indent=2)
        print(f"diffmodels: report written to {args.report_json}")
    # Exit honestly: a lattice delta is a model soundness bug.
    return 0 if report.ok else 1


COMMANDS = {
    "litmus": cmd_litmus,
    "diffmodels": cmd_diffmodels,
    "mp": cmd_mp,
    "matrix": cmd_matrix,
    "client-logic": cmd_client_logic,
    "spsc": cmd_spsc,
    "elim": cmd_elim,
    "effort": cmd_effort,
    "loc": cmd_loc,
    "replay": cmd_replay,
    "fuzz": cmd_fuzz,
    "chaos": cmd_chaos,
    "crashcheck": cmd_crashcheck,
    "fsck": cmd_fsck,
    "serve": cmd_serve,
    "work": cmd_work,
    "service": cmd_service,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run the Compass-reproduction experiments.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("target", nargs="?", default=None,
                        help="replay: path to a corpus JSONL file; "
                             "service: verb (serve|submit|status|"
                             "cancel|findings|drain); fsck: data "
                             "directory or artifact file to audit")
    parser.add_argument("--runs", type=int, default=200,
                        help="randomized executions per configuration")
    engine = parser.add_argument_group(
        "parallel engine (mp, matrix, spsc, elim)")
    engine.add_argument("--workers", type=int, default=1,
                        help="worker processes for sharded exploration")
    engine.add_argument("--progress", action="store_true",
                        help="print executions/sec, ETA, and per-worker "
                             "counters to stderr")
    engine.add_argument("--resume", metavar="PATH", default=None,
                        help="checkpoint completed shards to PATH; rerun "
                             "the same command to resume")
    engine.add_argument("--corpus", metavar="PATH", default=None,
                        help="append every failing trace to PATH as a "
                             "replayable corpus entry")
    engine.add_argument("--corpus-cap", type=int, default=None,
                        metavar="N",
                        help="cap on corpus entries persisted per run "
                             "(default 100)")
    engine.add_argument("--entry", type=int, default=None,
                        help="replay: only this corpus entry index")
    engine.add_argument("--shard-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="worker lease: seconds without a heartbeat "
                             "before a worker node is killed and replaced "
                             "(<= 0 to wait forever; default 300)")
    engine.add_argument("--shard-seconds", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock budget per shard; on breach the "
                             "shard returns a partial report")
    engine.add_argument("--run-seconds", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock budget for the whole run; "
                             "remaining shards are skipped on breach")
    engine.add_argument("--max-rss-mb", type=float, default=None,
                        metavar="MIB",
                        help="peak-RSS ceiling per worker process")
    engine.add_argument("--dpor", action=argparse.BooleanOptionalAction,
                        default=None,
                        help="sleep-set partial-order reduction for "
                             "exhaustive exploration (default: on; "
                             "--no-dpor for the naive enumeration)")
    engine.add_argument("--model", default=None,
                        choices=("sc", "tso", "ra", "orc11"),
                        help="memory model to explore/replay under "
                             "(docs/memory_model.md; default orc11; "
                             "replay: verified against the model "
                             "recorded in each corpus entry)")
    engine.add_argument("--max-retries", type=int, default=2,
                        metavar="N",
                        help="per-shard retry budget before the shard is "
                             "declared failed (jittered exponential "
                             "backoff between attempts; default 2)")
    engine.add_argument("--hedge", action="store_true",
                        help="speculatively re-dispatch straggler shards "
                             "past an adaptive per-shard deadline "
                             "(docs/robustness.md; merge stays "
                             "byte-identical)")
    engine.add_argument("--audit-fraction", type=float, default=0.0,
                        metavar="F",
                        help="re-execute this fraction of completed "
                             "shards in the driver and compare report "
                             "fingerprints; a divergence quarantines "
                             "the origin worker (default 0: off)")
    dist = parser.add_argument_group(
        "distributed engine (serve, work — docs/distributed.md)")
    dist.add_argument("--host", default="127.0.0.1",
                      help="serve: interface to bind (default 127.0.0.1)")
    dist.add_argument("--port", type=int, default=7671,
                      help="serve: TCP port (0 for an ephemeral port)")
    dist.add_argument("--impl", default="vyukov-queue/rlx",
                      help="serve: mixed-stress implementation to explore")
    dist.add_argument("--threads", type=int, default=2,
                      help="serve: mixed-stress worker threads")
    dist.add_argument("--ops", type=int, default=1,
                      help="serve: operations per thread")
    dist.add_argument("--seed", type=int, default=0,
                      help="serve/fuzz: scenario seed / campaign "
                           "master seed")
    dist.add_argument("--target-shards", type=int, default=8,
                      metavar="N", help="serve: shard-count target")
    dist.add_argument("--lease-seconds", type=float, default=10.0,
                      metavar="S",
                      help="serve: lease deadline; a node that stops "
                           "heartbeating loses its shard after this")
    dist.add_argument("--node-wait", type=float, default=30.0,
                      metavar="S",
                      help="serve: how long to wait with zero connected "
                           "nodes before degrading to partial coverage")
    dist.add_argument("--report-json", metavar="PATH", default=None,
                      help="serve: write the merged report as JSON "
                           "(for equivalence checks against a serial run)")
    dist.add_argument("--connect", metavar="HOST:PORT", default=None,
                      help="work: coordinator address to join")
    dist.add_argument("--node-id", default=None,
                      help="work: stable node identity "
                           "(default hostname:pid)")
    dist.add_argument("--max-reconnects", type=int, default=8,
                      metavar="N",
                      help="work: consecutive failed reconnect attempts "
                           "before the node gives up")
    service = parser.add_argument_group(
        "campaign service (service serve|submit|status|cancel|"
        "findings|drain — "
        "docs/service.md; serve/submit also honour --impl, --threads, "
        "--ops, --seed, --target-shards, --lease-seconds, --node-wait, "
        "--max-retries, --progress)")
    service.add_argument("--data-dir", default=".repro-service",
                         metavar="DIR",
                         help="service: daemon state directory (WAL, "
                              "per-job checkpoints, service.json "
                              "discovery file; default .repro-service)")
    service.add_argument("--api-port", type=int, default=0,
                         metavar="PORT",
                         help="service serve: client API port (default "
                              "ephemeral, persisted in service.json)")
    service.add_argument("--node-port", type=int, default=0,
                         metavar="PORT",
                         help="service serve: worker-node port (default "
                              "ephemeral, persisted in service.json)")
    service.add_argument("--local-nodes", type=int, default=2,
                         metavar="N",
                         help="service serve: worker-node subprocesses "
                              "spawned per job (default 2; remote nodes "
                              "can attach on top)")
    service.add_argument("--job", default=None, metavar="JOB_ID",
                         help="service: job to show (status) / cancel; "
                              "submit: campaign name")
    service.add_argument("--dedupe-key", default=None, metavar="KEY",
                         help="service submit: idempotency key — a "
                              "retried submit with the same key lands "
                              "on the same job")
    service.add_argument("--wait", action="store_true",
                         help="service submit: block until the job "
                              "settles; exit 0 only on an undegraded "
                              "DONE")
    service.add_argument("--quiet", action="store_true",
                         help="service submit: print only the job id")
    service.add_argument("--crash-loop-window", type=float, default=60.0,
                         metavar="S",
                         help="service serve: restart-backoff window of "
                              "the crash-loop guard (0 disables; "
                              "default 60)")
    robust = parser.add_argument_group(
        "crash consistency (crashcheck, fsck — docs/robustness.md)")
    robust.add_argument("--limit", type=int, default=None, metavar="N",
                        help="crashcheck: check at most N distinct crash "
                             "states (enumeration stays complete; "
                             "default: check all)")
    robust.add_argument("--repair", action="store_true",
                        help="fsck: quarantine damaged records to the "
                             ".rejected sidecar and atomically rewrite "
                             "each artifact with its intact lines")
    robust.add_argument("--only", default=None, metavar="SUBSTR",
                        help="chaos: run only matrix rows whose name "
                             "contains SUBSTR (e.g. --only hedge)")
    fuzz = parser.add_argument_group(
        "scenario fuzzing (fuzz — docs/fuzzing.md; also honours "
        "--seed, --workers, --corpus, --corpus-cap, --progress)")
    fuzz.add_argument("--budget", type=int, default=2000,
                      help="fuzz: total execution budget for the "
                           "campaign (default 2000)")
    fuzz.add_argument("--budget-seconds", type=float, default=None,
                      metavar="S",
                      help="fuzz: optional wall-clock stop (flagged "
                           "'time limited' in the report; makes the "
                           "run non-deterministic)")
    fuzz.add_argument("--per-case", type=int, default=30, metavar="N",
                      help="fuzz: randomized executions per generated "
                           "case (default 30)")
    fuzz.add_argument("--exhaustive", action="store_true",
                      help="fuzz: explore each case exhaustively "
                           "(DPOR on) instead of randomized")
    fuzz.add_argument("--include-broken", action="store_true",
                      help="fuzz: include the deliberately broken "
                           "signatures (positive control; their "
                           "violations are expected)")
    fuzz.add_argument("--max-threads", type=int, default=3, metavar="N",
                      help="fuzz: grammar thread-count ceiling "
                           "(default 3)")
    fuzz.add_argument("--max-ops", type=int, default=4, metavar="N",
                      help="fuzz: grammar ops-per-thread ceiling "
                           "(default 4)")
    fuzz.add_argument("--shrink-budget", type=int, default=250,
                      metavar="N",
                      help="fuzz: oracle calls per shrink (default 250)")
    fuzz.add_argument("--max-shrinks", type=int, default=25, metavar="N",
                      help="fuzz: failures shrunk and persisted per "
                           "campaign; the rest are counted (default 25)")
    models = parser.add_argument_group(
        "memory models (diffmodels — docs/memory_model.md; also "
        "honours --seed; every exploration command honours --model)")
    models.add_argument("--fuzz-cases", type=int, default=10, metavar="N",
                        help="diffmodels: generated fuzz-grammar "
                             "scenarios checked on top of the litmus "
                             "catalogue (default 10; 0 disables)")
    args = parser.parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
