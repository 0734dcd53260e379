"""The repository benchmark: time-to-verdict on three workloads.

    python3 perfbench/run.py --workload W [--seed N] [--seconds S]
                              [--trace 0|1]

Workloads (see ``workloads.py`` and ``BENCHMARK.json``):

* ``dpor-exhaustive`` — serial exhaustive `check_scenario` (sleep-set
  DPOR, ``LAT_hb``) over seven ``mixed-stress`` cells;
* ``matrix-random`` — serial randomized `run_matrix`, 11 implementations
  × 3 stress mixes × 4 spec styles;
* ``engine-sharded`` — exhaustive `check_scenario` with 2 workers and a
  fresh checkpoint and corpus per cell, all four styles, six cells.

One run sets up (imports and scenario construction), then repeats the
workload for about ``--seconds`` (at least once; by default
``BENCHMARK.json``'s ``run_seconds``).  ``verdict_s`` and ``cpu_s`` are
means over all the run's repetitions, so that each figure covers the
whole run: on a shared host the speed wanders within seconds, and a
median of the three or four repetitions a heavy workload fits would
stand for one of them.  Set-up time is the median of `SETUP_PROBES`
samples, each taken in a fresh interpreter, spread between the
repetitions over the run.  Every repetition's verdicts are checked
against ``golden.json``; ``engine-sharded`` also replays every corpus
entry it wrote.  The last line of standard output is one JSON object: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of traced repetitions (alternated with untraced ones, whose time
gives ``trace.overhead_ratio``).  A fuller record — stamp, per-cell
verdicts and counts, and the coarse spans — goes to
``.bench_out/<workload>-seed<N>-trace<T>.json``.

Exit status: 0 after a run (correct or not — see ``correct``), 2 when the
checkout holds no program source or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as W  # noqa: E402

OUT_DIR = W.ROOT / ".bench_out"
#: Set-up samples per run: one fresh interpreter each.
SETUP_PROBES = 15

END_TO_END_UNITS = {"verdict_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s"}

PER_LAYER_UNITS = {
    "machine.runs": "count", "machine.steps": "count",
    "machine.self_s": "s", "machine.steps_per_s": "1/s",
    "dpor.footprint_s": "s", "dpor.footprint_calls": "count",
    "dpor.decide_s": "s", "dpor.cut_replays": "count",
    "dpor.useful_replay_ratio": "ratio", "dpor.pruned_subtrees": "count",
    "dpor.prefix_shared_ratio": "ratio",
    "explore.executions": "count", "explore.truncated": "count",
    "explore.self_s": "s", "explore.exec_per_s": "1/s",
    "explore.distinct_outcomes": "count",
    "explore.exec_per_outcome": "ratio",
    "graph.extract_s": "s", "graph.graphs": "count",
    "graph.events": "count",
    "spec.check_s": "s", "spec.lat_so_abs_s": "s",
    "spec.lat_hb_abs_s": "s", "spec.lat_hb_s": "s",
    "spec.lat_hb_hist_s": "s", "spec.checks": "count",
    "spec.violations": "count",
    "check.self_s": "s",
    "shard.plan_s": "s", "shard.count": "count",
    "shard.planner_pruned": "count",
    "pool.self_s": "s", "pool.busy_s": "s", "pool.idle_s": "s",
    "pool.busy_ratio": "ratio", "pool.retries": "count",
    "merge.decode_s": "s", "merge.fold_s": "s",
    "durable.appends": "count", "durable.fsyncs": "count",
    "durable.bytes": "bytes", "durable.s": "s", "corpus.entries": "count",
    "trace.wall_s": "s", "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio", "trace.hooks_missing": "count",
}


# ----------------------------------------------------------------------
# Stamp and measurements
# ----------------------------------------------------------------------

def stamp(workload: str, seed: int, cells: List[W.Cell]) -> Dict:
    """Where and on what a result was measured."""
    git_sha = None
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=W.ROOT, capture_output=True, text=True,
                              timeout=10)
        lines = done.stdout.split()
        # Only this checkout's own repository names the code measured.
        if done.returncode == 0 and len(lines) == 2 \
                and Path(lines[0]).resolve() == W.ROOT:
            git_sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    # The checkout may not be a git repository: a digest of the program
    # source identifies the code measured either way.
    digest = hashlib.sha256()
    for path in sorted(W.SRC.rglob("*.py")):
        digest.update(str(path.relative_to(W.SRC)).encode())
        digest.update(path.read_bytes())
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    out = {"workload": workload, "seed": seed, "git_sha": git_sha,
           "source_sha256": digest.hexdigest(), "nproc": cores,
           "python": platform.python_version(),
           "script_seeds": {c.key: c.seed for c in cells}}
    if workload == "engine-sharded":
        out["workers"] = W.ENGINE_WORKERS
        # Fewer cores than workers: the workers time-share, so the
        # result says nothing about parallel scaling.
        out["asserts_scaling"] = cores >= W.ENGINE_WORKERS
    return out


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def setup_probe(workload: str, seed: int) -> float:
    """One set-up time, taken in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=W.ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Repetitions
# ----------------------------------------------------------------------

class Run:
    """Repetitions of one workload, each gated against the golden
    verdicts."""

    def __init__(self, ctx: W.Context, expected: Dict[str, Dict],
                 workdir: Path):
        self.ctx = ctx
        self.expected = expected
        self.workdir = workdir
        self.reps: List[Dict] = []
        self.attempted = 0
        self.failed = 0
        self.setup_samples: List[float] = []

    def rep(self, tracer=None) -> Dict:
        rep_dir = W.fresh_dir(self.workdir / f"rep{len(self.reps)}")
        with contextlib.ExitStack() as hooks:
            if tracer is not None:
                tracer.reset()
                tracer.install(serial=self.ctx.workload != "engine-sharded")
                hooks.callback(tracer.uninstall)
                if self.ctx.workload == "engine-sharded":
                    from repro.engine.vfs import install
                    hooks.enter_context(install(tracer.timing_vfs()))
            cpu0 = cpu_seconds()
            t0 = time.perf_counter()
            results = W.run_once(self.ctx, rep_dir)
            wall = time.perf_counter() - t0
            cpu = cpu_seconds() - cpu0
        got = {r.name: r.verdict for r in results}
        bad = W.gate(self.expected, got)
        self.attempted += len(self.expected)
        self.failed += len(bad)
        rep = {"traced": tracer is not None, "verdict_s": wall,
               "cpu_s": cpu, "failed_cells": bad, "dir": rep_dir,
               "cells": {r.name: {"verdict": r.verdict,
                                  "executions": r.executions,
                                  "steps": r.steps, "error": r.error}
                         for r in results}}
        if tracer is not None:
            rep["layers"] = tracer.metrics(wall, W.ENGINE_WORKERS)
            rep["spans"] = tracer.span_records()
            rep["hooks_missing"] = list(tracer.missing)
        self.reps.append(rep)
        return rep

    def replay_corpora(self) -> Dict:
        """Replay every corpus entry each repetition wrote; a cell whose
        corpus does not reproduce fails that repetition."""
        entries = 0
        problems: List[str] = []
        for rep in self.reps:
            n, bad = W.replay_corpora(rep["dir"])
            entries += n
            names = {self.ctx.cells[i].key for i, _ in bad}
            self.failed += len(names - set(rep["failed_cells"]))
            problems.extend(f"{self.ctx.cells[i].key}: {detail}"
                            for i, detail in bad)
        return {"entries": entries, "not_reproduced": problems}


def fits_another(start: float, done: int, seconds: float) -> bool:
    """Would one more of ``done`` equal rounds still end within
    ``seconds`` of ``start``?  (So a run measures for about ``seconds``
    and no longer.)"""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def run_untraced(run: Run, seconds: float,
                 probe: Optional[Callable[[], float]] = None) \
        -> Dict[str, float]:
    """Repeat while another repetition fits in ``seconds`` (at least
    once); report the mean verdict and CPU time of a repetition over the
    whole run.  ``probe`` takes one set-up sample; after each
    repetition it is called until the samples keep pace with the
    elapsed share of ``seconds``, so that the `SETUP_PROBES` samples
    spread over the run like the verdicts and the run still ends in
    about ``seconds``.  Set-up is their median."""
    start = time.perf_counter()
    samples: List[float] = []
    while not run.reps or fits_another(start, len(run.reps), seconds):
        run.rep()
        elapsed = time.perf_counter() - start
        due = SETUP_PROBES * min(1.0, elapsed / seconds) if seconds > 0 \
            else SETUP_PROBES
        while probe is not None and len(samples) < due:
            samples.append(probe())
    while probe is not None and len(samples) < SETUP_PROBES:
        samples.append(probe())
    metrics = {
        "verdict_s": statistics.fmean(r["verdict_s"] for r in run.reps),
        "cpu_s": statistics.fmean(r["cpu_s"] for r in run.reps),
        "peak_rss_mb": peak_rss_mb(),
    }
    if samples:
        metrics["setup_s"] = statistics.median(samples)
        run.setup_samples = samples
    return metrics


def run_traced(run: Run, seconds: float) -> Dict[str, float]:
    """Alternate untraced and traced repetitions for about ``seconds``;
    report the traced ones' mean per-layer metrics."""
    from tracer import Tracer
    tracer = Tracer()
    start = time.perf_counter()
    while len(run.reps) < 2 or fits_another(start, len(run.reps) // 2,
                                            seconds):
        run.rep(None)
        run.rep(tracer)
    traced = [r for r in run.reps if r["traced"]]
    plain = [r for r in run.reps if not r["traced"]]
    layers = {name: statistics.fmean(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    layers["trace.overhead_ratio"] = (
        statistics.median(r["verdict_s"] for r in traced)
        / statistics.median(r["verdict_s"] for r in plain))
    return layers


def layer_table(layers: Dict[str, float]) -> str:
    from tracer import SELF_TIME_METRICS
    lines = [f"{'per-layer metric':<28}{'value':>16}  unit"]
    for name in PER_LAYER_UNITS:
        mark = " *" if name in SELF_TIME_METRICS else ""
        lines.append(f"{name:<28}{layers[name]:>16.6g}  "
                     f"{PER_LAYER_UNITS[name]}{mark}")
    total = sum(layers[n] for n in SELF_TIME_METRICS)
    lines.append(f"(* self times: {total:.6f} s + trace.unattributed_s "
                 f"{layers['trace.unattributed_s']:.6f} s = trace.wall_s "
                 f"{layers['trace.wall_s']:.6f} s)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="time-to-verdict benchmark of the checker")
    ap.add_argument("--workload", required=True, choices=W.WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=W.run_seconds())
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        W.use_source_tree()
    except (W.MissingProgram, ImportError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    golden = W.load_golden()
    cells = W.make_inputs(args.workload, args.seed, golden)
    if args.setup_probe:
        t0 = time.perf_counter()
        W.setup(args.workload, cells)
        print(repr(time.perf_counter() - t0))
        return 0

    info = stamp(args.workload, args.seed, cells)
    print("stamp: " + json.dumps(info, sort_keys=True), flush=True)
    # In-process set-up first: it also compiles the bytecode the probes
    # then find ready.
    ctx = W.setup(args.workload, cells)
    expected = W.expected_verdicts(args.workload, cells, golden)
    workdir = W.fresh_dir(OUT_DIR / f"work-{args.workload}-{os.getpid()}")
    run = Run(ctx, expected, workdir)
    try:
        if args.trace:
            metrics = run_traced(run, args.seconds)
        else:
            metrics = run_untraced(
                run, args.seconds,
                lambda: setup_probe(args.workload, args.seed))
        corpus = run.replay_corpora() \
            if args.workload == "engine-sharded" else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    correct = run.failed == 0  # corpus replay failures are cell failures
    record = {
        "stamp": info, "correct": correct, "attempted": run.attempted,
        "failed": run.failed, "metrics": metrics,
        "setup_samples_s": run.setup_samples, "corpus_replay": corpus,
        "reps": [{k: v for k, v in r.items() if k != "dir"}
                 for r in run.reps],
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=1, default=str) + "\n",
                    encoding="utf-8")
    for r in run.reps:
        for name in r["failed_cells"]:
            print(f"FAILED cell {name}: got {r['cells'].get(name)}")
    if corpus:
        print(f"corpus replay: {corpus['entries']} entries, "
              f"{len(corpus['not_reproduced'])} not reproduced")
    if args.trace:
        print(layer_table(metrics))
    else:
        for name, unit in END_TO_END_UNITS.items():
            print(f"{name:<14}{metrics[name]:>14.6f}  {unit}")
    print(f"repetitions: {len(run.reps)}, cells attempted: "
          f"{run.attempted}, failed: {run.failed}")
    print(json.dumps({
        "correct": correct, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
