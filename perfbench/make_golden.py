"""Regenerate ``golden.json``: per-cell seed pools and golden verdicts.

    python3 perfbench/make_golden.py [--out PATH]

For every cell of every workload, candidate script seeds
``0..CANDIDATES-1`` are checked serially (exhaustive cells with the
workload's styles and ``max_steps``; matrix mixes through ``run_matrix``
at the workload's run count).  A candidate joins the cell's pool when it
does the same amount of work as the cell's default seed: the same race
verdict, and executions and machine steps within `SIZE_BAND` of the
default's.  Its verdict is recorded as golden.  The serial verdicts are
also the golden ones for ``engine-sharded``: a sharded run must
reproduce them.

A pool holds one entry per distinct program.  An exhaustive cell's input
is its op scripts alone, so a seed whose scripts equal those of a smaller
seed is skipped: the pool is keyed by the smallest seed of each program,
and a cell whose seeds all give the default's scripts has the default as
its only entry.  A matrix mix's seed also seeds its random schedules, so
every seed there is an input of its own.

Regenerate only when the checked program's verdicts legitimately change;
the benchmark refuses to run a seed whose cells have no golden entry.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as W  # noqa: E402

#: A candidate seed's executions and steps must lie within this share of
#: the default seed's, so that every seed measures comparable work.
SIZE_BAND = 0.05
#: Script seeds ``0..CANDIDATES-1`` are tried for every cell.
CANDIDATES = 40


def _within(value: int, ref: int) -> bool:
    return abs(value - ref) <= SIZE_BAND * ref


def op_scripts(scenario):
    """The per-thread op scripts a ``mixed-stress`` scenario runs: the
    whole input of an exhaustive cell."""
    factory = scenario.factory
    cells = dict(zip(factory.__code__.co_freevars,
                     factory.__closure__ or ()))
    if "scripts" not in cells:
        raise RuntimeError("cannot read the op scripts of "
                           f"{scenario.name}: the mixed-stress factory "
                           "no longer closes over 'scripts'")
    return json.dumps(cells["scripts"].cell_contents)


def exhaustive_pools(workload: str) -> dict:
    from repro.checking.runner import check_scenario
    out = {}
    for key, impl, threads, ops, default in W.layout(workload):
        cell = W.Cell(key, impl, threads, ops, default)
        ctx = W.setup(workload, [cell])
        ref = check_scenario(ctx.scenarios[0], styles=ctx.styles,
                             exhaustive=True, max_steps=W.MAX_STEPS)
        pool = {}
        seen = set()
        cap = int(ref.executions * (1 + SIZE_BAND)) + 1
        for seed in range(CANDIDATES):  # the default, 0, comes first
            ctx = W.setup(workload, [W.Cell(key, impl, threads, ops, seed)])
            program = op_scripts(ctx.scenarios[0])
            if program in seen:
                continue
            seen.add(program)
            rep = check_scenario(ctx.scenarios[0], styles=ctx.styles,
                                 exhaustive=True, max_steps=W.MAX_STEPS,
                                 max_executions=cap)
            if not (rep.exhausted and (rep.raced > 0) == (ref.raced > 0)
                    and _within(rep.executions, ref.executions)
                    and _within(rep.steps, ref.steps)):
                continue
            pool[str(seed)] = {"verdict": W.report_verdict(rep),
                               "executions": rep.executions,
                               "steps": rep.steps}
        print(f"{workload} {key}: pool {sorted(map(int, pool))}",
              file=sys.stderr, flush=True)
        out[key] = pool
    return out


def matrix_pools() -> dict:
    import repro.checking.matrix as matrix
    impls = matrix.default_implementations()
    real_check = matrix.check_scenario
    steps = [0]

    def counting_check(*args, **kwargs):
        report = real_check(*args, **kwargs)
        steps[0] += report.steps
        return report

    def run(threads: int, ops: int, seed: int):
        steps[0] = 0
        rep = matrix.run_matrix(impls, workloads=((threads, ops, seed),),
                                runs=W.MATRIX_RUNS, exhaustive_small=False)
        return rep, steps[0]

    out = {}
    matrix.check_scenario = counting_check
    try:
        for key, _impl, threads, ops, default in W.layout("matrix-random"):
            _rep, ref_steps = run(threads, ops, default)
            pool = {}
            for seed in range(CANDIDATES):
                rep, n = run(threads, ops, seed)
                if not _within(n, ref_steps):
                    continue
                pool[str(seed)] = {
                    "impls": {name: W.matrix_row_verdict(row)
                              for name, row in rep.rows.items()},
                    "steps": n}
            print(f"matrix-random {key}: pool {sorted(map(int, pool))}",
                  file=sys.stderr, flush=True)
            out[key] = pool
    finally:
        matrix.check_scenario = real_check
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=W.GOLDEN_PATH)
    args = ap.parse_args(argv)
    W.use_source_tree()
    golden = {"size_band": SIZE_BAND, "candidates": CANDIDATES,
              "cells": {}}
    for workload in W.WORKLOAD_NAMES:
        if workload == "matrix-random":
            golden["cells"][workload] = matrix_pools()
        else:
            golden["cells"][workload] = exhaustive_pools(workload)
    args.out.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
