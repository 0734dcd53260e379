"""Run every workload once and print all their metrics in one table.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1]

``--seconds`` defaults to ``BENCHMARK.json``'s ``run_seconds``.  With
``--trace 0`` the table holds every end-to-end metric of each
workload, with ``--trace 1`` the per-layer metrics (each workload's own
table, with the self-time sum, is printed as it finishes).  Exits 1 if
any workload's run was not correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=W.run_seconds())
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    results = {}
    for workload in W.WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=W.ROOT, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        *lines, last = done.stdout.strip().splitlines()
        print(f"== {workload}\n" + "\n".join(lines), flush=True)
        results[workload] = json.loads(last)
    print(f"\n{'workload':<17}{'metric':<28}{'value':>16}  unit")
    for workload, res in results.items():
        for name, m in res["metrics"].items():
            print(f"{workload:<17}{name:<28}{m['value']:>16.6g}  "
                  f"{m['unit']}")
        print(f"{workload:<17}{'cells failed':<28}"
              f"{res['failed']:>16d}  of {res['attempted']}")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
