"""The benchmark's three workloads: cells, inputs, one repetition, verdicts.

A *cell* is one scenario the benchmark checks and gates.  Every workload
is a fixed list of cells; the workload seed only picks, per cell, which
``mixed-stress`` op-script seed (and, for ``matrix-random``, which
random-schedule seed) the cell runs.  Seed 0 is the default input set.
Other seeds draw from the per-cell seed pools recorded in
``golden.json``: one script seed per distinct program whose exploration
does the same amount of work as the default (same race verdict,
executions and steps within ``make_golden.SIZE_BAND``), so that run
times stay comparable across seeds while the programs differ.  A cell
with no such other program always runs its default.  Each pool entry
carries its golden verdict, which is what makes every seed checkable.

No module of the checked program is imported at module level: `setup`
does it, so that its time is part of the measured set-up.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN_PATH = HERE / "golden.json"
BENCHMARK_PATH = ROOT / "BENCHMARK.json"

#: ``max_steps`` of the exhaustive workloads.
MAX_STEPS = 2000
#: Random runs per ``matrix-random`` cell.
MATRIX_RUNS = 300
#: Worker processes of ``engine-sharded``.
ENGINE_WORKERS = 2

# (implementation row, threads, ops) of each exhaustive cell.
DPOR_CELLS: Tuple[Tuple[str, int, int], ...] = (
    ("vyukov-queue/rlx", 2, 2),
    ("hw-queue/rlx", 3, 1),
    ("hw-queue/rlx", 2, 2),
    ("ms-queue/ra", 3, 1),
    ("ms-queue/ra", 2, 2),
    ("elim-stack", 2, 2),
    ("treiber/rel-acq", 2, 2),
)
ENGINE_CELLS: Tuple[Tuple[str, int, int], ...] = (
    ("hw-queue/rlx", 2, 3),
    ("ms-queue/broken-rlx", 2, 2),
    ("ms-queue/broken-rlx", 3, 1),
    ("ms-queue/ra", 3, 1),
    ("treiber/rel-acq", 2, 2),
    ("elim-stack", 2, 2),
)
#: ``run_matrix``'s three default stress mixes: (threads, ops, seed).
MATRIX_MIXES: Tuple[Tuple[int, int, int], ...] = ((2, 3, 0), (3, 3, 1),
                                                  (3, 4, 2))

WORKLOAD_NAMES = ("dpor-exhaustive", "matrix-random", "engine-sharded")


class MissingProgram(RuntimeError):
    """The checkout holds no source tree of the checked program."""


def use_source_tree() -> None:
    """Make ``src/`` of this checkout importable, and only that copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program source at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise MissingProgram(f"imported repro from {repro.__file__}, "
                             f"not from {SRC}")


def cell_id(impl: str, threads: int, ops: int) -> str:
    return f"{impl} {threads}x{ops}"


def mix_id(threads: int, ops: int) -> str:
    return f"mix {threads}x{ops}"


def run_seconds() -> int:
    """How long one run measures by default: ``BENCHMARK.json``'s
    ``run_seconds``, the length every bound was checked at."""
    with open(BENCHMARK_PATH, encoding="utf-8") as fh:
        return json.load(fh)["run_seconds"]


def load_golden(path: Path = GOLDEN_PATH) -> Dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Cell:
    """One gated unit: a scenario (or, for the matrix, one mix of all
    implementations) at one script seed."""

    key: str          # golden.json key: cell_id / mix_id
    impl: str         # implementation row ("" for a matrix mix)
    threads: int
    ops: int
    seed: int         # mixed-stress script seed (matrix: also schedules)


def layout(workload: str) -> List[Tuple[str, str, int, int, int]]:
    """(key, impl, threads, ops, default seed) of each cell."""
    if workload == "dpor-exhaustive":
        cells = DPOR_CELLS
    elif workload == "engine-sharded":
        cells = ENGINE_CELLS
    elif workload == "matrix-random":
        return [(mix_id(t, o), "", t, o, s) for t, o, s in MATRIX_MIXES]
    else:
        raise KeyError(f"unknown workload {workload!r}; known: "
                       f"{', '.join(WORKLOAD_NAMES)}")
    return [(cell_id(i, t, o), i, t, o, 0) for i, t, o in cells]


def make_inputs(workload: str, seed: int, golden: Dict) -> List[Cell]:
    """The workload's cells at benchmark seed ``seed``.

    Seed 0 is the default input set; any other seed draws each cell's
    script seed from that cell's pool in ``golden`` with a generator
    seeded by the workload name and ``seed``, so the same seed always
    gives the same inputs.
    """
    pools = golden["cells"][workload]
    rng = random.Random(f"perfbench/{workload}/{seed}")
    cells = []
    for key, impl, threads, ops, default in layout(workload):
        pool = sorted(int(s) for s in pools[key])
        pick = default if seed == 0 else rng.choice(pool)
        cells.append(Cell(key, impl, threads, ops, pick))
    return cells


def expected_verdicts(workload: str, cells: Sequence[Cell],
                      golden: Dict) -> Dict[str, Dict]:
    """Golden verdict per gated cell name (matrix: per implementation ×
    mix, so 33 entries)."""
    out: Dict[str, Dict] = {}
    for cell in cells:
        entry = golden["cells"][workload][cell.key][str(cell.seed)]
        if workload == "matrix-random":
            for impl, verdict in entry["impls"].items():
                out[f"{impl} @ {cell.key}"] = verdict
        else:
            out[cell.key] = entry["verdict"]
    return out


# ----------------------------------------------------------------------
# Verdicts and the correctness gate
# ----------------------------------------------------------------------

def report_verdict(report) -> Dict:
    """The gated verdict of a `ScenarioReport`.

    Execution and step counts are deliberately absent: a legal change of
    exploration strategy changes them and must still pass.
    """
    coverage = getattr(report, "coverage", None)
    return {
        "exhausted": bool(report.exhausted),
        "raced": report.raced > 0,
        "outcome_failed": report.outcome_failures > 0,
        "degraded": bool(getattr(coverage, "degraded", False)),
        "styles": {str(style): "pass" if tally.ok else "fail"
                   for style, tally in report.styles.items()},
    }


def matrix_row_verdict(cells) -> Dict:
    """The gated verdict of one `MatrixReport` row (style -> MatrixCell)."""
    return {
        "exhausted": False,
        "raced": any(c.raced > 0 for c in cells.values()),
        "outcome_failed": False,
        "degraded": False,
        "styles": {str(style): "pass" if c.failed == 0 else "fail"
                   for style, c in cells.items()},
    }


def gate(expected: Dict[str, Dict], got: Dict[str, Optional[Dict]]) \
        -> List[str]:
    """Names of cells whose verdict is missing (the cell raised) or
    differs from the golden one."""
    return [name for name, want in expected.items()
            if got.get(name) != want]


# ----------------------------------------------------------------------
# Set-up and one repetition
# ----------------------------------------------------------------------

class Context:
    """What `setup` built: the imported entry points and the scenarios."""

    def __init__(self, workload: str, cells: List[Cell]):
        self.workload = workload
        self.cells = cells
        self.scenarios: List = []   # per cell (serial/engine workloads)
        self.specs: List = []       # registry specs (engine-sharded)
        self.impls: List = []       # matrix rows (matrix-random)
        self.styles: Tuple = ()


def setup(workload: str, cells: List[Cell]) -> Context:
    """Import the public entry points and build the scenarios."""
    import repro.checking.matrix as matrix
    ctx = Context(workload, cells)
    ctx.styles = matrix.QUEUE_STYLES
    if workload == "matrix-random":
        ctx.impls = matrix.default_implementations()
        return ctx
    import repro.checking.runner  # noqa: F401 — the serial entry point
    from repro.core.spec_styles import SpecStyle
    from repro.engine import ScenarioSpec, build_scenario
    if workload == "dpor-exhaustive":
        ctx.styles = (SpecStyle.LAT_HB,)
    for cell in cells:
        spec = ScenarioSpec("mixed-stress", kwargs={
            "impl": cell.impl, "threads": cell.threads, "ops": cell.ops,
            "seed": cell.seed})
        ctx.specs.append(spec)
        ctx.scenarios.append(build_scenario(spec))
    return ctx


@dataclass
class CellResult:
    name: str
    verdict: Optional[Dict]     # None when the cell raised
    executions: int = 0
    steps: int = 0
    error: str = ""


def run_once(ctx: Context, workdir: Path) -> List[CellResult]:
    """One repetition of the workload: every cell, in order."""
    if ctx.workload == "matrix-random":
        return _run_matrix(ctx)
    return _run_scenarios(ctx, workdir)


def _run_scenarios(ctx: Context, workdir: Path) -> List[CellResult]:
    # Looked up at call time so that a tracer's wrapper is the one used.
    import repro.checking.runner as runner
    engine = ctx.workload == "engine-sharded"
    out = []
    for i, (cell, scenario) in enumerate(zip(ctx.cells, ctx.scenarios)):
        kwargs = {}
        if engine:
            # A fresh checkpoint and corpus per cell and repetition.
            base = workdir / f"cell{i}"
            kwargs = {"workers": ENGINE_WORKERS, "spec": ctx.specs[i],
                      "checkpoint": str(base) + ".ck.jsonl",
                      "corpus": str(base) + ".corpus.jsonl",
                      "hedge": False}
        try:
            report = runner.check_scenario(
                scenario, styles=ctx.styles, exhaustive=True,
                max_steps=MAX_STEPS, **kwargs)
        except Exception:  # noqa: BLE001 — a raising cell fails
            out.append(CellResult(cell.key, None,
                                  error=traceback.format_exc()))
            continue
        out.append(CellResult(cell.key, report_verdict(report),
                              report.executions, report.steps))
    return out


def _run_matrix(ctx: Context) -> List[CellResult]:
    import repro.checking.matrix as matrix
    out = []
    for cell in ctx.cells:
        try:
            rep = matrix.run_matrix(ctx.impls,
                                    workloads=((cell.threads, cell.ops,
                                                cell.seed),),
                                    runs=MATRIX_RUNS,
                                    exhaustive_small=False)
        except Exception:  # noqa: BLE001 — a raising mix fails
            error = traceback.format_exc()
            out.extend(CellResult(f"{impl.name} @ {cell.key}", None,
                                  error=error) for impl in ctx.impls)
            continue
        for name, row in rep.rows.items():
            checked = max((c.checked for c in row.values()), default=0)
            out.append(CellResult(f"{name} @ {cell.key}",
                                  matrix_row_verdict(row), checked, 0))
    return out


def replay_corpora(workdir: Path) -> Tuple[int, List[Tuple[int, str]]]:
    """Replay every corpus entry a repetition wrote under ``workdir``.

    Returns the number of entries and, for each one that did not
    reproduce, ``(cell index, detail)``.
    """
    from repro.engine import load_corpus, replay_entry
    total = 0
    bad: List[Tuple[int, str]] = []
    for path in sorted(workdir.glob("cell*.corpus.jsonl")):
        index = int(path.name[len("cell"):].split(".", 1)[0])
        for entry in load_corpus(str(path)):
            total += 1
            outcome = replay_entry(entry)
            if not outcome.reproduced:
                bad.append((index, outcome.detail))
    return total, bad


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    os.makedirs(path)
    return path
