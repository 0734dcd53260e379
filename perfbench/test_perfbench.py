"""The benchmark's own tests: ``python3 -m pytest perfbench -q``.

They run each workload at a tiny size (a few small cells), check that the
emitted metric names are the ones ``BENCHMARK.json`` declares, that the
traced run's self times add up to its wall time, and that the correctness
gate trips on a wrong golden verdict.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as R  # noqa: E402
import workloads as W  # noqa: E402
from tracer import SELF_TIME_METRICS  # noqa: E402

W.use_source_tree()
BENCHMARK = json.loads((W.ROOT / "BENCHMARK.json").read_text())
GOLDEN = W.load_golden()

#: A few small cells per workload (matrix: two always-passing rows).
TINY = {
    "dpor-exhaustive": ["ms-queue/ra 3x1", "treiber/rel-acq 2x2"],
    "engine-sharded": ["ms-queue/broken-rlx 3x1", "ms-queue/ra 3x1"],
    "matrix-random": ["mix 2x3"],
}
TINY_MATRIX_ROWS = ("ms-queue/ra", "treiber/rel-acq")


def tiny_run(workload, tmp_path, monkeypatch, golden=GOLDEN, seed=0):
    cells = [c for c in W.make_inputs(workload, seed, golden)
             if c.key in TINY[workload]]
    ctx = W.setup(workload, cells)
    expected = W.expected_verdicts(workload, cells, golden)
    if workload == "matrix-random":
        monkeypatch.setattr(W, "MATRIX_RUNS", 10)
        ctx.impls = [i for i in ctx.impls if i.name in TINY_MATRIX_ROWS]
        expected = {k: v for k, v in expected.items()
                    if k.split(" @ ")[0] in TINY_MATRIX_ROWS}
    return R.Run(ctx, expected, tmp_path)


@pytest.mark.parametrize("workload", W.WORKLOAD_NAMES)
def test_tiny_workload_untraced(workload, tmp_path, monkeypatch):
    run = tiny_run(workload, tmp_path, monkeypatch)
    metrics = R.run_untraced(run, 0)
    assert run.failed == 0, run.reps[0]["failed_cells"]
    assert run.attempted == len(run.expected) >= 1
    assert metrics["verdict_s"] > 0 and metrics["cpu_s"] > 0
    if workload == "engine-sharded":
        corpus = run.replay_corpora()
        assert corpus["entries"] > 0 and not corpus["not_reproduced"]


@pytest.mark.parametrize("workload", W.WORKLOAD_NAMES)
def test_tiny_workload_traced(workload, tmp_path, monkeypatch):
    run = tiny_run(workload, tmp_path, monkeypatch)
    layers = R.run_traced(run, 0)
    assert run.failed == 0
    assert set(layers) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert layers["trace.hooks_missing"] == 0
    assert layers["trace.overhead_ratio"] > 0
    attributed = sum(layers[m] for m in SELF_TIME_METRICS)
    assert attributed + layers["trace.unattributed_s"] == \
        pytest.approx(layers["trace.wall_s"], abs=1e-9)
    assert 0 <= layers["trace.unattributed_s"] < layers["trace.wall_s"]
    if workload == "matrix-random":
        # Randomized exploration never enters rmc.dpor.
        assert layers["dpor.footprint_calls"] == 0
        assert layers["dpor.cut_replays"] == 0
        assert layers["spec.checks"] > 0
    elif workload == "dpor-exhaustive":
        assert layers["dpor.footprint_calls"] > 0
        assert layers["machine.runs"] >= layers["explore.executions"] > 0
        assert layers["pool.busy_s"] == 0
    else:
        assert layers["shard.count"] > 0 and layers["durable.appends"] > 0
        assert layers["corpus.entries"] > 0
        assert layers["machine.runs"] == 0  # workers are not traced


@pytest.mark.parametrize("workload", ["dpor-exhaustive", "matrix-random"])
def test_gate_trips_on_wrong_golden(workload, tmp_path, monkeypatch):
    wrong = copy.deepcopy(GOLDEN)
    key = TINY[workload][0]
    entry = wrong["cells"][workload][key]["0"]
    if workload == "matrix-random":
        entry = entry["impls"][TINY_MATRIX_ROWS[0]]
    else:
        entry = entry["verdict"]
    style = next(iter(entry["styles"]))
    entry["styles"][style] = "fail"
    run = tiny_run(workload, tmp_path, monkeypatch, golden=wrong)
    run.rep()
    assert run.failed == 1
    assert len(run.reps[0]["failed_cells"]) == 1


def test_gate_counts_raised_and_missing_cells():
    want = {"a": {"raced": False}, "b": {"raced": True}, "c": {}}
    assert W.gate(want, {"a": {"raced": False}, "b": None}) == ["b", "c"]


def test_inputs_follow_the_seed():
    for workload in W.WORKLOAD_NAMES:
        default = W.make_inputs(workload, 0, GOLDEN)
        assert [c.seed for c in default] == \
            [d for *_, d in W.layout(workload)]
        for seed in (1, 7, 12345):
            cells = W.make_inputs(workload, seed, GOLDEN)
            assert cells == W.make_inputs(workload, seed, GOLDEN)
            for cell in cells:
                assert str(cell.seed) in GOLDEN["cells"][workload][cell.key]
    assert any(W.make_inputs("dpor-exhaustive", s, GOLDEN)
               != W.make_inputs("dpor-exhaustive", 0, GOLDEN)
               for s in range(1, 5))


def test_benchmark_json_declares_what_run_emits():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in BENCHMARK["workloads"]} == \
        set(W.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == \
        R.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == \
        R.PER_LAYER_UNITS
    predictions = json.loads((HERE / "predictions.json").read_text())
    e2e = set(R.END_TO_END_UNITS)
    for layer in predictions["layers"]:
        for name in layer["metrics"]:
            assert name in R.PER_LAYER_UNITS, name
        for move in layer["moves"]:
            assert move["metric"] in e2e
            assert set(move["workloads"]) <= set(W.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_declared_metrics(trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload",
           "engine-sharded", "--seed", "3", "--seconds", "0",
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=W.ROOT, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    # Every repetition gates every cell (a traced run makes two).
    assert last["attempted"] == len(W.ENGINE_CELLS) * (1 + trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in last["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(W.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "dpor-exhaustive", "--seed", "0", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
