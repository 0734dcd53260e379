"""Crash-point enumeration: the state space, and the checks' teeth."""

from __future__ import annotations

import os

import pytest

from repro.engine.crashcheck import (CrashState, WorkloadFacts,
                                     _torn_cuts, check_state,
                                     crash_states, record_workload,
                                     run_crashcheck)
from repro.engine.durable import encode_line
from repro.engine.vfs import IoOp


class TestTornCuts:
    def test_cuts_are_proper_prefixes(self):
        for n in (2, 3, 10, 100):
            cuts = _torn_cuts(n)
            assert cuts and all(0 < c < n for c in cuts)
            assert cuts == sorted(set(cuts))

    def test_single_byte_record_cannot_tear(self):
        assert _torn_cuts(1) == []


class TestCrashStates:
    def test_empty_trace_yields_only_the_clean_state(self):
        states = list(crash_states([]))
        assert [(s.applied, s.variant) for s in states] == [(0, "clean")]

    def test_append_yields_torn_prefixes(self):
        ops = [IoOp(kind="append", path="log", data=b"0123456789\n")]
        states = list(crash_states(ops))
        torn = [s for s in states if s.variant.startswith("torn@")]
        assert torn, "an 11-byte append must admit torn states"
        for s in torn:
            assert s.files["log"] == ops[0].data[:int(
                s.variant.split("@")[1])]
        final = [s for s in states if (s.applied, s.variant) == (1, "clean")]
        assert final[0].files["log"] == ops[0].data

    def test_unsynced_append_admits_a_lost_tail(self):
        ops = [IoOp(kind="append", path="log", data=b"first\n"),
               IoOp(kind="append", path="log", data=b"second\n",
                    synced=False)]
        states = list(crash_states(ops))
        lost = [s for s in states if s.variant == "unsynced-lost"]
        # The dropped fsync means a later crash can revert the file to
        # its last durable length — the second record never happened.
        assert lost and lost[-1].files["log"] == b"first\n"

    def test_replace_admits_a_pre_rename_state(self):
        ops = [IoOp(kind="replace", path="report.json", data=b"{}")]
        states = list(crash_states(ops))
        pre = [s for s in states if s.variant == "pre-rename"]
        assert pre and "report.json" not in pre[0].files
        assert any(p.endswith(".crash.tmp") for p in pre[0].files)
        done = [s for s in states if (s.applied, s.variant) == (1, "clean")]
        assert done[0].files["report.json"] == b"{}"

    def test_marks_are_not_crash_points(self):
        ops = [IoOp(kind="mark", path="", label="acked")]
        assert len(list(crash_states(ops))) == 1

    def test_distinct_digests_distinguish_contents(self):
        a = CrashState(0, "clean", {"f": b"x"})
        b = CrashState(0, "clean", {"f": b"y"})
        assert a.digest() != b.digest()
        assert a.digest() == CrashState(1, "torn@1", {"f": b"x"}).digest()


@pytest.fixture(scope="module")
def facts(tmp_path_factory) -> WorkloadFacts:
    workdir = tmp_path_factory.mktemp("crashcheck-workload")
    return record_workload(str(workdir))


class TestCheckState:
    def test_the_full_final_state_passes(self, facts, tmp_path):
        final = list(crash_states(facts.ops))[-1]
        assert check_state(final, facts, str(tmp_path)) == []

    def test_a_lost_acked_job_is_flagged(self, facts, tmp_path):
        # The crash state claims every op applied but the WAL vanished:
        # the acked submit did not survive, and the check must say so.
        final = list(crash_states(facts.ops))[-1]
        gutted = CrashState(final.applied, "clean",
                            {p: d for p, d in final.files.items()
                             if p != "wal.jsonl"})
        found = check_state(gutted, facts, str(tmp_path))
        assert any("acked job" in v and "lost" in v for v in found)

    def test_a_runaway_token_floor_is_flagged(self, facts, tmp_path):
        final = list(crash_states(facts.ops))[-1]
        job_id = next(iter(facts.final_floor))
        forged = dict(final.files)
        forged["wal.jsonl"] = final.files["wal.jsonl"] + (
            encode_line({"rec": "grant", "job": job_id, "shard": 0,
                         "token": 999, "attempt": 9, "node": "rogue"})
            + "\n").encode("utf-8")
        found = check_state(CrashState(final.applied, "clean", forged),
                            facts, str(tmp_path))
        assert any("exceeds the final floor" in v for v in found)

    def test_an_invented_corpus_entry_is_flagged(self, facts, tmp_path):
        final = list(crash_states(facts.ops))[-1]
        forged = dict(final.files)
        forged["corpus.jsonl"] = forged.get("corpus.jsonl", b"") + (
            encode_line({"kind": "race", "trace": [[0, 0]],
                         "violation": "forged", "max_steps": 100})
            + "\n").encode("utf-8")
        found = check_state(CrashState(final.applied, "clean", forged),
                            facts, str(tmp_path))
        assert any("never produced" in v for v in found)


class TestRecordedTrace:
    def test_the_recorded_trace_is_pinned(self, facts):
        """The scripted campaign's durable I/O, op by op: four shards,
        each a WAL grant and merge then a checkpoint line; the capped
        corpus flush; the flush marker; the report; the WAL ``done``.
        The distinct-state count pins the bytes too."""
        wal = ("append", "wal.jsonl", "service.wal")
        mark = ("mark", "", "")
        ckpt = ("append", "checkpoint.jsonl", "checkpoint.append")
        corpus = ("append", "corpus.jsonl", "corpus.append")
        assert [(op.kind, op.path, op.site) for op in facts.ops] == (
            [wal, mark, wal]
            + [wal, wal, ckpt] * 4
            + [corpus] * 12
            + [ckpt, ("replace", "report.json", "service.report"), wal,
               mark])
        assert len({state.digest()
                    for state in crash_states(facts.ops)}) == 143


class TestRunCrashcheck:
    def test_enumeration_is_complete_even_under_a_check_limit(self):
        report = run_crashcheck(limit=5)
        assert report.ok
        assert report.states_checked == 5
        # The acceptance floor: the enumerated space itself is >= 100
        # distinct states regardless of how many the smoke run checks.
        assert report.states_distinct >= 100
        assert report.states_total >= report.states_distinct
        assert "all invariants held" in report.summary()
