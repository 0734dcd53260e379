"""Hedged shard execution (`repro.engine.hedge` + the coordinator wiring).

Two halves: Hypothesis pins down the `DeadlineEstimator` policy
(monotone in the observations, floor-clamped, seed-deterministic), and
an end-to-end run proves the mechanism — a 4-worker run with one
straggling worker must merge byte-for-byte equal to the serial DPOR
report, rescued by a speculative duplicate (non-zero hedge-win
counter), never by lease expiry.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EngineParams, run_scenario
from repro.engine.faults import Fault, FaultPlan
from repro.engine.hedge import HEDGE_ATTEMPT_BASE, DeadlineEstimator
from repro.engine.registry import build_scenario

from ._support import assert_reports_equal, hw_spec

durations = st.lists(
    st.floats(min_value=0.0, max_value=600.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=200)


class TestDeadlineEstimatorProperties:
    def test_no_evidence_no_hedging(self):
        assert DeadlineEstimator().deadline() is None

    @given(obs=durations,
           bumps=st.lists(st.floats(min_value=0.0, max_value=100.0,
                                     allow_nan=False,
                                     allow_infinity=False),
                          min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_the_observations(self, obs, bumps):
        """Raising every observed duration can never lower the
        deadline: the reservoir's kept/evicted choice depends only on
        (seed, count), so both runs retain the same indices."""
        lo = DeadlineEstimator(seed=7, max_samples=32)
        hi = DeadlineEstimator(seed=7, max_samples=32)
        for i, value in enumerate(obs):
            bump = bumps[i % len(bumps)]
            lo.observe(value)
            hi.observe(value + bump)
        assert hi.deadline() >= lo.deadline()

    @given(obs=durations,
           floor=st.floats(min_value=0.0, max_value=50.0,
                           allow_nan=False, allow_infinity=False))
    @settings(max_examples=60, deadline=None)
    def test_floor_clamps_the_deadline(self, obs, floor):
        est = DeadlineEstimator(floor=floor, seed=3)
        for value in obs:
            est.observe(value)
        deadline = est.deadline()
        assert deadline >= floor
        assert deadline >= est.quantile_value() * est.factor

    @given(obs=durations, seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60, deadline=None)
    def test_seed_deterministic(self, obs, seed):
        """The same observation sequence always yields the same
        deadline — hedging decisions are reproducible."""
        a = DeadlineEstimator(seed=seed, max_samples=16)
        b = DeadlineEstimator(seed=seed, max_samples=16)
        for value in obs:
            a.observe(value)
            b.observe(value)
        assert a.deadline() == b.deadline()
        assert a._samples == b._samples

    @given(obs=durations)
    @settings(max_examples=60, deadline=None)
    def test_reservoir_memory_is_bounded(self, obs):
        est = DeadlineEstimator(max_samples=8)
        for value in obs:
            est.observe(value)
        assert len(est._samples) <= 8
        assert est.count == len(obs)

    def test_negative_observations_clamp_to_zero(self):
        est = DeadlineEstimator(floor=0.0)
        est.observe(-5.0)
        assert est.quantile_value() == 0.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DeadlineEstimator(quantile=0.0)
        with pytest.raises(ValueError):
            DeadlineEstimator(factor=0.0)
        with pytest.raises(ValueError):
            DeadlineEstimator(floor=-1.0)
        with pytest.raises(ValueError):
            DeadlineEstimator(max_samples=0)

    def test_hedge_attempt_base_clears_fault_coordinates(self):
        # Fault plans key on small attempt numbers; a hedged duplicate
        # must run far outside that namespace.
        assert HEDGE_ATTEMPT_BASE >= 1000


class TestHedgedPoolRun:
    def test_straggler_rescued_merge_equals_serial(self):
        """Acceptance: 4 workers, one pinned 2.5 s inside its shard by
        an injected slow-worker fault (still heartbeating, so its
        lease stays renewed).  The hedged run must merge exactly to
        the serial report with at least one hedge win."""
        spec = hw_spec()
        serial = run_scenario(
            build_scenario(spec),
            EngineParams(exhaustive=True, workers=1, target_shards=1),
            spec=spec).report
        params = EngineParams(exhaustive=True, workers=4, target_shards=4,
                              shard_timeout=2.0, heartbeat_interval=0.05,
                              hedge=True, hedge_floor=0.25,
                              hedge_factor=1.5)
        plan = FaultPlan((Fault("hedge.slow_worker", "delay", shard=1,
                                attempt=1, delay_seconds=2.5),))
        with plan:
            result = run_scenario(build_scenario(spec), params, spec=spec)
        assert_reports_equal(result.report, serial)
        tel = result.telemetry
        assert tel.hedges_issued >= 1
        assert tel.hedge_wins >= 1
        assert tel.hung_killed == 0

    def test_hedging_off_is_the_default(self):
        assert EngineParams().hedge is False
        assert EngineParams().audit_fraction == 0.0
