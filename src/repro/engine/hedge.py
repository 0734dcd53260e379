"""Adaptive deadlines for hedged (speculative) shard re-execution.

Stragglers dominate the tail of a sharded campaign: one stalled worker
holds the merge hostage while every other worker sits idle.  The proven
fix (Dean & Barroso, "The Tail at Scale"; MapReduce backup tasks) is to
*hedge*: once a shard has run well past what its peers needed, dispatch
a second copy under a fresh fencing token and let the first
structurally-valid result win.  Because shard exploration is
deterministic, the two copies produce byte-identical reports, so
hedging can never change the merged report — only who delivers it.

This module holds the policy half: :class:`DeadlineEstimator` tracks a
runtime quantile of completed-shard durations and turns it into an
adaptive hedge deadline (``quantile × factor``, clamped below by
``floor``).  The mechanism half — shadow grants — lives in the
coordinator that dispatches shards to local and remote nodes alike
(`repro.engine.dist.coordinator`).

The estimator is deliberately deterministic: its reservoir keeps or
evicts samples based only on ``(seed, observation count)``, never on
the values themselves.  That gives two properties the Hypothesis suite
pins down: the same observation sequence always yields the same
deadline (reproducible hedging decisions), and raising every observed
duration can never *lower* the deadline (pointwise monotonicity — the
retained indices are identical, so a pointwise-larger sample set sorts
pointwise larger).
"""

from __future__ import annotations

import hashlib
import math
from typing import List, Optional

#: Offset added to a shard's attempt counter for its hedged duplicate.
#: Fault-injection coordinates key on ``(site, shard, attempt)`` and
#: one-shot accounting is per *process*, so a delay fault aimed at the
#: primary attempt must not re-fire inside the hedge worker — the hedge
#: runs under an attempt number no fault plan targets by accident.
HEDGE_ATTEMPT_BASE = 1000


def _draw(seed: int, count: int, bound: int) -> int:
    """Deterministic uniform draw in ``[0, bound)`` from ``(seed, count)``."""
    digest = hashlib.sha256(f"{seed}:hedge:{count}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % bound


class DeadlineEstimator:
    """Running shard-duration quantile → adaptive hedge deadline.

    ``observe`` feeds completed-shard wall times; ``deadline`` returns
    ``max(floor, quantile_value × factor)`` or ``None`` until the first
    observation lands (no evidence, no hedging).  Bounded memory via
    seeded reservoir sampling whose kept/evicted choice depends only on
    ``(seed, count)`` — see the module docstring for why that matters.
    """

    def __init__(self, quantile: float = 0.95, factor: float = 3.0,
                 floor: float = 0.5, seed: int = 0,
                 max_samples: int = 512):
        if not 0.0 < quantile <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {quantile}")
        if factor <= 0:
            raise ValueError(f"factor must be positive, got {factor}")
        if floor < 0:
            raise ValueError(f"floor must be non-negative, got {floor}")
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self.quantile = quantile
        self.factor = factor
        self.floor = floor
        self.seed = seed
        self.max_samples = max_samples
        self.count = 0
        self._samples: List[float] = []

    def observe(self, seconds: float) -> None:
        """Record one completed shard's wall time (negatives clamp to 0)."""
        value = max(0.0, float(seconds))
        if len(self._samples) < self.max_samples:
            self._samples.append(value)
        else:
            slot = _draw(self.seed, self.count, self.count + 1)
            if slot < self.max_samples:
                self._samples[slot] = value
        self.count += 1

    def quantile_value(self) -> Optional[float]:
        """Nearest-rank quantile of the retained samples (None if empty)."""
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        rank = math.ceil(self.quantile * len(ordered)) - 1
        return ordered[max(0, min(rank, len(ordered) - 1))]

    def deadline(self) -> Optional[float]:
        """Seconds a shard may run before it deserves a hedge."""
        value = self.quantile_value()
        if value is None:
            return None
        return max(self.floor, value * self.factor)
