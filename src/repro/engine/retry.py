"""Jittered exponential backoff, deterministic per (key, attempt).

The inline loop (retrying a failed shard), the distributed layer (a
node reconnecting, a lease being requeued), and the campaign service (a
client resubmitting against a draining daemon) all need the same thing:
an exponentially growing delay with jitter so simultaneous retriers do
not stampede in lockstep.  The jitter is *seeded* — a hash of the
caller's key and the attempt number — so a given retry always waits the
same amount, which keeps chaos runs and tests deterministic the same way
`repro.engine.faults` keeps fault firing deterministic.

:class:`RetryPolicy` is the shared bundled form of the policy — attempt
budget, base, and cap in one value — so every retry loop in the tree
(``dist.node`` reconnects, ``service.api`` client requests) spells its
behaviour the same way instead of re-deriving it from loose floats.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable

#: Default base delay (seconds) for the first retry.
BACKOFF_BASE = 0.05

#: Default ceiling on any single delay.
BACKOFF_CAP = 2.0


def jittered_backoff(attempt: int, base: float = BACKOFF_BASE,
                     cap: float = BACKOFF_CAP, key: str = "") -> float:
    """Delay before retry number ``attempt`` (1-based), in seconds.

    ``base * 2**(attempt-1)``, clamped to ``cap``, scaled by a seeded
    jitter factor in ``[0.5, 1.5)`` derived from ``(key, attempt)`` —
    the same inputs always produce the same delay.  ``base <= 0``
    disables backoff entirely (returns 0.0).
    """
    if base <= 0:
        return 0.0
    delay = min(base * (2.0 ** max(attempt - 1, 0)), cap)
    digest = hashlib.sha256(f"{key}:{attempt}".encode("utf-8")).digest()
    jitter = 0.5 + int.from_bytes(digest[:4], "big") / 2 ** 32
    return delay * jitter


@dataclass(frozen=True)
class RetryPolicy:
    """One retry discipline: how many attempts, how long between them.

    ``attempts`` counts *total* tries, so ``attempts=1`` means no retry
    at all.  Delays come from :func:`jittered_backoff` keyed by the
    caller's identity, so two clients retrying the same operation still
    spread out while each one's schedule is reproducible.
    """

    attempts: int = 8
    base: float = BACKOFF_BASE
    cap: float = BACKOFF_CAP

    def delay(self, attempt: int, key: str = "") -> float:
        """Seconds to wait before retry number ``attempt`` (1-based)."""
        return jittered_backoff(attempt, self.base, self.cap, key=key)

    def sleep(self, attempt: int, key: str = "",
              sleeper: Callable[[float], None] = time.sleep) -> None:
        """Wait out the backoff before retry ``attempt``; ``sleeper`` is
        injectable so tests assert the schedule without real sleeping."""
        delay = self.delay(attempt, key)
        if delay > 0:
            sleeper(delay)

    def call(self, fn: Callable, key: str = "",
             retry_on: tuple = (ConnectionError, TimeoutError, OSError),
             sleeper: Callable[[float], None] = time.sleep):
        """Run ``fn()`` under this policy: on a retryable exception sleep
        the jittered backoff and try again, re-raising once the attempt
        budget is spent."""
        for attempt in range(1, self.attempts + 1):
            try:
                return fn()
            except retry_on:
                if attempt >= self.attempts:
                    raise
                self.sleep(attempt, key=key, sleeper=sleeper)


#: The node-reconnect discipline shared by `repro.engine.dist.node` and
#: anything else that dials a coordinator: a fast first retry backing
#: off to at most 5 s between attempts.
RECONNECT_POLICY = RetryPolicy(attempts=8, base=0.2, cap=5.0)
