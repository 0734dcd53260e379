"""Shards as leases: fencing tokens, exclusion, retry/backoff budgets.

A shard handed to a remote node is not *assigned*, it is **leased**: the
grant carries a deadline (renewed by the node's heartbeats) and a
**fencing token** from a single monotonic counter.  Every state change —
completion, failure, renewal — must present the token of the shard's
*current* lease; anything else is stale by construction.  That one rule
is what makes resurrection safe: a node that hangs past its deadline,
gets its shard requeued, and then wakes up and submits, presents a
fenced-off token and is rejected — the shard is never double-counted,
no matter how the partition or pause interleaves.

Requeue policy is the engine's retry budget, plus two twists:

* **exclusion** — the node that failed a shard is remembered and not
  offered it again (a deterministic crasher should land on a different
  node).  Exclusion yields to liveness, never the other way round:
  when *every* live node is excluded from a shard (or the caller asks
  for a ``lenient`` grant), the shard goes back to an excluded node
  and spends a retry rather than starving the run — a shard with no
  grantable node and no budget left would otherwise stay PENDING
  forever and wedge the coordinator;
* **backoff** — a requeued shard only becomes eligible again after a
  jittered exponential delay (`repro.engine.retry`), so a fast
  grant/fail loop cannot spin the budget away in milliseconds.

A shard whose attempts exceed ``max_retries + 1`` is marked **failed**
and surfaces as truncated coverage — graceful degradation, not a crash
(`repro.engine.budget.Coverage`) — or, for a local run, as
`repro.engine.pool.ShardFailed`.

Every spent attempt — a reported failure, a corrupt result, an expired
lease, a lost node — reaches one place, ``_requeue``, which reports it
through the ``on_requeue`` hook: exactly one retry per spent attempt.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from ..retry import jittered_backoff

PENDING = "pending"
LEASED = "leased"
DONE = "done"
FAILED = "failed"

#: Verdicts of `LeaseTable.complete`.
ACCEPTED = "accepted"
STALE = "stale"


@dataclass
class Lease:
    """One live grant: who holds which shard under which token."""

    shard_id: int
    node_id: str
    token: int
    attempt: int
    deadline: float

    def expired(self, now: Optional[float] = None) -> bool:
        return (now if now is not None else time.time()) >= self.deadline


class LeaseTable:
    """Coordinator-side truth about every shard's lease state."""

    def __init__(self, n_shards: int, max_retries: int = 2,
                 lease_seconds: float = 10.0, backoff_base: float = 0.1,
                 backoff_cap: float = 5.0, token_floor: int = 0,
                 on_requeue: Optional[Callable[["Lease", str],
                                               None]] = None):
        self.n_shards = n_shards
        self.max_retries = max_retries
        self.lease_seconds = lease_seconds
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._status: Dict[int, str] = {s: PENDING for s in range(n_shards)}
        self._attempts: Dict[int, int] = {s: 0 for s in range(n_shards)}
        self._excluded: Dict[int, Set[str]] = {s: set()
                                               for s in range(n_shards)}
        self._eligible_at: Dict[int, float] = {s: 0.0
                                               for s in range(n_shards)}
        self._failure: Dict[int, str] = {}
        self._leases: Dict[int, Lease] = {}
        # ``token_floor`` lets a restarted coordinator start its counter
        # strictly above every token the previous incarnation granted
        # (the campaign service replays the floor from its WAL), so a
        # node that outlived the crash and submits under a pre-crash
        # lease is fenced STALE instead of colliding with a fresh token.
        self._next_token = token_floor + 1
        #: Called as ``on_requeue(lease, reason)`` for every spent
        #: attempt, whether the shard goes back to PENDING or FAILED.
        self._on_requeue = on_requeue or (lambda lease, reason: None)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def status(self, shard_id: int) -> str:
        return self._status[shard_id]

    def attempts(self, shard_id: int) -> int:
        return self._attempts[shard_id]

    def lease_of(self, shard_id: int) -> Optional[Lease]:
        return self._leases.get(shard_id)

    @property
    def leases(self) -> List[Lease]:
        return list(self._leases.values())

    @property
    def done_ids(self) -> List[int]:
        return sorted(s for s, st in self._status.items() if st == DONE)

    @property
    def failed_ids(self) -> List[int]:
        return sorted(s for s, st in self._status.items() if st == FAILED)

    @property
    def settled(self) -> bool:
        """Every shard is done or permanently failed: the run can end."""
        return all(st in (DONE, FAILED) for st in self._status.values())

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------

    def mark_done(self, shard_id: int) -> None:
        """Settle a shard without a lease (checkpoint-resumed, or won by
        a hedged shadow grant).  Popping the lease is what fences the
        loser: its later submission no longer matches a current lease
        and is rejected STALE."""
        self._status[shard_id] = DONE
        self._leases.pop(shard_id, None)

    def issue_token(self) -> int:
        """Draw a fresh fencing token without creating a lease.

        Shadow grants — hedged duplicates (`repro.engine.hedge`) —
        dispatch work *outside* the lease table: the primary lease stays
        the shard's only lease, so whichever copy submits second fails
        the exact-(node, token) check and is fenced.  Drawing from the
        single monotonic counter keeps every token unique, and the
        campaign service WAL records shadow tokens like any grant, so a
        restarted coordinator's token floor clears them too.
        """
        token = self._next_token
        self._next_token += 1
        return token

    def grant(self, node_id: str, now: float, lenient: bool = False,
              live_nodes: Optional[Set[str]] = None) -> Optional[Lease]:
        """Lease the first eligible pending shard to ``node_id``.

        Idempotent per node: a node that already holds a lease (its
        earlier grant reply was lost) gets the *same* lease back,
        renewed — never a second shard it would silently abandon.

        Exclusion is advisory, not absolute: ``lenient`` lets the node
        take any shard that excluded it, and a shard whose exclusion
        set covers all of ``live_nodes`` is granted back to an
        excluded node anyway — otherwise a shard that failed once on
        every connected node would starve PENDING forever while the
        coordinator waits for it to settle.
        """
        for lease in self._leases.values():
            if lease.node_id == node_id:
                lease.deadline = now + self.lease_seconds
                return lease
        pick: Optional[int] = None
        fallback: Optional[int] = None
        for sid in range(self.n_shards):
            if self._status[sid] != PENDING \
                    or self._eligible_at[sid] > now:
                continue
            if node_id in self._excluded[sid]:
                if fallback is None and (
                        lenient or (live_nodes is not None
                                    and live_nodes <= self._excluded[sid])):
                    fallback = sid
                continue
            pick = sid
            break
        if pick is None:
            pick = fallback
        if pick is None:
            return None
        self._attempts[pick] += 1
        lease = Lease(shard_id=pick, node_id=node_id,
                      token=self._next_token,
                      attempt=self._attempts[pick],
                      deadline=now + self.lease_seconds)
        self._next_token += 1
        self._leases[pick] = lease
        self._status[pick] = LEASED
        return lease

    def renew(self, node_id: str, shard_id: int, token: int,
              now: float) -> bool:
        """Heartbeat renewal: only the exact current lease is renewed.

        A beat naming a stale token (or a grant the coordinator has
        since requeued) renews nothing — which is what lets a lease the
        node never learned about expire honestly.
        """
        lease = self._leases.get(shard_id)
        if lease is None or lease.node_id != node_id \
                or lease.token != token:
            return False
        lease.deadline = now + self.lease_seconds
        return True

    def complete(self, shard_id: int, token: int, node_id: str) -> str:
        """Settle a shard on a submitted result; `STALE` fences off
        anything but the current lease's exact (node, token)."""
        lease = self._leases.get(shard_id)
        if lease is None or lease.node_id != node_id \
                or lease.token != token:
            return STALE
        del self._leases[shard_id]
        self._status[shard_id] = DONE
        return ACCEPTED

    def fail(self, shard_id: int, token: int, node_id: str, now: float,
             reason: str) -> bool:
        """A node reported (or produced) a failed attempt: requeue.

        Fenced the same way as `complete` — only the current lease
        holder can fail its shard.
        """
        lease = self._leases.get(shard_id)
        if lease is None or lease.node_id != node_id \
                or lease.token != token:
            return False
        self._requeue(lease, now, reason)
        return True

    def expire(self, now: float) -> List[Lease]:
        """Requeue every lease past its deadline; returns them."""
        expired = [l for l in self._leases.values() if l.expired(now)]
        for lease in expired:
            self._requeue(lease, now, "lease expired")
        return expired

    def release_node(self, node_id: str, now: float) -> List[Lease]:
        """A node is gone (connection EOF, kill): requeue its leases."""
        lost = [l for l in self._leases.values() if l.node_id == node_id]
        for lease in lost:
            self._requeue(lease, now, f"node {node_id} lost")
        return lost

    def _requeue(self, lease: Lease, now: float, reason: str) -> None:
        sid = lease.shard_id
        del self._leases[sid]
        self._excluded[sid].add(lease.node_id)
        self._on_requeue(lease, reason)
        if self._attempts[sid] > self.max_retries:
            self._status[sid] = FAILED
            self._failure[sid] = reason
            return
        self._status[sid] = PENDING
        self._eligible_at[sid] = now + jittered_backoff(
            self._attempts[sid], self.backoff_base, self.backoff_cap,
            key=f"lease-{sid}")

    def failure_reason(self, shard_id: int) -> str:
        return self._failure.get(shard_id, "")
