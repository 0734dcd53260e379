"""The SC model: every atomic access executes seq-cst.

The strongest point of the lattice, and the model of the SC-upgrade
ablation (E11, ``model="sc"``): every non-NA access and fence is
strengthened to ``Mode.SC`` as it executes — the op itself is never
changed — so reads are modification-order-maximal and every access
synchronizes through the global SC view.  Interleaving nondeterminism remains; stale
reads do not — all litmus weak outcomes vanish (SB reads 0/0 is gone,
IRIW readers agree), which is exactly sequential consistency in a
message-memory presentation.

Non-atomics stay non-atomic: SC does not paper over data races, so the
race detector keeps its meaning (racy programs are still UB).
"""

from __future__ import annotations

from ..rmc.modes import Mode
from .base import MemoryModel, register_model


def _sc(mode: Mode) -> Mode:
    return mode if mode is Mode.NA else Mode.SC


class ScModel(MemoryModel):
    """Sequential consistency via wholesale seq-cst strengthening."""

    id = "sc"
    name = "sequentially consistent (every atomic executes seq-cst)"

    read_mode = staticmethod(_sc)
    write_mode = staticmethod(_sc)
    rmw_mode = staticmethod(_sc)
    fail_mode = staticmethod(_sc)
    fence_mode = staticmethod(_sc)


SC_MODEL = register_model(ScModel())
