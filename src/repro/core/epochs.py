"""Speculative epochs and their in-order commit schedule (paper §4.2.1).

An epoch is the stretch of speculative execution between two persist
barriers.  Epoch *k* may commit only when

1. its predecessor (epoch *k-1*) has fully committed, **and**
2. the persist barrier that *started* epoch *k* has completed — for the
   first epoch that is the pcommit already in flight when speculation
   began; for a child epoch it is the delayed ``sfence-pcommit-sfence``
   recorded in the SSB by its parent.

At commit, the epoch's buffered stores update the cache and its delayed
PMEM instructions replay "as quickly as possible" (one SSB entry per cycle
per cache port in this model); the clwbs must be acknowledged before the
next barrier's pcommit can issue.

:class:`EpochManager` owns the timing recurrence; the pipeline model feeds
it barrier events and queries commit times for stall decisions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional

from repro.core.checkpoints import CheckpointBuffer
from repro.core.ssb import SpeculativeStoreBuffer, SSBOp

# per-op paths read enum members as module constants (see repro.core.ssb)
_STORE = SSBOp.STORE
_CLWB = SSBOp.CLWB
_CLFLUSHOPT = SSBOp.CLFLUSHOPT
_BARRIER = SSBOp.BARRIER


@dataclass
class SpeculativeEpoch:
    """One speculative epoch's bookkeeping."""

    epoch_id: int
    checkpoint: int
    #: completion time of the persist barrier gating this epoch's commit
    #: (pcommit acknowledgement); the epoch may not commit earlier.
    barrier_done: int
    #: trace index of the first instruction executed under this epoch —
    #: a rollback resumes execution here (the checkpointed PC).
    start_index: int = 0
    #: counts of buffered state accumulated while the epoch executes
    n_stores: int = 0
    n_flushes: int = 0
    n_pcommits: int = 0
    #: set when the epoch has ended (a child was created after it)
    ended: bool = False
    #: time the epoch's own drain finishes (valid once scheduled)
    drain_done: int = field(default=0)
    #: time the *next* barrier's pcommit completes (valid once scheduled)
    next_barrier_done: int = field(default=0)


class EpochManager:
    """Tracks active epochs, their SSB usage, and the commit schedule."""

    def __init__(
        self,
        checkpoints: CheckpointBuffer,
        ssb: SpeculativeStoreBuffer,
        drain_per_cycle: int = 1,
    ):
        self.checkpoints = checkpoints
        self.ssb = ssb
        self.drain_per_cycle = max(1, drain_per_cycle)
        self.active: Deque[SpeculativeEpoch] = deque()
        self._next_id = 0
        # statistics
        self.epochs_created = 0
        self.max_active = 0
        self.rollbacks = 0

    # ------------------------------------------------------------------
    @property
    def speculating(self) -> bool:
        return bool(self.active)

    @property
    def current(self) -> Optional[SpeculativeEpoch]:
        return self.active[-1] if self.active else None

    @property
    def oldest(self) -> Optional[SpeculativeEpoch]:
        return self.active[0] if self.active else None

    # ------------------------------------------------------------------
    def begin_epoch(
        self, barrier_done: int, now: int, start_index: int = 0
    ) -> SpeculativeEpoch:
        """Start a (first or child) epoch; caller ensured a checkpoint is
        free.  *barrier_done* is when the gating pcommit completes;
        *start_index* is the checkpointed trace position."""
        checkpoint = self.checkpoints.acquire(now)
        epoch = SpeculativeEpoch(self._next_id, checkpoint, barrier_done, start_index)
        self._next_id += 1
        self.active.append(epoch)
        self.epochs_created += 1
        if len(self.active) > self.max_active:
            self.max_active = len(self.active)
        return epoch

    # ------------------------------------------------------------------
    # buffered state accounting (SSB appends happen in the pipeline)
    # ------------------------------------------------------------------
    def buffer_store(self, block: int) -> int:
        """Buffer a speculative store in the current epoch; returns the
        SSB occupancy after it."""
        epoch = self.active[-1]
        epoch.n_stores += 1
        return self.ssb.append(_STORE, block, epoch.epoch_id)

    def buffer_flush(self, block: int, invalidate: bool = False) -> int:
        """The same for a delayed clwb (clflushopt when *invalidate*)."""
        epoch = self.active[-1]
        epoch.n_flushes += 1
        return self.ssb.append(
            _CLFLUSHOPT if invalidate else _CLWB, block, epoch.epoch_id
        )

    def buffer_barrier(self) -> None:
        """Record the special sfence-pcommit-sfence opcode for the epoch
        that is ending (its replay gates the next epoch's commit)."""
        epoch = self.active[-1]
        epoch.n_pcommits += 1
        self.ssb.append(_BARRIER, 0, epoch.epoch_id)

    # ------------------------------------------------------------------
    # commit scheduling
    # ------------------------------------------------------------------
    def commit_time(self) -> int:
        """When the oldest epoch's *checkpoint* can be released (its gating
        barrier completed).  SSB entries free later, at drain end."""
        return self.oldest.barrier_done

    def schedule_drain(self, epoch: SpeculativeEpoch, ended_at: int, memctrl, ack) -> int:
        """Schedule the replay of *epoch*'s buffered state.

        Stores update the cache first (``drain_per_cycle`` per cycle), then
        the delayed clwbs issue; the last writeback acknowledgement bounds
        the drain.  Returns (and records) the drain completion time.

        ``memctrl`` is the :class:`~repro.uarch.memctrl.MemoryController`;
        ``ack`` maps a writeback's enqueue-done time to its ack time.
        """
        epoch.ended = True
        drain_start = max(epoch.barrier_done, ended_at)
        store_cycles = (epoch.n_stores + self.drain_per_cycle - 1) // self.drain_per_cycle
        flush_issue_done = drain_start + store_cycles + epoch.n_flushes
        last_ack = flush_issue_done
        for i in range(epoch.n_flushes):
            enqueue_done = memctrl.enqueue_writeback(0, drain_start + store_cycles + i)
            last_ack = max(last_ack, ack(enqueue_done))
        epoch.drain_done = last_ack
        return last_ack

    def schedule_end(self, epoch: SpeculativeEpoch, ended_at: int, memctrl, ack) -> int:
        """Epoch *epoch* just ended at a persist barrier reached at
        *ended_at*: drain its state, then issue the ending barrier's
        pcommit, whose completion gates the *next* epoch.  Returns that
        completion time."""
        last_ack = self.schedule_drain(epoch, ended_at, memctrl, ack)
        epoch.next_barrier_done = memctrl.pcommit(last_ack)
        return epoch.next_barrier_done

    def commit_oldest(self, published: Optional[List[int]] = None) -> SpeculativeEpoch:
        """Retire the oldest epoch: free its checkpoint and SSB entries.

        The blocks of its buffered stores, which become globally visible
        now, are appended to *published* (in program order) when given."""
        epoch = self.active.popleft()
        self.checkpoints.release(epoch.checkpoint)
        self.ssb.release_epoch(epoch.epoch_id, published)
        return epoch

    # ------------------------------------------------------------------
    def rollback(self) -> List[SpeculativeEpoch]:
        """Abort speculation (BLT conflict or failure): every uncommitted
        epoch is discarded, the SSB flushed, and all checkpoints freed.
        Returns the discarded epochs, oldest first — execution resumes from
        the oldest checkpoint (paper §4.2.2)."""
        discarded = list(self.active)
        self.active.clear()
        self.ssb.flush()
        self.checkpoints.release_all()
        self.rollbacks += 1
        return discarded
