"""Speculative Store Buffer (SSB) — paper §4.2.2.

A FIFO between the pipeline and the cache.  During speculation it holds, in
program order:

* speculatively retired **stores** (address + data would be here in
  hardware; the timing model only needs the address), and
* **delayed PMEM instructions** (``clwb``/``clflushopt``/``pcommit``), which
  cannot execute speculatively and replay at epoch commit, plus the special
  *barrier* opcode marking that an ``sfence-pcommit-sfence`` must complete
  before the next epoch commits.

Each entry carries the epoch it belongs to, so the drain logic can release
exactly one epoch's entries at commit.  The CAM access latency depends on
the entry count (Table 3, :func:`ssb_latency`; :mod:`repro.uarch.config`
re-exports both names).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple


#: Table 3 — SSB size (entries) to access latency (cycles).
SSB_LATENCY_TABLE: Dict[int, int] = {32: 2, 64: 3, 128: 4, 256: 5, 512: 7, 1024: 10}


def ssb_latency(entries: int) -> int:
    """Access latency of an SSB with *entries* entries (paper Table 3)."""
    try:
        return SSB_LATENCY_TABLE[entries]
    except KeyError:
        raise ValueError(
            f"no Table-3 latency for SSB size {entries}; "
            f"valid sizes: {sorted(SSB_LATENCY_TABLE)}"
        ) from None


class SSBFullError(RuntimeError):
    """Raised when an entry is appended to a full SSB (the pipeline model
    should have stalled instead; seeing this is a model bug)."""


class SSBOp(enum.Enum):
    STORE = "store"
    CLWB = "clwb"
    CLFLUSHOPT = "clflushopt"
    PCOMMIT = "pcommit"
    #: special opcode: sfence-pcommit-sfence required before the next epoch
    #: commits (paper's single-checkpoint optimisation).
    BARRIER = "barrier"


# reading a member through its enum class (``SSBOp.STORE``) is a slow
# attribute lookup; the per-store paths read module constants
_STORE = SSBOp.STORE


@dataclass
class SSBEntry:
    """Public view of one entry (:meth:`SpeculativeStoreBuffer.entries`,
    :meth:`SpeculativeStoreBuffer.pop_epoch`)."""

    op: SSBOp
    block: int
    epoch_id: int


class SpeculativeStoreBuffer:
    """Bounded FIFO of speculative stores and delayed PMEM operations."""

    def __init__(self, capacity: int = 256):
        self.capacity = capacity
        self.latency = ssb_latency(capacity)
        #: ``(op, block, epoch_id)`` in program order
        self._entries: Deque[Tuple[SSBOp, int, int]] = deque()
        #: membership index for store-to-load forwarding: block -> count
        self._store_blocks: Dict[int, int] = {}
        #: whether every entry arrived in epoch order (then the FIFO head
        #: holds its oldest epoch)
        self._in_order = True
        # statistics
        self.appends = 0
        self.lookups = 0
        self.forwards = 0
        self.max_occupancy = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def free_slots(self) -> int:
        return self.capacity - len(self._entries)

    def append(self, op: SSBOp, block: int, epoch_id: int) -> int:
        """Buffer one entry; returns the occupancy after it."""
        entries = self._entries
        occupancy = len(entries) + 1
        if occupancy > self.capacity:
            raise SSBFullError(f"SSB overflow at {self.capacity} entries")
        if entries and epoch_id < entries[-1][2]:
            self._in_order = False
        entries.append((op, block, epoch_id))
        if op is _STORE:
            store_blocks = self._store_blocks
            store_blocks[block] = store_blocks.get(block, 0) + 1
        self.appends += 1
        if occupancy > self.max_occupancy:
            self.max_occupancy = occupancy
        return occupancy

    # ------------------------------------------------------------------
    def holds_store(self, block: int) -> bool:
        """CAM search used by speculative loads (after the bloom filter)."""
        self.lookups += 1
        present = block in self._store_blocks
        if present:
            self.forwards += 1
        return present

    # ------------------------------------------------------------------
    def release_epoch(
        self, epoch_id: int, published: Optional[List[int]] = None
    ) -> None:
        """Remove the oldest epoch's entries, appending the blocks of its
        stores to *published* (in program order) when given.

        Epochs commit oldest-first, so the entries of *epoch_id* must be a
        prefix of the FIFO: an entry of this or an older epoch left behind
        is a sequencing bug.  While entries arrive in epoch order the head
        is the only place one could be.
        """
        entries = self._entries
        popleft = entries.popleft
        store_blocks = self._store_blocks
        while entries and entries[0][2] == epoch_id:
            op, block, _ = popleft()
            if op is _STORE:
                count = store_blocks[block] - 1
                if count:
                    store_blocks[block] = count
                else:
                    del store_blocks[block]
                if published is not None:
                    published.append(block)
        if not entries:
            self._in_order = True
        elif entries[0][2] <= epoch_id or not self._in_order and any(
            entry[2] <= epoch_id for entry in entries
        ):
            raise RuntimeError(
                f"epoch {epoch_id} entries not contiguous at the SSB head"
            )

    def pop_epoch(self, epoch_id: int) -> List[SSBEntry]:
        """Remove and return the oldest epoch's entries (in order); see
        :meth:`release_epoch`."""
        drained: List[SSBEntry] = []
        for op, block, entry_epoch in self._entries:
            if entry_epoch != epoch_id:
                break
            drained.append(SSBEntry(op, block, entry_epoch))
        self.release_epoch(epoch_id)
        return drained

    def flush(self) -> None:
        """Discard everything (rollback)."""
        self._entries.clear()
        self._store_blocks.clear()
        self._in_order = True

    def entries(self) -> List[SSBEntry]:
        """Snapshot of the FIFO contents (tests / debugging)."""
        return [SSBEntry(*entry) for entry in self._entries]
