"""Durable-state tracking for the PMEM persistency model.

The :class:`PersistenceDomain` is a *functional* (untimed) model: it observes
every store the workload makes and every persistency instruction it issues,
and maintains, at cache-block granularity, where the newest value of each
block lives — cache, write-pending queue (WPQ), or NVMM.

A key subtlety it also models is **cache evictions**: in a real write-back
hierarchy a dirty block may be written back at *any* time due to capacity
pressure, so data can become durable "early".  Failure-safe software must be
correct regardless; :meth:`PersistenceDomain.random_evict` lets crash tests
exercise that freedom (the adversarial scheduler in
:class:`~repro.pmem.crash.CrashTester` uses it).
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Set

from repro.mem.heap import NVMHeap, CACHE_BLOCK


class PersistenceDomain:
    """Tracks which cache blocks are dirty, pending in the WPQ, or durable.

    The durable image starts as a snapshot of the heap at attach time and is
    updated block-by-block as blocks become durable.  ``crash_image`` returns
    the bytes a post-failure system would observe.

    Attach it to an :class:`~repro.mem.heap.NVMHeap` via ``heap.attach``:
    it implements the observer protocol (``load``/``store``) plus the
    persistency-instruction hooks (``clwb``/``clflushopt``/``pcommit``/
    ``sfence``).
    """

    def __init__(self, heap: NVMHeap):
        self.heap = heap
        #: Blocks whose newest value is only in the cache.
        self.dirty: Set[int] = set()
        #: Blocks whose newest value sits in the memory-controller WPQ,
        #: mapped to the data that entered the queue.
        self.wpq: Dict[int, bytes] = {}
        #: Durable image overlay: block address -> durable bytes.  Blocks not
        #: present still hold their attach-time contents (``_base``).
        self._durable: Dict[int, bytes] = {}
        self._base = heap.snapshot()
        #: Flushes issued since the last sfence; clwb/clflushopt only take
        #: effect (enter the WPQ) once an sfence orders them.  This models
        #: that an un-fenced flush gives no completion guarantee.
        self._pending_flushes: Set[int] = set()
        # statistics
        self.n_stores = 0
        self.n_flushes = 0
        self.n_pcommits = 0
        self.n_sfences = 0
        self.n_evictions = 0

    # ------------------------------------------------------------------
    # MemoryObserver protocol
    # ------------------------------------------------------------------
    def load(self, addr: int, size: int = 8, meta: Optional[str] = None) -> None:
        """Loads do not change persistence state."""

    def store(self, addr: int, size: int = 8, meta: Optional[str] = None) -> None:
        first = addr & ~(CACHE_BLOCK - 1)
        last = (addr + size - 1) & ~(CACHE_BLOCK - 1)
        block = first
        while block <= last:
            self.dirty.add(block)
            # A newer store supersedes any queued or pending-flush copy of
            # the block: the cached value is now the newest.
            self.wpq.pop(block, None)
            self._pending_flushes.discard(block)
            block += CACHE_BLOCK
        self.n_stores += 1

    # ------------------------------------------------------------------
    # persistency instructions
    # ------------------------------------------------------------------
    def clwb(self, addr: int, meta: Optional[str] = None) -> None:
        """Request write-back of the block containing *addr* (keeps it cached)."""
        self._pending_flushes.add(addr & ~(CACHE_BLOCK - 1))
        self.n_flushes += 1

    # clflushopt behaves identically at this level of abstraction (eviction
    # only matters for timing, which repro.uarch models).
    clflushopt = clwb

    def sfence(self, meta: Optional[str] = None) -> None:
        """Complete all pending flushes: dirty blocks move cache -> WPQ."""
        for block in self._pending_flushes:
            if block in self.dirty:
                self._move_to_wpq(block)
        self._pending_flushes.clear()
        self.n_sfences += 1

    def pcommit(self, meta: Optional[str] = None) -> None:
        """Drain the WPQ: queued blocks become durable.

        Note: per the paper, a pcommit not followed by an sfence gives no
        ordering guarantee to younger stores — but its *effect* (the drain)
        still happens; the timed models handle the ordering half.
        """
        for block, data in self.wpq.items():
            self._durable[block] = data
        self.wpq.clear()
        self.n_pcommits += 1

    def persist_barrier(self) -> None:
        """Convenience: the full sfence; pcommit; sfence sequence."""
        self.sfence()
        self.pcommit()
        self.sfence()

    # ------------------------------------------------------------------
    # background cache behaviour
    # ------------------------------------------------------------------
    def evict(self, block: int) -> None:
        """Write back one dirty block due to cache pressure (then it may
        drain to NVMM at any time; we conservatively make it durable, the
        worst case for recovery reasoning)."""
        block &= ~(CACHE_BLOCK - 1)
        if block in self.dirty:
            self._move_to_wpq(block)
            self._durable[block] = self.wpq.pop(block)
            self.n_evictions += 1

    def random_evict(self, rng: random.Random, fraction: float = 0.5) -> None:
        """Evict a random subset of dirty blocks (adversarial scheduler)."""
        victims = [b for b in sorted(self.dirty) if rng.random() < fraction]
        for block in victims:
            self.evict(block)

    # ------------------------------------------------------------------
    # crash / inspection
    # ------------------------------------------------------------------
    def is_durable(self, addr: int, size: int = 8) -> bool:
        """Whether [addr, addr+size) is entirely durable *and* current."""
        first = addr & ~(CACHE_BLOCK - 1)
        last = (addr + size - 1) & ~(CACHE_BLOCK - 1)
        block = first
        while block <= last:
            if block in self.dirty or block in self.wpq:
                return False
            block += CACHE_BLOCK
        return True

    def crash_image(self) -> bytes:
        """The bytes NVMM would hold after an instant power failure."""
        image = bytearray(self._base)
        for block, data in self._durable.items():
            image[block : block + CACHE_BLOCK] = data
        return bytes(image)

    def crash(self) -> None:
        """Simulate the failure: overwrite the heap with the durable image
        and reset volatile state (caches and WPQ are lost)."""
        self.heap.restore(self.crash_image())
        self.dirty.clear()
        self.wpq.clear()
        self._pending_flushes.clear()
        # After the crash the durable overlay *is* the base image.
        self._base = self.heap.snapshot()
        self._durable.clear()

    def sync_base(self) -> None:
        """Declare the current heap contents fully durable (used after
        untimed initialisation, mirroring the paper's fast-forward phase)."""
        self._base = self.heap.snapshot()
        self._durable.clear()
        self.dirty.clear()
        self.wpq.clear()
        self._pending_flushes.clear()

    # ------------------------------------------------------------------
    def _move_to_wpq(self, block: int) -> None:
        self.dirty.discard(block)
        self.wpq[block] = self.heap.raw_read(block, CACHE_BLOCK)
