"""Transaction manager implementing the four-step WAL protocol (paper §3.1).

Workloads use it as::

    tx.begin()
    tx.log_range(node_addr, 64)        # as many as needed (step 1 writes)
    tx.seal()                          # step-1 barrier + logged_bit barrier
    ... mutate the structure ...
    tx.flush(node_addr)                # clwb each modified block (step 3)
    tx.commit()                        # step-3 barrier + clear bit + barrier

Each fully-fenced transaction issues exactly 4 pcommits and 8 sfences, the
pattern Figure 2 of the paper shows for the linked list.

The manager is mode-gated through its :class:`~repro.txn.persist_ops.PersistOps`:
in ``BASE`` mode logging itself is skipped, in ``LOG`` mode the log is
written but no persistency instructions are issued, etc.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.mem.alloc import Allocator
from repro.mem.heap import NVMHeap, CACHE_BLOCK
from repro.txn.modes import PersistMode
from repro.txn.persist_ops import PersistOps
from repro.txn.undolog import UndoLog


@dataclass
class TxStats:
    """Dynamic transaction statistics."""

    transactions: int = 0
    entries_logged: int = 0
    bytes_logged: int = 0
    recoveries: int = 0
    entries_undone: int = 0


class TxError(RuntimeError):
    """Protocol misuse (e.g. commit without begin)."""


class TxManager:
    """Drives the WAL protocol for one single-threaded workload."""

    def __getstate__(self):
        # restored attribute by attribute (see PersistentWorkload.fork)
        return None, self.__dict__

    def __init__(
        self,
        heap: NVMHeap,
        allocator: Allocator,
        persist: PersistOps,
        log_capacity: int = 1 << 16,
    ):
        self.heap = heap
        self.persist = persist
        self.log = UndoLog(heap, allocator, log_capacity)
        self.stats = TxStats()
        self._in_tx = False
        self._sealed = False
        self._log_blocks: List[int] = []
        self._flush_queue: List[int] = []

    @property
    def mode(self) -> PersistMode:
        return self.persist.mode

    # ------------------------------------------------------------------
    # the four steps
    # ------------------------------------------------------------------
    def begin(self) -> None:
        """Open a transaction; resets the undo log."""
        if self._in_tx:
            raise TxError("nested transactions are not supported")
        self._in_tx = True
        self._sealed = False
        self._log_blocks = []
        self._flush_queue = []
        if self.mode.logging:
            self.log.reset()
        self.stats.transactions += 1

    def log_range(self, addr: int, size: int) -> None:
        """Step 1 (writes): record the pre-image of a range about to change."""
        if not self._in_tx:
            raise TxError("log_range outside a transaction")
        if self._sealed:
            raise TxError("cannot log after seal(); use full logging (§3.2)")
        if not self.mode.logging:
            return
        self._log_blocks.extend(self.log.append(addr, size))
        self.stats.entries_logged += 1
        self.stats.bytes_logged += size

    def log_block(self, addr: int) -> None:
        """Log the whole cache block containing *addr* (one node)."""
        self.log_range(addr & ~(CACHE_BLOCK - 1), CACHE_BLOCK)

    def seal(self) -> None:
        """Steps 1 (barrier) and 2: persist the log, then set logged_bit."""
        if not self._in_tx:
            raise TxError("seal outside a transaction")
        if self._sealed:
            raise TxError("transaction already sealed")
        self._sealed = True
        if not self.mode.logging:
            return
        persist = self.persist
        # Step 1 barrier: flush every log block (entries + header) and wait.
        for block in dict.fromkeys(self._log_blocks):  # de-dup, keep order
            persist.clwb(block, meta="log")
        persist.clwb(self.log.base, meta="log")  # header (n_entries)
        persist.persist_barrier(meta="step1")
        # Step 2: set logged_bit and make it durable.
        self.log.write_logged_bit(1)
        persist.clwb(self.log.logged_bit_addr, meta="log-bit")
        persist.persist_barrier(meta="step2")

    def flush(self, addr: int, size: int = CACHE_BLOCK) -> None:
        """Step 3 (flushes): clwb the block(s) covering a modified range."""
        if not self._in_tx:
            raise TxError("flush outside a transaction")
        first = addr & ~(CACHE_BLOCK - 1)
        last = (addr + size - 1) & ~(CACHE_BLOCK - 1)
        for block in range(first, last + CACHE_BLOCK, CACHE_BLOCK):
            self.persist.clwb(block, meta="data")

    def commit(self) -> None:
        """Steps 3 (barrier) and 4: persist updates, then clear logged_bit."""
        if not self._in_tx:
            raise TxError("commit outside a transaction")
        if not self._sealed:
            raise TxError("commit before seal()")
        persist = self.persist
        # Step 3 barrier: all data flushes issued via flush() must be durable.
        persist.persist_barrier(meta="step3")
        if self.mode.logging:
            # Step 4: clear logged_bit and make it durable.
            self.log.write_logged_bit(0)
            persist.clwb(self.log.logged_bit_addr, meta="log-bit")
        persist.persist_barrier(meta="step4")
        self._in_tx = False
        self._sealed = False

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def recover(self) -> int:
        """Post-crash recovery: undo if a transaction was in flight.

        Returns the number of undo entries applied.  Per the paper, if the
        logged_bit is set we must pessimistically undo regardless of how far
        the transaction got.  Recovery itself is made failure safe by
        flushing every restored block before clearing the bit.
        """
        self._in_tx = False
        self._sealed = False
        self.stats.recoveries += 1
        if self.log.read_logged_bit() == 0:
            return 0
        undone = self.log.apply_undo(self.persist)
        self.log.write_logged_bit(0)
        self.persist.clwb(self.log.logged_bit_addr, meta="recover")
        self.persist.persist_barrier(meta="recover")
        self.stats.entries_undone += undone
        return undone
