"""Undo log stored in simulated NVMM.

Layout (all fields 8-byte words, the header padded to one cache block so
``logged_bit`` persists with a single ``clwb``)::

    base + 0   logged_bit        (0 = idle, 1 = transaction in flight)
    base + 8   n_entries
    base + 64  entry[0]
    ...

Each entry is ``16 + payload`` bytes rounded up to 8:

    +0  target address
    +8  payload size in bytes
    +16 payload (the pre-image of the target range)

Entries are written sequentially; recovery applies them in *reverse* order
(classic undo semantics — the oldest pre-image must win for ranges logged
twice within a transaction).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.mem.alloc import Allocator
from repro.mem.heap import NVMHeap, CACHE_BLOCK


class LogOverflowError(RuntimeError):
    """A transaction logged more data than the log region can hold."""


_HEADER = CACHE_BLOCK  # logged_bit + n_entries, padded to one block


def _round8(n: int) -> int:
    return (n + 7) & ~7


class UndoLog:
    """A fixed-capacity undo log living in the simulated NVMM."""

    def __getstate__(self):
        # restored attribute by attribute (see PersistentWorkload.fork)
        return None, self.__dict__

    def __init__(self, heap: NVMHeap, allocator: Allocator, capacity: int = 1 << 16):
        if capacity <= _HEADER:
            raise ValueError("log capacity too small for its header")
        self.heap = heap
        self.base = allocator.alloc(capacity)
        self.capacity = capacity
        self._cursor = self.base + _HEADER  # next free byte for entries
        # Initialise the header durably-benign: logged_bit = 0.
        heap.store_u64(self.base, 0, meta="log-init")
        heap.store_u64(self.base + 8, 0, meta="log-init")

    # ------------------------------------------------------------------
    # header accessors
    # ------------------------------------------------------------------
    @property
    def logged_bit_addr(self) -> int:
        return self.base

    def read_logged_bit(self) -> int:
        return self.heap.load_u64(self.base, meta="log-bit")

    def write_logged_bit(self, value: int) -> None:
        self.heap.store_u64(self.base, value, meta="log-bit")

    def read_n_entries(self) -> int:
        return self.heap.load_u64(self.base + 8, meta="log-hdr")

    def write_n_entries(self, value: int) -> None:
        self.heap.store_u64(self.base + 8, value, meta="log-hdr")

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Start a fresh transaction's log (entries become garbage)."""
        self._cursor = self.base + _HEADER
        self.write_n_entries(0)

    def append(self, addr: int, size: int) -> List[int]:
        """Log the pre-image of ``[addr, addr+size)``.

        Returns the cache-block addresses the entry occupies, so the caller
        can ``clwb`` them.
        """
        if size <= 0:
            raise ValueError("cannot log an empty range")
        entry_size = 16 + _round8(size)
        if self._cursor + entry_size > self.base + self.capacity:
            raise LogOverflowError(
                f"undo log overflow: {entry_size} bytes needed, "
                f"{self.base + self.capacity - self._cursor} free"
            )
        entry = self._cursor
        pre_image = self.heap.load_bytes(addr, size, meta="log-read")
        self.heap.store_u64(entry, addr, meta="log-write")
        self.heap.store_u64(entry + 8, size, meta="log-write")
        self.heap.store_bytes(entry + 16, pre_image.ljust(_round8(size), b"\0"),
                              meta="log-write")
        self._cursor += entry_size
        count = self.read_n_entries()
        self.write_n_entries(count + 1)
        first_block = entry & ~(CACHE_BLOCK - 1)
        last_block = (entry + entry_size - 1) & ~(CACHE_BLOCK - 1)
        return list(range(first_block, last_block + CACHE_BLOCK, CACHE_BLOCK))

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def entries(self) -> List[Tuple[int, int, int]]:
        """Walk the log; yields ``(entry_addr, target_addr, size)`` oldest first."""
        result: List[Tuple[int, int, int]] = []
        cursor = self.base + _HEADER
        for _ in range(self.read_n_entries()):
            addr = self.heap.load_u64(cursor, meta="log-scan")
            size = self.heap.load_u64(cursor + 8, meta="log-scan")
            result.append((cursor, addr, size))
            cursor += 16 + _round8(size)
        return result

    def apply_undo(self, persist: Optional["PersistOpsLike"] = None) -> int:
        """Apply all entries in reverse order, restoring pre-images.

        If *persist* is given, each restored block is flushed so recovery
        itself is failure safe (recovery must be idempotent and it is:
        re-applying undo entries is harmless).  Returns the number of
        entries undone.
        """
        entries = self.entries()
        touched_blocks = set()
        for entry_addr, target, size in reversed(entries):
            payload = self.heap.load_bytes(entry_addr + 16, size, meta="undo-read")
            self.heap.store_bytes(target, payload, meta="undo-write")
            first = target & ~(CACHE_BLOCK - 1)
            last = (target + size - 1) & ~(CACHE_BLOCK - 1)
            touched_blocks.update(range(first, last + CACHE_BLOCK, CACHE_BLOCK))
        if persist is not None:
            for block in sorted(touched_blocks):
                persist.clwb(block, meta="undo")
            persist.persist_barrier(meta="undo")
        return len(entries)


class PersistOpsLike:
    """Typing stub for the persist facade (avoids a circular import)."""

    def clwb(self, addr: int, meta: Optional[str] = None) -> None: ...

    def persist_barrier(self, meta: Optional[str] = None) -> None: ...
