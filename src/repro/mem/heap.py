"""Flat byte-addressable memory with typed accessors.

The heap is the *functional* state of the simulated NVMM: an array of bytes
that workloads read and write through typed helpers.  Every access is
reported to an optional observer (the :class:`~repro.isa.recorder.TraceRecorder`
for timing traces and/or the :class:`~repro.pmem.domain.PersistenceDomain`
for crash semantics).

Addresses are plain Python ints.  Address 0 is reserved as the NULL pointer
and never handed out by the allocator.

The bytes live in an anonymous private mapping rather than a
``bytearray``: the kernel hands out zero pages lazily, so a 64 MiB heap
costs nothing up front and only the pages a workload touches become
resident.  The mapping is ``MAP_PRIVATE`` so a forked process (a pool
worker) gets a copy-on-write view instead of sharing a live heap.
"""

from __future__ import annotations

import mmap
import struct
from contextlib import contextmanager
from typing import Iterator, List, Optional, Protocol

#: Cache-block size used throughout the reproduction (paper Table 2).
CACHE_BLOCK = 64

#: Little-endian unsigned machine word, the unit of every typed access.
U64 = struct.Struct("<Q")
_MASK64 = 0xFFFFFFFFFFFFFFFF


class MemoryObserver(Protocol):
    """Anything that wants to see loads/stores as they happen."""

    def load(self, addr: int, size: int = 8, meta: Optional[str] = None) -> None: ...

    def store(self, addr: int, size: int = 8, meta: Optional[str] = None) -> None: ...


class NVMHeap:
    """A fixed-size byte-addressable memory region.

    Parameters
    ----------
    size:
        Region size in bytes.  Must be a multiple of :data:`CACHE_BLOCK`.
    """

    def __init__(self, size: int = 1 << 24):
        if size <= 0 or size % CACHE_BLOCK:
            raise ValueError("heap size must be a positive multiple of the block size")
        self.size = size
        self._data = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
        self._observers: List[MemoryObserver] = []

    # ------------------------------------------------------------------
    # observers
    # ------------------------------------------------------------------
    def attach(self, observer: MemoryObserver) -> None:
        """Register an observer to be notified of every load/store."""
        self._observers.append(observer)

    def detach(self, observer: MemoryObserver) -> None:
        self._observers.remove(observer)

    @contextmanager
    def unobserved(self, observer: MemoryObserver) -> Iterator[None]:
        """Detach *observer* for the block, then put it back at its
        original index (also when the block raises).

        Re-entrant: if *observer* is not attached — an enclosing block
        already detached it — nothing changes.
        """
        observers = self._observers
        index = next((i for i, obs in enumerate(observers) if obs is observer), None)
        if index is None:
            yield
            return
        del observers[index]
        try:
            yield
        finally:
            observers.insert(index, observer)

    # ------------------------------------------------------------------
    # raw access (no observation) — used by persistence-domain snapshots
    # ------------------------------------------------------------------
    def raw_read(self, addr: int, size: int) -> bytes:
        self._check(addr, size)
        return self._data[addr : addr + size]

    def raw_write(self, addr: int, payload: bytes) -> None:
        self._check(addr, len(payload))
        self._data[addr : addr + len(payload)] = payload

    # ------------------------------------------------------------------
    # typed accessors (observed)
    # ------------------------------------------------------------------
    def load_u64(self, addr: int, meta: Optional[str] = None) -> int:
        if addr <= 0 or addr + 8 > self.size:  # _check, inlined: hot path
            raise outside_heap(addr, 8)
        for obs in self._observers:
            obs.load(addr, 8, meta)
        return U64.unpack_from(self._data, addr)[0]

    def store_u64(self, addr: int, value: int, meta: Optional[str] = None) -> None:
        # Data is written *before* observers run: an observer reacting to
        # the store (e.g. a crash tester forcing an eviction) must see the
        # post-store cache contents, like real write-back hardware would.
        if addr <= 0 or addr + 8 > self.size:
            raise outside_heap(addr, 8)
        U64.pack_into(self._data, addr, value & _MASK64)
        for obs in self._observers:
            obs.store(addr, 8, meta)

    def load_i64(self, addr: int, meta: Optional[str] = None) -> int:
        value = self.load_u64(addr, meta)
        return value - (1 << 64) if value >= (1 << 63) else value

    def store_i64(self, addr: int, value: int, meta: Optional[str] = None) -> None:
        self.store_u64(addr, value & _MASK64, meta)

    def load_bytes(self, addr: int, size: int, meta: Optional[str] = None) -> bytes:
        """Load *size* bytes, observed one machine word per 8 bytes."""
        self._check(addr, size)
        observers = self._observers
        if observers:
            for offset in range(0, size, 8):
                chunk = min(8, size - offset)
                for obs in observers:
                    obs.load(addr + offset, chunk, meta)
        return self._data[addr : addr + size]

    def store_bytes(self, addr: int, payload: bytes, meta: Optional[str] = None) -> None:
        """Store bytes, observed one machine word per 8 bytes.

        As with :meth:`store_u64`, the data lands before observers run.
        """
        size = len(payload)
        self._check(addr, size)
        self._data[addr : addr + size] = payload
        observers = self._observers
        if observers:
            for offset in range(0, size, 8):
                chunk = min(8, size - offset)
                for obs in observers:
                    obs.store(addr + offset, chunk, meta)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def block_of(self, addr: int) -> int:
        """Cache-block base address containing *addr*."""
        return addr & ~(CACHE_BLOCK - 1)

    def snapshot(self) -> bytes:
        """Full functional image (used by crash testing as ground truth)."""
        return self._data[:]

    def restore(self, image: bytes) -> None:
        """Overwrite the full functional image (crash rollback)."""
        if len(image) != self.size:
            raise ValueError("snapshot size mismatch")
        self._data[:] = image

    def _check(self, addr: int, size: int) -> None:
        if addr <= 0 or addr + size > self.size:
            raise outside_heap(addr, size)


def outside_heap(addr: int, size: int) -> IndexError:
    """The error for an access to ``[addr, addr + size)`` that is not
    inside a heap (address 0 is the NULL pointer)."""
    return IndexError(f"access [{addr:#x}, {addr + size:#x}) outside heap")
