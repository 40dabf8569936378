"""Cache-block-aligned allocator over an :class:`~repro.mem.heap.NVMHeap`.

Allocation metadata is kept *outside* the simulated memory — the paper's
benchmarks assume allocation itself is not part of the transactional update
path ("we assume that a deleted node is not immediately garbage collected",
paper §5.2), so the allocator is deliberately simple: a bump pointer with a
per-size free list that nodes are returned to only when the workload decides
a node is safely reclaimable.
"""

from __future__ import annotations

from typing import Dict, List

from repro.mem.heap import NVMHeap, CACHE_BLOCK


class OutOfMemoryError(MemoryError):
    """Raised when the heap region is exhausted."""


def _round_up(size: int, align: int) -> int:
    return (size + align - 1) & ~(align - 1)


class Allocator:
    """Bump allocator with size-class free lists.

    All allocations are aligned to (and rounded up to a multiple of)
    :data:`~repro.mem.heap.CACHE_BLOCK`, so a 64-byte node occupies exactly
    one cache block and persists with a single ``clwb``.
    """

    def __getstate__(self):
        # restored attribute by attribute (see PersistentWorkload.fork)
        return None, self.__dict__

    def __init__(self, heap: NVMHeap, base: int = CACHE_BLOCK):
        if base % CACHE_BLOCK:
            raise ValueError("allocator base must be block aligned")
        if base <= 0:
            raise ValueError("allocator base must leave address 0 as NULL")
        self.heap = heap
        self._next = base
        self._free: Dict[int, List[int]] = {}
        self.allocated_bytes = 0
        self.freed_bytes = 0

    def alloc(self, size: int) -> int:
        """Allocate *size* bytes; returns the (block-aligned) base address."""
        if size <= 0:
            raise ValueError("allocation size must be positive")
        rounded = _round_up(size, CACHE_BLOCK)
        free_list = self._free.get(rounded)
        if free_list:
            addr = free_list.pop()
        else:
            addr = self._next
            if addr + rounded > self.heap.size:
                raise OutOfMemoryError(
                    f"heap exhausted: need {rounded} bytes at {addr:#x}, "
                    f"heap size {self.heap.size:#x}"
                )
            self._next += rounded
        self.allocated_bytes += rounded
        return addr

    def free(self, addr: int, size: int) -> None:
        """Return a region to the free list (deferred reclamation)."""
        if addr <= 0 or addr % CACHE_BLOCK:
            raise ValueError(f"bad free address {addr:#x}")
        rounded = _round_up(size, CACHE_BLOCK)
        self._free.setdefault(rounded, []).append(addr)
        self.freed_bytes += rounded

    @property
    def high_water_mark(self) -> int:
        """One past the highest address ever handed out."""
        return self._next

    def checkpoint(self) -> tuple:
        """Snapshot allocator state (used around dry runs so a re-executed
        mutation allocates the same addresses)."""
        return self._next, {size: list(lst) for size, lst in self._free.items()}

    def restore(self, state: tuple) -> None:
        """Rewind to a previous :meth:`checkpoint`."""
        self._next, free = state
        self._free = {size: list(lst) for size, lst in free.items()}
