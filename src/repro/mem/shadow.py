"""Shadow heap: copy-on-write overlay used for dry-running mutations.

Full logging (paper §3.2) must know, *before* mutating, every node an
operation may touch.  For the self-balancing trees the statically
predictable set (the search path) does not cover every rotation pattern, so
the workloads determine the exact write set by **dry-running** the mutation
against a :class:`ShadowHeap`: reads see real memory, writes land in
private copies of the blocks they touch and are discarded with the
shadow, and the set of written cache blocks is what the transaction then
undo-logs (unioned with the static search path, keeping the log
conservative the way the paper describes).

The shadow heap implements the same typed-accessor interface as
:class:`~repro.mem.heap.NVMHeap` but notifies no observers — a dry run is
invisible to both the trace recorder and the persistence domain, exactly
like the address-set computation a real programmer would hoist out of the
transaction.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.mem.heap import CACHE_BLOCK, U64, NVMHeap, outside_heap

_OFFSET = CACHE_BLOCK - 1
_MASK64 = 0xFFFFFFFFFFFFFFFF


class ShadowHeap:
    """Read-through, copy-on-write view of an :class:`NVMHeap`.

    The first write to a cache block copies that block out of real
    memory; every later access to the block uses the private copy, so
    mixed word/byte writes compose.  Blocks never written are read
    straight from real memory.  Bounds are the real heap's: an access
    the heap would reject raises :class:`IndexError` here too (writes
    into block 0 above the NULL address are fine, as on the heap).
    """

    def __init__(self, heap: NVMHeap):
        self.size = heap.size
        # the heap's bytes, read here without notifying its observers
        self._memory = heap._data
        #: private copies of the blocks written so far, by block base
        self._blocks: Dict[int, bytearray] = {}

    @property
    def written_blocks(self) -> Set[int]:
        """Cache blocks written during the dry run."""
        return set(self._blocks)

    # ------------------------------------------------------------------
    def _check(self, addr: int, size: int) -> None:
        if addr <= 0 or addr + size > self.size:
            raise outside_heap(addr, size)

    def _block(self, base: int) -> bytearray:
        """The private copy of the block at *base*, made on first use."""
        block = self._blocks.get(base)
        if block is None:
            block = bytearray(self._memory[base : base + CACHE_BLOCK])
            self._blocks[base] = block
        return block

    def load_bytes(self, addr: int, size: int, meta: Optional[str] = None) -> bytes:
        self._check(addr, size)
        blocks, memory = self._blocks, self._memory
        pieces = []
        cursor, end = addr, addr + size
        while cursor < end:
            base = cursor & ~_OFFSET
            stop = min(end, base + CACHE_BLOCK)
            block = blocks.get(base)
            if block is None:
                pieces.append(memory[cursor:stop])
            else:
                pieces.append(block[cursor - base : stop - base])
            cursor = stop
        return b"".join(pieces)

    def store_bytes(self, addr: int, payload: bytes, meta: Optional[str] = None) -> None:
        self._check(addr, len(payload))
        cursor, end = addr, addr + len(payload)
        while cursor < end:
            base = cursor & ~_OFFSET
            stop = min(end, base + CACHE_BLOCK)
            self._block(base)[cursor - base : stop - base] = payload[cursor - addr : stop - addr]
            cursor = stop

    # ------------------------------------------------------------------
    # typed accessors: one block, one struct call (straddling words take
    # the byte path)
    # ------------------------------------------------------------------
    def load_u64(self, addr: int, meta: Optional[str] = None) -> int:
        offset = addr & _OFFSET
        if offset > CACHE_BLOCK - 8:
            return U64.unpack(self.load_bytes(addr, 8))[0]
        if addr <= 0 or addr + 8 > self.size:
            raise outside_heap(addr, 8)
        block = self._blocks.get(addr - offset)
        if block is None:
            return U64.unpack_from(self._memory, addr)[0]
        return U64.unpack_from(block, offset)[0]

    def store_u64(self, addr: int, value: int, meta: Optional[str] = None) -> None:
        offset = addr & _OFFSET
        if offset > CACHE_BLOCK - 8:
            self.store_bytes(addr, U64.pack(value & _MASK64))
            return
        if addr <= 0 or addr + 8 > self.size:
            raise outside_heap(addr, 8)
        U64.pack_into(self._block(addr - offset), offset, value & _MASK64)

    def load_i64(self, addr: int, meta: Optional[str] = None) -> int:
        value = self.load_u64(addr, meta)
        return value - (1 << 64) if value >= (1 << 63) else value

    def store_i64(self, addr: int, value: int, meta: Optional[str] = None) -> None:
        self.store_u64(addr, value & _MASK64, meta)

    def raw_read(self, addr: int, size: int) -> bytes:
        return self.load_bytes(addr, size)
