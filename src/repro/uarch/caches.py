"""Three-level set-associative write-back cache hierarchy (timing only).

The hierarchy tracks tags and dirty bits, not data — the functional values
live in :class:`~repro.mem.heap.NVMHeap`.  It answers two questions for the
pipeline model:

* how long does a load/store take (hit level / miss to NVMM), and
* what does a ``clwb``/``clflushopt`` have to write back.

Dirty blocks evicted from the last level are handed to the memory
controller's write-pending queue, which is how data can become durable
without any persistency instruction — the hazard that makes WAL necessary.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.uarch.config import CacheConfig, MachineConfig


class CacheLevel:
    """One set-associative write-back cache level with LRU replacement.

    Each set is an ordered dict from tag to dirty flag; Python dicts preserve
    insertion order, so the first key is the LRU way.
    """

    def __init__(self, config: CacheConfig, name: str):
        self.config = config
        self.name = name
        self.n_sets = config.n_sets
        self.ways = config.ways
        self.block_bits = config.block_size.bit_length() - 1
        self._sets: List[Dict[int, bool]] = [dict() for _ in range(self.n_sets)]
        #: membership generation — bumped whenever a tag is inserted or
        #: removed (never on an LRU refresh), so observers such as the
        #: vectorized kernel can cache a snapshot of the resident tags and
        #: invalidate it cheaply.  Hit paths never touch it.
        self.stamp = 0
        # statistics
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def _locate(self, block: int) -> Tuple[Dict[int, bool], int]:
        index = (block >> self.block_bits) & (self.n_sets - 1)
        tag = block >> self.block_bits
        return self._sets[index], tag

    def lookup(self, block: int, make_dirty: bool = False) -> bool:
        """Probe for *block*; on hit, refresh LRU and optionally set dirty."""
        ways, tag = self._locate(block)
        if tag not in ways:
            self.misses += 1
            return False
        dirty = ways.pop(tag)
        ways[tag] = dirty or make_dirty
        self.hits += 1
        return True

    def fill(self, block: int, dirty: bool = False) -> Optional[Tuple[int, bool]]:
        """Insert *block*; returns ``(victim_block, victim_dirty)`` if a
        block had to be evicted, else ``None``."""
        ways, tag = self._locate(block)
        if tag in ways:
            ways[tag] = ways.pop(tag) or dirty
            return None
        victim = None
        if len(ways) >= self.ways:
            victim_tag = next(iter(ways))
            victim_dirty = ways.pop(victim_tag)
            victim = (victim_tag << self.block_bits, victim_dirty)
            if victim_dirty:
                self.writebacks += 1
        ways[tag] = dirty
        self.stamp += 1
        return victim

    def evict(self, block: int) -> Optional[bool]:
        """Remove *block* if present; returns its dirty bit, else ``None``."""
        ways, tag = self._locate(block)
        if tag in ways:
            self.stamp += 1
            return ways.pop(tag)
        return None

    def is_dirty(self, block: int) -> bool:
        ways, tag = self._locate(block)
        return ways.get(tag, False)

    def clean(self, block: int) -> bool:
        """Clear the dirty bit; returns True if the block was dirty."""
        ways, tag = self._locate(block)
        if ways.get(tag, False):
            ways[tag] = False
            return True
        return False

    def __contains__(self, block: int) -> bool:
        ways, tag = self._locate(block)
        return tag in ways


class CacheHierarchy:
    """L1D + L2 + L3 with NVMM behind (via the memory controller)."""

    def __init__(self, config: MachineConfig, memctrl: "MemoryControllerLike"):
        self.config = config
        self.memctrl = memctrl
        self.l1 = CacheLevel(config.l1, "L1D")
        self.l2 = CacheLevel(config.l2, "L2")
        self.l3 = CacheLevel(config.l3, "L3")
        self.levels = (self.l1, self.l2, self.l3)
        # statistics
        self.accesses = 0
        self.nvmm_reads = 0

    # ------------------------------------------------------------------
    def access(self, block: int, is_write: bool, now: int) -> int:
        """Perform a load/store access; returns the access latency.

        Misses fill all levels (inclusive-ish allocation); dirty victims
        falling out of the L3 enter the memory controller's WPQ at the time
        the miss completes.
        """
        self.accesses += 1
        cfg = self.config
        if self.l1.lookup(block, make_dirty=is_write):
            return cfg.l1.latency
        latency = cfg.l1.latency
        if self.l2.lookup(block):
            latency += cfg.l2.latency
        elif self.l3.lookup(block):
            latency += cfg.l2.latency + cfg.l3.latency
            self._fill(self.l2, block, now)
        else:
            latency += cfg.l2.latency + cfg.l3.latency + cfg.nvmm_read_cycles
            self.nvmm_reads += 1
            self._fill(self.l3, block, now)
            self._fill(self.l2, block, now)
        self._fill(self.l1, block, now, dirty=is_write)
        return latency

    def _fill(self, level: CacheLevel, block: int, now: int, dirty: bool = False) -> None:
        victim = level.fill(block, dirty)
        if victim is None:
            return
        victim_block, victim_dirty = victim
        if level is self.l1:
            # write back into L2 (then potentially onward on L2 eviction)
            if victim_dirty:
                self._fill(self.l2, victim_block, now, dirty=True)
        elif level is self.l2:
            if victim_dirty:
                self._fill(self.l3, victim_block, now, dirty=True)
        else:  # L3 victim: dirty data leaves the cache domain
            if victim_dirty:
                self.memctrl.enqueue_writeback(victim_block, now)

    # ------------------------------------------------------------------
    def flush(self, block: int, invalidate: bool, now: int) -> Tuple[int, bool]:
        """Model clwb (``invalidate=False``) / clflushopt (``True``).

        Returns ``(lookup_latency, wrote_back)``.  When the block is dirty
        in any level, the newest copy is written to the memory controller's
        WPQ at ``now + lookup_latency``.
        """
        cfg = self.config
        lookup_latency = cfg.l1.latency + cfg.l2.latency + cfg.l3.latency
        dirty = False
        for level in self.levels:
            if invalidate:
                was = level.evict(block)
                dirty = dirty or bool(was)
            else:
                dirty = level.clean(block) or dirty
        if dirty:
            self.memctrl.enqueue_writeback(block, now + lookup_latency)
        return lookup_latency, dirty

    # ------------------------------------------------------------------
    def is_dirty_anywhere(self, block: int) -> bool:
        return any(level.is_dirty(block) for level in self.levels)


class MemoryControllerLike:
    """Typing stub for the memory controller dependency."""

    def enqueue_writeback(self, block: int, now: int) -> int: ...
