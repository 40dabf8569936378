"""Bloom filter summarising SSB contents (paper §4.2.2 and Figure 14).

A load in a speculative epoch must check the SSB for store-to-load
forwarding, but the SSB CAM is slower than the L1D (Table 3).  The bloom
filter answers "definitely not in the SSB" quickly: it is set as stores are
inserted and only reset *when speculation fully exits*.  Because entries are
never cleared when individual stores drain at epoch commit, false positives
arise from departed stores — exactly the paper's Figure 14 observation that
false positives "occur when stores have completed and left the SSB while
the bloom filter has not been reset yet", independent of filter size.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


class BloomFilter:
    """Fixed-size, set-only bloom filter over cache-block addresses."""

    def __init__(self, size_bytes: int = 512, n_hashes: int = 2):
        if size_bytes <= 0 or n_hashes <= 0:
            raise ValueError("bloom filter needs positive size and hash count")
        self.n_bits = size_bytes * 8
        self.n_hashes = n_hashes
        self._bits = bytearray(size_bytes)
        #: block -> its ``((byte, mask), ...)`` bits, from :meth:`_positions`.
        #: Most speculative loads and stores repeat a block the filter has
        #: seen since its last reset; :meth:`reset` empties the memo, so it
        #: never outgrows one speculation window.
        self._masks: Dict[int, Tuple[Tuple[int, int], ...]] = {}
        # statistics
        self.inserts = 0
        self.queries = 0
        self.hits = 0
        self.false_positives = 0
        self.resets = 0

    # ------------------------------------------------------------------
    def _positions(self, block: int) -> List[int]:
        # Two independent mixes of the block address; k hashes derived by
        # double hashing (h1 + i*h2, which h steps through), the standard
        # construction.  (Plain loops here and in _memoise: a comprehension
        # is a function call on Python 3.11, dearer than the few
        # iterations it runs.)
        h = (block * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        h2 = ((block ^ (block >> 13)) * 0xC2B2AE3D27D4EB4F) & 0xFFFFFFFFFFFFFFFF
        h2 |= 1
        n_bits = self.n_bits
        positions = []
        for _ in range(self.n_hashes):
            positions.append((h >> 8) % n_bits)
            h += h2
        return positions

    def _memoise(self, block: int) -> Tuple[Tuple[int, int], ...]:
        """Compute and remember *block*'s ``(byte, mask)`` pairs."""
        pairs = []
        for pos in self._positions(block):
            pairs.append((pos >> 3, 1 << (pos & 7)))
        masks = self._masks[block] = tuple(pairs)
        return masks

    def insert(self, block: int) -> None:
        self.inserts += 1
        masks = self._masks.get(block)
        if masks is None:
            masks = self._memoise(block)
        bits = self._bits
        for byte, mask in masks:
            bits[byte] |= mask

    def maybe_contains(self, block: int) -> bool:
        """Probe the filter (no false negatives, possible false positives)."""
        self.queries += 1
        masks = self._masks.get(block)
        if masks is None:
            masks = self._memoise(block)
        bits = self._bits
        for byte, mask in masks:
            if not bits[byte] & mask:
                return False
        self.hits += 1
        return True

    def record_false_positive(self) -> None:
        """Caller verified a hit against the real SSB and found nothing."""
        self.false_positives += 1

    def reset(self) -> None:
        """Full reset at speculation exit (paper: periodic resets keep the
        false-positive rate low)."""
        self._bits[:] = bytes(len(self._bits))
        self._masks.clear()
        self.resets += 1

    # ------------------------------------------------------------------
    @property
    def false_positive_rate(self) -> float:
        """False positives per query (Figure 14 metric)."""
        return self.false_positives / self.queries if self.queries else 0.0

    @property
    def occupancy(self) -> float:
        """Fraction of bits set (diagnostic)."""
        set_bits = sum(bin(b).count("1") for b in self._bits)
        return set_bits / self.n_bits
