"""Block Lookup Table (BLT) — paper §4.2.2, after SC++'s design.

The BLT records every cache-block address accessed by speculative loads and
stores.  External coherence requests (from other cores) are checked against
it; a match means speculative state would either leak or go stale, so the
processor aborts and rolls back to the *oldest* uncommitted checkpoint.
The table deliberately does not distinguish which epoch touched an address
("to keep the design simple"), matching the paper.
"""

from __future__ import annotations

from typing import Set


class BlockLookupTable:
    """Addresses touched speculatively, for coherence conflict detection."""

    def __init__(self) -> None:
        self._blocks: Set[int] = set()
        # statistics
        self.records = 0
        self.probes = 0
        self.conflicts = 0

    def __len__(self) -> int:
        return len(self._blocks)

    def record(self, block: int) -> None:
        """Note a speculative load or store to *block*."""
        self._blocks.add(block)
        self.records += 1

    def probe(self, block: int) -> bool:
        """Check an external coherence request; True means conflict
        (the caller must trigger an abort/rollback)."""
        self.probes += 1
        if block in self._blocks:
            self.conflicts += 1
            return True
        return False

    def holds_any(self, blocks) -> bool:
        """Whether any of *blocks* is recorded (counts no probe)."""
        return not self._blocks.isdisjoint(blocks)

    def clear(self) -> None:
        """Reset at speculation exit or after a rollback."""
        self._blocks.clear()
