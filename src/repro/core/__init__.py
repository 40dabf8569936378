"""Speculative Persistence (SP) — the paper's contribution (Section 4).

When an ``sfence`` would stall the pipeline waiting for a ``pcommit``
acknowledgement, SP checkpoints the architectural state, retires the fence
speculatively, and keeps executing.  The hardware added to the baseline core
(paper Figure 6):

* :class:`~repro.core.checkpoints.CheckpointBuffer` — 4 register-state
  checkpoints, one per speculative epoch.
* :class:`~repro.core.ssb.SpeculativeStoreBuffer` — FIFO of speculatively
  retired stores *and delayed PMEM instructions*, with a size-dependent CAM
  access latency (Table 3).
* :class:`~repro.core.bloom.BloomFilter` — 512-byte filter in front of the
  SSB so loads usually skip the slow CAM lookup.
* :class:`~repro.core.blt.BlockLookupTable` — addresses touched
  speculatively, checked against external coherence traffic; a hit aborts
  speculation and rolls back to the oldest checkpoint.
* :class:`~repro.core.epochs.EpochManager` — multiple speculative epochs
  committing strictly in order, each gated on its persist barrier.
"""
