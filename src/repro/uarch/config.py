"""Machine configuration — paper Tables 2 and 3.

All latencies are in core cycles at the paper's 2.1 GHz clock; the NVMM
latencies (50 ns read / 150 ns write) convert to 105 / 315 cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Table 3 lives beside the SSB it describes; re-exported here with the
# rest of the machine's parameters
from repro.core.ssb import SSB_LATENCY_TABLE, ssb_latency


@dataclass(frozen=True)
class CacheConfig:
    """One cache level."""

    size_bytes: int
    ways: int
    latency: int
    block_size: int = 64

    @property
    def n_sets(self) -> int:
        sets = self.size_bytes // (self.ways * self.block_size)
        if sets <= 0 or sets & (sets - 1):
            raise ValueError(f"cache produces non-power-of-two set count {sets}")
        return sets


@dataclass(frozen=True)
class PipelineConfig:
    """Execution-engine knobs: *how* the simulator runs, not *what* it
    models.

    Deliberately separate from :class:`MachineConfig` — both backends
    are cycle-for-cycle identical by contract, so the backend choice
    must never enter config hashing, result caching, or trace keys.

    ``kernel`` is ``auto`` (numpy when importable, else Python),
    ``python`` (force the segment walker), or ``numpy`` (force the
    vectorized kernel; warns once and degrades to Python if numpy is
    missing or too old).  Either way the kernel only takes batches of at
    least :data:`repro.uarch.kernel.KERNEL_MIN_BATCH` instructions.
    """

    kernel: str = "auto"


@dataclass(frozen=True)
class MachineConfig:
    """The baseline system of paper Table 2 plus SP knobs.

    ``clock_ghz`` is informational; all latencies below are in cycles.
    """

    # core
    clock_ghz: float = 2.1
    width: int = 4                 # fetch/issue/retire width
    rob_entries: int = 128
    fetchq_entries: int = 48
    issueq_entries: int = 48
    lsq_entries: int = 48
    fetch_to_dispatch: int = 3     # front-end depth in cycles

    # caches (L1D / L2 / L3)
    l1: CacheConfig = field(default_factory=lambda: CacheConfig(32 * 1024, 8, 2))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(256 * 1024, 8, 11))
    l3: CacheConfig = field(default_factory=lambda: CacheConfig(2 * 1024 * 1024, 16, 20))

    # NVMM (50 ns read / 150 ns write at 2.1 GHz)
    nvmm_read_cycles: int = 105
    nvmm_write_cycles: int = 315
    nvmm_banks: int = 16           # WPQ drain parallelism (MCs x banks)
    wpq_entries: int = 64
    mc_roundtrip: int = 20         # core <-> memory-controller ack latency

    # speculative persistence
    sp_enabled: bool = False
    ssb_entries: int = 256
    checkpoint_entries: int = 4
    bloom_bytes: int = 512
    bloom_hashes: int = 2
    checkpoint_cycles: int = 1     # cycles to snapshot the register state
    drain_per_cycle: int = 4       # SSB entries replayed per cycle at commit
    #: paper §4.2.2 optimisation: one checkpoint per sfence-pcommit-sfence.
    #: Disabling it models the naive design where each fence of the
    #: sequence takes its own checkpoint (the ablation the paper argues
    #: against: "it would be wasteful to devote an entire checkpoint to a
    #: single pcommit instruction").
    coalesce_barrier_checkpoints: bool = True
    #: Bloom filter in front of the SSB.  Disabling it makes every
    #: speculative load pay the SSB CAM latency (ablation).
    bloom_enabled: bool = True
    #: Pipeline-refill penalty after a rollback to the oldest checkpoint.
    #: The paper notes rollback cost is nearly irrelevant (speculation
    #: fails only on coherence conflicts / real system failures).
    rollback_penalty: int = 20

    def __post_init__(self) -> None:
        # the pipeline's windows are born full and their youngest `width`
        # entries are the dispatch/retire bandwidth groups, so each must
        # hold at least `width` entries (and a memory op needs an LSQ slot)
        if self.width < 1:
            raise ValueError(f"width must be at least 1, got {self.width}")
        for name in ("fetchq_entries", "rob_entries"):
            if getattr(self, name) < self.width:
                raise ValueError(
                    f"{name} must be at least width ({self.width}), "
                    f"got {getattr(self, name)}"
                )
        if self.lsq_entries < 1:
            raise ValueError(f"lsq_entries must be at least 1, got {self.lsq_entries}")

    @property
    def ssb_latency(self) -> int:
        return ssb_latency(self.ssb_entries)

    def with_sp(self, ssb_entries: int = 256, **overrides) -> "MachineConfig":
        """A copy of this config with speculation enabled."""
        from dataclasses import replace

        return replace(self, sp_enabled=True, ssb_entries=ssb_entries, **overrides)

    def ns_to_cycles(self, ns: float) -> int:
        return int(round(ns * self.clock_ghz))
