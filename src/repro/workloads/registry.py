"""Benchmark registry: Table 1 of the paper, plus scaled defaults.

The paper's #InitOps populate each structure in fast-forward mode and
#SimOps are simulated in detail.  A pure-Python timing model cannot run
millions of operations, so each spec also carries *scaled* counts that keep
every structure in the same qualitative regime (trees deep enough that full
logging dominates, the linked list capped at 1024 nodes, etc.).  Benches use
the scaled counts; the paper counts are reported alongside in Table 1 output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict

from repro.txn.modes import PersistMode

if TYPE_CHECKING:
    from repro.workloads.base import PersistentWorkload, Workbench


@dataclass(frozen=True)
class BenchmarkSpec:
    """One row of the paper's Table 1, with scaled counterparts."""

    abbrev: str
    name: str
    description: str
    paper_init_ops: int
    paper_sim_ops: int
    scaled_init_ops: int
    scaled_sim_ops: int
    #: The workload's constructor arguments besides its bench.
    params: dict = field(default_factory=dict)
    #: Simulated heap for a paper-scale run.  The default 64 MiB heap
    #: fits every scaled workload, but the allocator never eagerly
    #: reclaims deleted nodes (paper §5.2), so paper op counts need a
    #: heap sized for one block per mutating op.  Must stay fixed per
    #: workload: heap size changes allocation addresses and therefore
    #: the generated trace.
    paper_heap_bytes: int = 1 << 26

    def factory(self, bench: Workbench, **kwargs) -> PersistentWorkload:
        """A new workload on *bench*; *kwargs* override :attr:`params`."""
        return workload_classes()[self.abbrev](bench, **{**self.params, **kwargs})

    def build(self, bench: Workbench) -> PersistentWorkload:
        return self.factory(bench)


def workload_classes() -> Dict[str, type]:
    """The seven workload classes by abbreviation.

    Their modules load at the first call, that is at the first trace a
    process generates: a run that finds every trace and result in the
    store never imports them."""
    from repro.workloads.avltree import AVLTreeWorkload
    from repro.workloads.btree import BTreeWorkload
    from repro.workloads.graph import GraphWorkload
    from repro.workloads.hashmap import HashMapWorkload
    from repro.workloads.linkedlist import LinkedListWorkload
    from repro.workloads.rbtree import RBTreeWorkload
    from repro.workloads.stringswap import StringSwapWorkload

    return {
        "GH": GraphWorkload,
        "HM": HashMapWorkload,
        "LL": LinkedListWorkload,
        "SS": StringSwapWorkload,
        "AT": AVLTreeWorkload,
        "BT": BTreeWorkload,
        "RT": RBTreeWorkload,
    }


#: Table 1 of the paper (paper_* columns) with scaled simulation defaults.
PAPER_SPECS: Dict[str, BenchmarkSpec] = {
    "GH": BenchmarkSpec(
        "GH", "Graph", "Insert or delete edges in a graph",
        paper_init_ops=2_600_000, paper_sim_ops=100_000,
        scaled_init_ops=1600, scaled_sim_ops=60,
        params={"n_vertices": 64},
        paper_heap_bytes=1 << 29,
    ),
    "HM": BenchmarkSpec(
        "HM", "Hash-Map", "Insert or delete entries in a hash map",
        paper_init_ops=1_500_000, paper_sim_ops=100_000,
        scaled_init_ops=12000, scaled_sim_ops=60,
        params={"initial_capacity": 16384},
        paper_heap_bytes=1 << 28,
    ),
    "LL": BenchmarkSpec(
        "LL", "Linked-List", "Insert or delete nodes in a linked list (Max:1024)",
        paper_init_ops=500, paper_sim_ops=50_000,
        scaled_init_ops=500, scaled_sim_ops=40,
        params={"max_nodes": 1024},
    ),
    "SS": BenchmarkSpec(
        "SS", "String Swap", "Swap strings in a string array",
        paper_init_ops=120_000, paper_sim_ops=500_000,
        scaled_init_ops=0, scaled_sim_ops=80,
        params={"n_strings": 8192},
        paper_heap_bytes=1 << 27,
    ),
    "AT": BenchmarkSpec(
        "AT", "AVL-tree", "Insert or delete nodes in an AVL tree",
        paper_init_ops=1_000_000, paper_sim_ops=50_000,
        scaled_init_ops=1000, scaled_sim_ops=30,
        params={"key_space": 16384},
        paper_heap_bytes=1 << 28,
    ),
    "BT": BenchmarkSpec(
        "BT", "B-tree", "Insert or delete nodes in a B tree",
        paper_init_ops=1_000_000, paper_sim_ops=50_000,
        scaled_init_ops=1000, scaled_sim_ops=30,
        params={"key_space": 16384},
        paper_heap_bytes=1 << 28,
    ),
    "RT": BenchmarkSpec(
        "RT", "RB-tree", "Insert or delete nodes in an RB tree",
        paper_init_ops=1_500_000, paper_sim_ops=50_000,
        scaled_init_ops=1500, scaled_sim_ops=30,
        params={"key_space": 16384},
        paper_heap_bytes=1 << 28,
    ),
}

#: Paper ordering of the benchmarks (matches the figures' x axes).
WORKLOADS = ("GH", "HM", "LL", "SS", "AT", "BT", "RT")


def build_workload(
    abbrev: str,
    mode: PersistMode = PersistMode.LOG_P_SF,
    record: bool = False,
    track_persistence: bool = False,
    seed: int = 0,
    heap_size: int = 1 << 26,
    log_capacity: int = 1 << 16,
) -> PersistentWorkload:
    """Construct a workload on a fresh :class:`~repro.workloads.base.Workbench`."""
    from repro.workloads.base import Workbench

    spec = PAPER_SPECS[abbrev]
    bench = Workbench(
        mode=mode,
        heap_size=heap_size,
        record=record,
        track_persistence=track_persistence,
        log_capacity=log_capacity,
        seed=seed,
    )
    return spec.build(bench)
