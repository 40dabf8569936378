"""Concurrent transactions over one shared NVMM heap.

This module feeds the multi-core system model
(:mod:`repro.uarch.system`): *N* client threads issue key-indexed
transactions against persistent structures living in a single shared
heap, and the generator deterministically interleaves them into one
**per-core timing trace per client** plus a **global ordering tape**
recording the serialised transaction order (the order the functional
heap actually observed).  Runs are a pure function of
``(abbrev, mode, n_cores, contention, seed, init_ops, sim_ops)``.

Sharing model
-------------
The key space is partitioned *N+1* ways: each core owns a private
structure instance, and one extra **shared partition** is visited by
every core with probability ``contention`` per transaction.  At
``contention == 0.0`` the timed phase of any two cores touches disjoint
cache blocks (private structures, per-core undo logs, and fresh
allocations only), which is what makes the zero-contention conformance
cell — multi-core run equals N independent single-core runs
cycle-for-cycle — meaningful.  At ``contention > 0`` the shared
partition's node *and* metadata blocks collide across cores, exercising
the BLT conflict protocol.

All partitions draw from one allocator and write one heap; each core
has its own :class:`~repro.txn.manager.TxManager` (hence its own undo
log region) so multi-log crash recovery is representative.

The tape also records each transaction's read/write **block sets**
(observed at the heap), which the conflict tests and the crash fuzzer
use to pick genuinely conflicting cut points.

The serial oracle
-----------------
:func:`serial_oracle_check` replays the tape — same populate keys, same
per-transaction keys, in tape order — against fresh single-threaded
partitions on a private heap, and demands (a) every transaction takes
the same insert/delete/swap branch it took in the concurrent run and
(b) the final per-partition contents match.  Because the timing layer
replays aborted epochs with identical functional effects, equality
against this oracle is exactly linearizability of the committed
transaction order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.isa.columns import ColumnBuilder
from repro.isa.recorder import TraceRecorder
from repro.isa.trace import Trace
from repro.mem.alloc import Allocator
from repro.mem.heap import NVMHeap, CACHE_BLOCK
from repro.pmem.domain import PersistenceDomain
from repro.txn.manager import TxManager, TxStats
from repro.txn.modes import PersistMode
from repro.txn.persist_ops import PersistOps
from repro.workloads.base import PersistentWorkload, Workbench, fast_forward
from repro.workloads.registry import PAPER_SPECS

_BLOCK_MASK = ~(CACHE_BLOCK - 1)

#: Per-partition structure sizes.  Small on purpose: a concurrent run
#: instantiates ``n_cores + 1`` of these in one heap, and the directed
#: conflict tests want the shared partition hot enough that two cores
#: actually collide.
CONCURRENT_PARAMS: Dict[str, dict] = {
    "GH": dict(n_vertices=16),
    "HM": dict(initial_capacity=64),
    "LL": dict(max_nodes=64),
    "SS": dict(n_strings=8),
    "AT": dict(key_space=128),
    "BT": dict(key_space=128),
    "RT": dict(key_space=128),
}

#: Untimed populate transactions per partition (private and shared).
CONCURRENT_INIT_OPS: Dict[str, int] = {
    "GH": 40, "HM": 48, "LL": 32, "SS": 8, "AT": 48, "BT": 48, "RT": 48,
}

#: Default timed transactions *per core*.
CONCURRENT_SIM_OPS = 24

#: Per-core undo-log capacity (bytes).
CONCURRENT_LOG_CAPACITY = 1 << 15


class MuxRecorder(TraceRecorder):
    """A :class:`TraceRecorder` that demultiplexes onto per-core columns.

    The workload layer sees one ordinary recorder (the heap observer and
    :class:`~repro.txn.persist_ops.PersistOps` emission surface);
    :meth:`set_active` routes everything recorded next to the active
    core's :class:`~repro.isa.columns.ColumnBuilder`.  ``fast_forward``
    is global, so untimed phases vanish from every core's trace.
    """

    def __init__(self, n_cores: int, alu_per_load: int = 1, alu_per_store: int = 1):
        super().__init__(alu_per_load, alu_per_store)
        if n_cores < 1:
            raise ValueError("need at least one core")
        self.n_cores = n_cores
        self._builders = [ColumnBuilder() for _ in range(n_cores)]
        self._active = 0
        self._builder = self._builders[0]

    @property
    def active(self) -> int:
        return self._active

    def set_active(self, core: int) -> None:
        """Route subsequent recording to *core*'s trace."""
        self._active = core
        self._builder = self._builders[core]
        self._view = None
        self._view_len = -1

    def core_len(self, core: int) -> int:
        """Micro-ops recorded so far on *core*'s trace."""
        return len(self._builders[core])

    def core_trace(self, core: int) -> Trace:
        """Column-backed snapshot of *core*'s trace."""
        return Trace.from_columns(self._builders[core].snapshot())

    def reset_all(self) -> None:
        """Drop every core's recording (end of the populate phase)."""
        self._builders = [ColumnBuilder() for _ in range(self.n_cores)]
        self._builder = self._builders[self._active]
        self._view = None
        self._view_len = -1


class _BlockCollector:
    """Heap observer collecting one transaction's read/write block sets."""

    def __init__(self) -> None:
        self.reads: Set[int] = set()
        self.writes: Set[int] = set()

    def reset(self) -> None:
        self.reads.clear()
        self.writes.clear()

    def load(self, addr: int, size: int = 8, meta: Optional[str] = None) -> None:
        self.reads.add(addr & _BLOCK_MASK)

    def store(self, addr: int, size: int = 8, meta: Optional[str] = None) -> None:
        self.writes.add(addr & _BLOCK_MASK)


@dataclass(frozen=True)
class TapeEntry:
    """One committed transaction on the global ordering tape."""

    seq: int          #: global serialisation index
    core: int         #: issuing core
    partition: int    #: 0..n_cores-1 private, n_cores = shared
    key: int          #: workload key
    inserted: bool
    deleted: bool
    swapped: bool
    start: int        #: first micro-op index in the core's trace
    end: int          #: one past the last micro-op index
    reads: Tuple[int, ...]   #: cache blocks loaded (sorted)
    writes: Tuple[int, ...]  #: cache blocks stored (sorted)


class ConcurrentBench:
    """The shared-heap equivalent of :class:`~repro.workloads.base.Workbench`.

    One heap, one allocator, one (optional) persistence domain and one
    :class:`MuxRecorder` serve every partition; each core gets a private
    :class:`~repro.txn.manager.TxManager` whose undo log occupies its own
    heap region.  ``self.tx`` always aliases the active core's manager so
    workload code written against the single-core bench runs unchanged.
    """

    def __init__(
        self,
        mode: PersistMode,
        n_cores: int,
        heap_size: int = 1 << 23,
        track_persistence: bool = False,
        log_capacity: int = CONCURRENT_LOG_CAPACITY,
        seed: int = 0,
        alu_per_load: int = 1,
        alu_per_store: int = 1,
    ):
        if n_cores < 1:
            raise ValueError("need at least one core")
        self.mode = mode
        self.n_cores = n_cores
        self.heap = NVMHeap(heap_size)
        self.alloc = Allocator(self.heap)
        self.recorder = MuxRecorder(n_cores, alu_per_load, alu_per_store)
        self.heap.attach(self.recorder)
        self.domain: Optional[PersistenceDomain] = None
        if track_persistence:
            self.domain = PersistenceDomain(self.heap)
            self.heap.attach(self.domain)
        self.persist = PersistOps(mode, self.recorder, self.domain, "clwb")
        self.managers = [
            TxManager(self.heap, self.alloc, self.persist, log_capacity)
            for _ in range(n_cores)
        ]
        self.tx = self.managers[0]
        self.rng = random.Random(seed)

    def set_active(self, core: int) -> None:
        """Make *core* the issuing client: its trace, its undo log."""
        self.recorder.set_active(core)
        self.tx = self.managers[core]

    def untimed(self):
        return fast_forward(self.heap, self.recorder)

    def finish_init(self) -> None:
        """End the populate phase: persist everything, drop recordings,
        zero the counters."""
        if self.domain is not None:
            self.domain.sync_base()
        self.recorder.reset_all()
        for manager in self.managers:
            manager.stats = TxStats()
        self.persist.n_clwb = 0
        self.persist.n_clflushopt = 0
        self.persist.n_pcommit = 0
        self.persist.n_sfence = 0


@dataclass
class ConcurrentRun:
    """Everything a concurrent generation produced."""

    abbrev: str
    mode: PersistMode
    n_cores: int
    contention: float
    seed: int
    bench: ConcurrentBench
    #: ``n_cores`` private partitions followed by the shared one.
    partitions: List[PersistentWorkload]
    traces: List[Trace]
    tape: List[TapeEntry]
    #: Populate key sequence per partition (replayed by the oracle).
    populate_keys: List[List[int]] = field(default_factory=list)

    @property
    def shared_partition(self) -> PersistentWorkload:
        return self.partitions[self.n_cores]

    def check_invariants(self) -> Optional[str]:
        """Structural + contents checks on every partition."""
        for pid, part in enumerate(self.partitions):
            part.tx = self.bench.managers[min(pid, self.n_cores - 1)]
            error = part.check_invariants()
            if error is not None:
                return f"partition {pid}: {error}"
        return None

    def recover_all(self) -> int:
        """Run undo-log recovery on every core's log (post-crash)."""
        return sum(manager.recover() for manager in self.bench.managers)


def _partition(bench: ConcurrentBench, abbrev: str) -> PersistentWorkload:
    return PAPER_SPECS[abbrev].factory(bench, **CONCURRENT_PARAMS[abbrev])


def generate_concurrent(
    abbrev: str,
    mode: PersistMode = PersistMode.LOG_P_SF,
    n_cores: int = 2,
    contention: float = 0.0,
    seed: int = 7,
    init_ops: Optional[int] = None,
    sim_ops: Optional[int] = None,
    track_persistence: bool = False,
    heap_size: Optional[int] = None,
) -> ConcurrentRun:
    """Generate per-core traces + ordering tape for a concurrent run.

    ``sim_ops`` is the timed transaction count *per core*; transactions
    are serialised round-robin (core ``seq % n_cores`` issues global
    transaction ``seq``), with each core drawing its keys — and its
    shared-vs-private coin with P(shared) = ``contention`` — from a
    private seeded stream, so the tape is reproducible and independent
    of any wall-clock scheduling.
    """
    if not 0.0 <= contention <= 1.0:
        raise ValueError("contention must be within [0, 1]")
    if init_ops is None:
        init_ops = CONCURRENT_INIT_OPS[abbrev]
    if sim_ops is None:
        sim_ops = CONCURRENT_SIM_OPS
    if heap_size is None:
        heap_size = max(1 << 23, (n_cores + 1) << 21)

    bench = ConcurrentBench(
        mode, n_cores,
        heap_size=heap_size,
        track_persistence=track_persistence,
        seed=seed,
    )
    # ---- untimed populate (identical key streams feed the oracle) ----
    # fast-forward as in PersistentWorkload.populate: functional work
    # only, no undo logging or persistency instructions
    populate_keys: List[List[int]] = []
    with bench.untimed():
        partitions = [_partition(bench, abbrev) for _ in range(n_cores + 1)]
        with bench.persist.suspended():
            for pid, part in enumerate(partitions):
                rng = random.Random(seed * 7919 + pid)
                keys = [rng.randrange(part._key_space) for _ in range(init_ops)]
                populate_keys.append(keys)
                for op_index, key in enumerate(keys):
                    core = pid if pid < n_cores else op_index % n_cores
                    bench.set_active(core)
                    part.tx = bench.tx
                    part.operation(key)
    bench.finish_init()

    # ---- timed phase -------------------------------------------------
    collector = _BlockCollector()
    bench.heap.attach(collector)
    tape: List[TapeEntry] = []
    core_rngs = [random.Random((seed << 8) ^ (core * 0x9E37)) for core in range(n_cores)]
    try:
        for seq in range(n_cores * sim_ops):
            core = seq % n_cores
            rng = core_rngs[core]
            shared = rng.random() < contention
            pid = n_cores if shared else core
            part = partitions[pid]
            key = rng.randrange(part._key_space)
            bench.set_active(core)
            part.tx = bench.tx
            collector.reset()
            start = bench.recorder.core_len(core)
            result = part.operation(key)
            tape.append(TapeEntry(
                seq=seq, core=core, partition=pid, key=key,
                inserted=result.inserted, deleted=result.deleted,
                swapped=result.swapped,
                start=start, end=bench.recorder.core_len(core),
                reads=tuple(sorted(collector.reads)),
                writes=tuple(sorted(collector.writes)),
            ))
    finally:
        bench.heap.detach(collector)

    traces = [bench.recorder.core_trace(core) for core in range(n_cores)]
    return ConcurrentRun(
        abbrev=abbrev, mode=mode, n_cores=n_cores, contention=contention,
        seed=seed, bench=bench, partitions=partitions, traces=traces,
        tape=tape, populate_keys=populate_keys,
    )


def serial_oracle_check(run: ConcurrentRun) -> Optional[str]:
    """Replay *run*'s tape serially on fresh structures; compare contents.

    Returns an error string on the first divergence, ``None`` when the
    concurrent heap is equivalent to the serial execution of the
    committed transaction order (see the module docstring).
    """
    spec = PAPER_SPECS[run.abbrev]
    params = CONCURRENT_PARAMS[run.abbrev]
    oracle: List[PersistentWorkload] = []
    for pid in range(run.n_cores + 1):
        bench = Workbench(mode=run.mode, record=False, seed=run.seed)
        workload = spec.factory(bench, **params)
        for key in run.populate_keys[pid]:
            workload.operation(key)
        oracle.append(workload)
    for entry in run.tape:
        result = oracle[entry.partition].operation(entry.key)
        took = (result.inserted, result.deleted, result.swapped)
        expected = (entry.inserted, entry.deleted, entry.swapped)
        if took != expected:
            return (
                f"tape op {entry.seq} (partition {entry.partition}, key "
                f"{entry.key}) took branch {took}, concurrent run took {expected}"
            )
    for pid, workload in enumerate(oracle):
        error = workload.check_invariants()
        if error is not None:
            return f"serial oracle partition {pid} inconsistent: {error}"
        if workload.model != run.partitions[pid].model:
            return f"partition {pid} contents differ from the serial oracle"
    return None
