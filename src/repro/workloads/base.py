"""Shared workload infrastructure: the :class:`Workbench` and base class."""

from __future__ import annotations

import abc
import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, ContextManager, Iterator, Optional, Set

from repro.isa.recorder import TraceRecorder
from repro.isa.trace import Trace
from repro.mem.alloc import Allocator
from repro.mem.heap import NVMHeap, CACHE_BLOCK
from repro.pmem.domain import PersistenceDomain
from repro.txn.manager import TxManager, TxStats
from repro.txn.modes import PersistMode
from repro.txn.persist_ops import PersistOps


@contextmanager
def fast_forward(heap: NVMHeap, recorder: Optional[TraceRecorder]) -> Iterator[None]:
    """The paper's fast-forward mode for one heap and its recorder.

    Nothing is recorded, and the heap does not call the recorder at
    all: the outermost level detaches it from the heap's observers and
    puts it back at its original index afterwards, also when the block
    raises.  The recorder's own flag still drops what reaches it
    directly (persistency instructions, compute padding).  Any other
    observer, such as a persistence domain, keeps seeing every access.
    """
    if recorder is None:
        yield
        return
    with recorder.fast_forward(), heap.unobserved(recorder):
        yield


@dataclass
class OpResult:
    """Outcome of a single workload operation."""

    key: int
    inserted: bool = False
    deleted: bool = False
    swapped: bool = False


class Workbench:
    """Bundles the heap, allocator, recorder, persistence domain and
    transaction manager a workload runs on.

    Parameters
    ----------
    mode:
        Persistence variant (Figure 8 bars).
    record:
        Attach a :class:`~repro.isa.recorder.TraceRecorder` so the run emits
        a timing trace.
    track_persistence:
        Attach a :class:`~repro.pmem.domain.PersistenceDomain` so crash
        semantics can be tested.
    """

    def __init__(
        self,
        mode: PersistMode = PersistMode.LOG_P_SF,
        heap_size: int = 1 << 26,
        record: bool = False,
        track_persistence: bool = False,
        log_capacity: int = 1 << 16,
        alu_per_load: int = 1,
        alu_per_store: int = 1,
        seed: int = 0,
        flush_with: str = "clwb",
    ):
        self.mode = mode
        self.heap = NVMHeap(heap_size)
        self.alloc = Allocator(self.heap)
        self.recorder: Optional[TraceRecorder] = None
        if record:
            self.recorder = TraceRecorder(alu_per_load, alu_per_store)
            self.heap.attach(self.recorder)
        self.domain: Optional[PersistenceDomain] = None
        if track_persistence:
            self.domain = PersistenceDomain(self.heap)
            self.heap.attach(self.domain)
        self.persist = PersistOps(mode, self.recorder, self.domain, flush_with)
        self.tx = TxManager(self.heap, self.alloc, self.persist, log_capacity)
        self.rng = random.Random(seed)

    @property
    def trace(self) -> Optional[Trace]:
        return self.recorder.trace if self.recorder else None

    def untimed(self) -> ContextManager[None]:
        """Suppress trace recording (the paper's fast-forward mode)."""
        return fast_forward(self.heap, self.recorder)

    def finish_init(self) -> None:
        """Declare initialisation complete: everything becomes durable and
        the timed trace starts empty.

        Mirrors the paper's methodology where #InitOps run in fast-forward
        and simulation starts from a clean, fully-persisted structure —
        constructor-time stores (table zeroing etc.) are dropped from the
        trace so they are not billed to the measured ops, and the
        transaction and persistency counters start from zero.
        """
        if self.domain is not None:
            self.domain.sync_base()
        if self.recorder is not None:
            self.recorder.restart()
        self.tx.stats = TxStats()
        self.persist.n_clwb = 0
        self.persist.n_clflushopt = 0
        self.persist.n_pcommit = 0
        self.persist.n_sfence = 0


class PersistentWorkload(abc.ABC):
    """Base class for the seven benchmarks.

    Subclasses implement a key-indexed *insert-or-delete* operation (except
    String Swap, which overrides :meth:`random_operation`) plus structure
    walking for invariant checks.  A Python-side reference model (a plain
    ``dict``) tracks the expected contents; crash tests compare the
    recovered NVMM structure against it.
    """

    #: Full benchmark name and the paper's two-letter abbreviation.
    name: str = ""
    abbrev: str = ""

    def __init__(self, bench: Workbench):
        self.bench = bench
        self.heap = bench.heap
        self.alloc = bench.alloc
        self.tx = bench.tx
        self.persist = bench.persist
        self.rng = bench.rng
        #: Reference model: key -> value (or workload-specific contents).
        self.model: dict = {}
        self._key_space = 1 << 20

    # ------------------------------------------------------------------
    # population / operations
    # ------------------------------------------------------------------
    def populate(self, n_ops: int) -> None:
        """Run *n_ops* operations in fast-forward to warm the structure
        up, then start the timed phase.

        Fast-forward does only the functional work.  Undo logging and
        persistency instructions are gated off as in ``BASE``: they
        decide what recovery could roll back, never the committed image,
        and :meth:`Workbench.finish_init` discards them anyway.  The
        full-logging dry runs and the unlogged-store guard stay on, so
        the write-set analysis is still checked on every operation.
        """
        with self.bench.untimed(), self.persist.suspended():
            for _ in range(n_ops):
                self.random_operation()
        self.bench.finish_init()

    def random_operation(self) -> OpResult:
        """One paper-style operation on a random key."""
        return self.operation(self.rng.randrange(self._key_space))

    @abc.abstractmethod
    def operation(self, key: int) -> OpResult:
        """Search *key*; delete it if present, insert it otherwise."""

    def run(self, n_ops: int) -> None:
        """Run *n_ops* timed operations (the paper's #SimOps)."""
        for _ in range(n_ops):
            self.random_operation()

    # ------------------------------------------------------------------
    # recovery / checking
    # ------------------------------------------------------------------
    def recover(self) -> int:
        """Post-crash recovery; returns number of undo entries applied."""
        return self.tx.recover()

    @abc.abstractmethod
    def check_invariants(self) -> Optional[str]:
        """Check structural invariants *and* contents against the model.

        Returns an error message, or ``None`` when consistent.  Always runs
        untimed.
        """

    # ------------------------------------------------------------------
    # helpers for subclasses
    # ------------------------------------------------------------------
    def _alloc_node(self) -> int:
        """Allocate one 64-byte, block-aligned node."""
        return self.alloc.alloc(CACHE_BLOCK)

    def _compute(self, n: int) -> None:
        """Emit ALU padding (key comparisons etc.) when recording."""
        if self.bench.recorder is not None:
            self.bench.recorder.compute(n)

    def _dry_run_writes(self, mutate: Callable[[], None]) -> Set[int]:
        """Dry-run *mutate* against a shadow heap; returns the cache blocks
        it would write to *existing* storage (fresh allocations excluded —
        newly allocated nodes are unreachable on crash and need no undo
        logging).  All side effects of the dry run are discarded.
        """
        from repro.mem.shadow import ShadowHeap

        shadow = ShadowHeap(self.heap)
        alloc_state = self.alloc.checkpoint()
        high_water = self.alloc.high_water_mark
        saved_heap = self.heap
        self.heap = shadow  # type: ignore[assignment]
        try:
            mutate()
        finally:
            self.heap = saved_heap
            self.alloc.restore(alloc_state)
        return {block for block in shadow.written_blocks if block < high_water}
