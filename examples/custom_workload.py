#!/usr/bin/env python
"""Building your own failure-safe structure on the library's public API.

This example implements a persistent FIFO queue from scratch — a structure
the paper does not include — using the same primitives the built-in
benchmarks use: the NVMM heap, the block allocator, and the four-step WAL
transaction manager.  It then (a) crash-tests it with the persistence
domain and (b) measures its persist-barrier overhead and the SP win on the
timing model, showing that the paper's result generalises beyond the seven
benchmarks.

Run:  python examples/custom_workload.py
"""

from typing import List, Optional

from repro.mem.heap import CACHE_BLOCK
from repro.pmem import CrashTester
from repro.txn.modes import PersistMode
from repro.uarch.config import MachineConfig
from repro.uarch.pipeline import simulate
from repro.workloads.base import OpResult, PersistentWorkload, Workbench

_VAL = 0
_NEXT = 8


class PersistentQueue(PersistentWorkload):
    """A singly-linked FIFO queue with head/tail in a metadata block.

    Enqueue links a fresh node after the tail (logging just the old tail
    and the metadata block); dequeue unlinks the head (logging the
    metadata block).  Alternating operations give the same
    4-pcommit-per-op pattern as the paper's workloads.
    """

    name = "Persistent-Queue"
    abbrev = "PQ"

    def __init__(self, bench: Workbench):
        super().__init__(bench)
        self.meta = self._alloc_node()
        self.heap.store_u64(self.meta + 0, 0)   # head
        self.heap.store_u64(self.meta + 8, 0)   # tail
        self.heap.store_u64(self.meta + 16, 0)  # length
        self.model: List[int] = []

    # -- operations ----------------------------------------------------
    def enqueue(self, value: int) -> None:
        heap, tx = self.heap, self.tx
        self._compute(120)  # producing the payload (serialisation etc.)
        node = self._alloc_node()
        heap.store_u64(node + _VAL, value)
        heap.store_u64(node + _NEXT, 0)
        tail = heap.load_u64(self.meta + 8)
        tx.begin()
        if tail:
            tx.log_block(tail)
        tx.log_block(self.meta)
        tx.seal()
        if tail:
            heap.store_u64(tail + _NEXT, node)
            tx.flush(tail)
        else:
            heap.store_u64(self.meta + 0, node)
        heap.store_u64(self.meta + 8, node)
        heap.store_u64(self.meta + 16, heap.load_u64(self.meta + 16) + 1)
        tx.flush(node)
        tx.flush(self.meta)
        tx.commit()
        self.model.append(value)

    def dequeue(self) -> Optional[int]:
        heap, tx = self.heap, self.tx
        head = heap.load_u64(self.meta + 0)
        if not head:
            return None
        self._compute(120)  # consuming the payload
        value = heap.load_u64(head + _VAL)
        nxt = heap.load_u64(head + _NEXT)
        tx.begin()
        tx.log_block(self.meta)
        tx.seal()
        heap.store_u64(self.meta + 0, nxt)
        if not nxt:
            heap.store_u64(self.meta + 8, 0)
        heap.store_u64(self.meta + 16, heap.load_u64(self.meta + 16) - 1)
        tx.flush(self.meta)
        tx.commit()
        self.model.pop(0)
        return value

    def operation(self, key: int) -> OpResult:
        if key % 2 == 0 or not self.model:
            self.enqueue(key)
            return OpResult(key, inserted=True)
        self.dequeue()
        return OpResult(key, deleted=True)

    # -- checking ------------------------------------------------------
    def contents(self) -> List[int]:
        values = []
        with self.bench.untimed():
            node = self.heap.load_u64(self.meta + 0)
            while node:
                values.append(self.heap.load_u64(node + _VAL))
                node = self.heap.load_u64(node + _NEXT)
        return values

    def check_invariants(self) -> Optional[str]:
        found = self.contents()
        if found != self.model:
            return f"queue {found[:5]}... != model {self.model[:5]}..."
        with self.bench.untimed():
            stored = self.heap.load_u64(self.meta + 16)
        if stored != len(self.model):
            return f"length {stored} != {len(self.model)}"
        return None


def crash_test() -> None:
    print("=== crash-testing the persistent queue ===")
    bench = Workbench(mode=PersistMode.LOG_P_SF, track_persistence=True, seed=5)
    queue = PersistentQueue(bench)
    queue.populate(40)
    keys = iter(range(100000))

    tester = CrashTester(
        bench.domain,
        lambda: queue.operation(next(keys)),
        queue.recover,
        queue.check_invariants,
        seed=9,
    )
    outcomes = tester.sweep(max_points=32)
    print(f"{len(outcomes)} crash points injected; "
          f"{'ALL CONSISTENT' if tester.all_consistent else 'FAILURES FOUND'}")


def timing_test() -> None:
    print("\n=== timing the persistent queue ===")
    traces = {}
    for mode in PersistMode:
        bench = Workbench(mode=mode, record=True, seed=5)
        queue = PersistentQueue(bench)
        queue.populate(40)
        queue.run(50)
        traces[mode] = bench.trace
    machine = MachineConfig()
    base = simulate(traces[PersistMode.BASE], machine)
    fenced = simulate(traces[PersistMode.LOG_P_SF], machine)
    sp = simulate(traces[PersistMode.LOG_P_SF], machine.with_sp(256))
    print(f"baseline     {base.cycles:>10,} cycles")
    print(f"Log+P+Sf     {fenced.cycles:>10,} cycles ({fenced.overhead_vs(base):+.1%})")
    print(f"SP256        {sp.cycles:>10,} cycles ({sp.overhead_vs(base):+.1%})")


def main() -> None:
    crash_test()
    timing_test()


if __name__ == "__main__":
    main()
