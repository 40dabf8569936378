#!/usr/bin/env python
"""Coherence conflicts during speculation: the BLT and rollback.

SP is a single-thread acceleration, but speculation must stay correct when
other cores exist (paper §4.2.2): an external coherence request hitting a
speculatively accessed block can neither observe speculative state nor let
speculation continue with stale data — the Block Lookup Table detects the
conflict and the core rolls back to the oldest checkpoint and re-executes.

This example runs a fenced workload under SP while a "second core" pokes
at blocks the workload touches, and shows the cost of rollbacks (low, as
the paper argues — conflicts are rare and re-execution is short).

Run:  python examples/multicore_conflict.py
"""

import random

from repro.txn.modes import PersistMode
from repro.uarch.config import MachineConfig
from repro.uarch.pipeline import PipelineModel
from repro.workloads.base import Workbench
from repro.workloads.linkedlist import LinkedListWorkload


def build_trace():
    bench = Workbench(mode=PersistMode.LOG_P_SF, record=True, seed=21)
    workload = LinkedListWorkload(bench, max_nodes=512)
    workload.populate(300)
    workload.run(30)
    return bench.trace


def main() -> None:
    trace = build_trace()
    sp_config = MachineConfig().with_sp(256)
    rng = random.Random(99)

    clean = PipelineModel(sp_config).run(trace)
    print(f"undisturbed SP run: {clean.cycles:,} cycles, "
          f"{clean.sp_entries} speculation entries")

    # the "other core" probes random workload blocks at random trace points
    touched = sorted({i.addr & ~63 for i in trace if i.is_memory()})
    for probes in (2, 8, 32):
        model = PipelineModel(sp_config)
        for _ in range(probes):
            model.schedule_probe(rng.randrange(len(trace)), rng.choice(touched))
        stats = model.run(trace)
        slowdown = stats.cycles / clean.cycles - 1
        print(f"{probes:>3} external probes -> {stats.rollbacks} rollbacks, "
              f"{stats.cycles:,} cycles ({slowdown:+.2%})")

    print("\nConflicts squash speculation and re-execute from the oldest")
    print("checkpoint; because speculative regions are short (a few persist")
    print("barriers), even frequent probes cost little — which is why the")
    print("paper keeps the BLT design deliberately simple.")


if __name__ == "__main__":
    main()
