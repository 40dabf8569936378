#!/usr/bin/env python
"""Quickstart: persistent data structures, persist barriers, and SP.

Builds a failure-safe persistent linked list on simulated NVMM, runs a few
operations through the trace-driven timing model, and shows the paper's
core result on a single workload: the ``sfence-pcommit-sfence`` persist
barriers dominate the overhead of failure safety, and speculative
persistence (SP) hides most of their latency.

Run:  python examples/quickstart.py
"""

from repro.txn.modes import PersistMode
from repro.uarch.config import MachineConfig
from repro.uarch.pipeline import simulate
from repro.workloads.base import Workbench
from repro.workloads.linkedlist import LinkedListWorkload


def build_trace(mode: PersistMode):
    """Run the same linked-list workload under one persistence variant."""
    bench = Workbench(mode=mode, record=True, seed=42)
    workload = LinkedListWorkload(bench, max_nodes=1024)
    workload.populate(500)       # untimed, like the paper's fast-forward
    workload.run(40)             # the measured operations
    return bench.trace


def main() -> None:
    print("Generating traces for each persistence variant ...")
    traces = {mode: build_trace(mode) for mode in PersistMode}

    baseline_machine = MachineConfig()          # paper Table 2
    sp_machine = baseline_machine.with_sp(256)  # + speculative persistence

    base = simulate(traces[PersistMode.BASE], baseline_machine)
    print(f"\n{'variant':<12}{'cycles':>12}{'overhead':>10}{'sfence stalls':>15}")
    for mode in PersistMode:
        stats = simulate(traces[mode], baseline_machine)
        print(
            f"{mode.label:<12}{stats.cycles:>12,}"
            f"{stats.overhead_vs(base):>10.1%}{stats.sfence_stall_cycles:>15,}"
        )

    sp = simulate(traces[PersistMode.LOG_P_SF], sp_machine)
    print(
        f"{'SP256':<12}{sp.cycles:>12,}{sp.overhead_vs(base):>10.1%}"
        f"{sp.sfence_stall_cycles:>15,}"
    )
    print(
        f"\nSP entered speculation {sp.sp_entries} times, created "
        f"{sp.epochs_created} epochs (max {sp.max_active_epochs} active), "
        f"and eliminated "
        f"{1 - sp.cycles / simulate(traces[PersistMode.LOG_P_SF], baseline_machine).cycles:.0%} "
        "of the fenced run's cycles."
    )


if __name__ == "__main__":
    main()
