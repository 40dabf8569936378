"""Ablation — single-checkpoint barriers vs the naive design (paper §4.2.2).

"In a naive implementation, each fence creates a child epoch and its own
checkpoint, but it would be wasteful to devote an entire checkpoint to a
single pcommit instruction."  The paper coalesces each
``sfence-pcommit-sfence`` into one checkpoint plus a special SSB opcode.
This bench runs the same fenced traces both ways and shows the naive mode
creating roughly twice the epochs and stalling on checkpoint exhaustion.
"""

from conftest import run_once

from repro.harness.runner import build_trace
from repro.txn.modes import PersistMode
from repro.uarch.config import MachineConfig
from repro.uarch.pipeline import simulate

BENCHMARKS = ("LL", "AT", "BT")


def test_ablation_checkpoints(benchmark, print_figure):
    def experiment():
        machine = MachineConfig()
        coalesced_cfg = machine.with_sp(256)
        naive_cfg = machine.with_sp(256, coalesce_barrier_checkpoints=False)
        rows = {}
        for ab in BENCHMARKS:
            trace = build_trace(ab, PersistMode.LOG_P_SF)
            rows[ab] = (
                simulate(trace, coalesced_cfg),
                simulate(trace, naive_cfg),
            )
        return rows

    rows = run_once(benchmark, experiment)

    lines = ["Ablation: barrier checkpoint coalescing (SP256)"]
    lines.append(
        f"{'bench':<7}{'cycles(coal)':>14}{'cycles(naive)':>15}"
        f"{'epochs(coal)':>14}{'epochs(naive)':>15}{'ckpt-stall(naive)':>19}"
    )
    for ab, (coalesced, naive) in rows.items():
        lines.append(
            f"{ab:<7}{coalesced.cycles:>14,}{naive.cycles:>15,}"
            f"{coalesced.epochs_created:>14}{naive.epochs_created:>15}"
            f"{naive.checkpoint_stall_cycles:>19,}"
        )
    print_figure("\n".join(lines))

    for ab, (coalesced, naive) in rows.items():
        # the naive design burns roughly one extra epoch per barrier
        assert naive.epochs_created > 1.4 * coalesced.epochs_created, ab
        # and coalescing is never slower
        assert coalesced.cycles <= naive.cycles, ab
