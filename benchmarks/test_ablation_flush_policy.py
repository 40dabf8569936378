"""Ablation — the flush-instruction choice (paper §2.2 + footnote 2).

The paper flushes with ``clwb`` and explains why: ``clflush`` "has a
similar functionality but much worse performance" (it serialises), and
``clflushopt`` evicts the block, so data the transaction re-reads costs a
fresh miss.  This bench runs the same workload with each flush policy.
"""

from conftest import run_once

from repro.txn.modes import PersistMode
from repro.uarch.config import MachineConfig
from repro.uarch.pipeline import simulate
from repro.workloads.base import Workbench
from repro.workloads.registry import PAPER_SPECS

POLICIES = ("clwb", "clflushopt", "clflush")


def _trace(ab, policy, seed=7):
    spec = PAPER_SPECS[ab]
    bench = Workbench(mode=PersistMode.LOG_P_SF, record=True, seed=seed,
                      flush_with=policy)
    workload = spec.build(bench)
    workload.populate(spec.scaled_init_ops)
    workload.run(spec.scaled_sim_ops)
    return bench.trace


def test_ablation_flush_policy(benchmark, print_figure):
    def experiment():
        machine = MachineConfig()
        rows = {}
        for ab in ("LL", "AT"):
            rows[ab] = {
                policy: simulate(_trace(ab, policy), machine) for policy in POLICIES
            }
        return rows

    rows = run_once(benchmark, experiment)

    lines = ["Ablation: flush instruction choice (Log+P+Sf, no SP)"]
    lines.append(f"{'bench':<7}" + "".join(f"{p:>14}" for p in POLICIES))
    for ab, by_policy in rows.items():
        lines.append(
            f"{ab:<7}" + "".join(f"{by_policy[p].cycles:>14,}" for p in POLICIES)
        )
    print_figure("\n".join(lines))

    for ab, by_policy in rows.items():
        # clflush's serialising semantics make it the worst choice
        assert by_policy["clflush"].cycles > by_policy["clwb"].cycles, ab
        # clflushopt evicts re-read data, so it never beats clwb here
        assert by_policy["clflushopt"].cycles >= by_policy["clwb"].cycles * 0.99, ab
