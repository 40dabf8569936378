"""Ablation — full logging vs incremental logging (paper §3.2).

The paper weighs two ways to transactionalise tree rebalancing and picks
*full logging* "given the programming complexity and the frequent persist
barriers of incremental logging".  This bench quantifies that choice on
the AVL tree: incremental logging keeps each transaction's log small but
pays a barrier set per rebalancing step, and when barriers are the
bottleneck (the paper's whole premise) it loses end to end.
"""

from conftest import run_once

from repro.txn.modes import PersistMode
from repro.uarch.config import MachineConfig
from repro.uarch.pipeline import simulate
from repro.workloads.avltree import AVLTreeWorkload
from repro.workloads.base import Workbench
from repro.workloads.incremental import AVLTreeIncremental, persist_cost_summary


def _run(cls, n_ops=120, key_space=4096, seed=3):
    bench = Workbench(mode=PersistMode.LOG_P_SF, record=True, seed=seed)
    workload = cls(bench, key_space=key_space)
    # insert-heavy sequence (incremental logging implements inserts)
    for key in range(0, n_ops * 3, 3):
        workload.operation(key % key_space)
    stats = simulate(bench.trace, MachineConfig())
    return workload, persist_cost_summary(workload), stats


def test_ablation_logging(benchmark, print_figure):
    def experiment():
        _, inc_cost, inc_stats = _run(AVLTreeIncremental)
        _, full_cost, full_stats = _run(AVLTreeWorkload)
        return inc_cost, inc_stats, full_cost, full_stats

    inc_cost, inc_stats, full_cost, full_stats = run_once(benchmark, experiment)

    rows = [
        ("transactions", full_cost["transactions"], inc_cost["transactions"]),
        ("pcommits", full_cost["pcommits"], inc_cost["pcommits"]),
        ("sfences", full_cost["sfences"], inc_cost["sfences"]),
        ("log entries", full_cost["entries_logged"], inc_cost["entries_logged"]),
        ("entries / txn",
         round(full_cost["entries_logged"] / full_cost["transactions"], 2),
         round(inc_cost["entries_logged"] / inc_cost["transactions"], 2)),
        ("cycles", full_stats.cycles, inc_stats.cycles),
    ]
    lines = ["Ablation: full vs incremental logging (AVL tree, insert-heavy)"]
    lines.append(f"{'metric':<16}{'full':>12}{'incremental':>14}")
    for name, full_value, inc_value in rows:
        lines.append(f"{name:<16}{full_value:>12}{inc_value:>14}")
    print_figure("\n".join(lines))

    # incremental logging = one barrier set per step (paper's objection)
    assert inc_cost["pcommits"] > 2 * full_cost["pcommits"]
    # but each incremental transaction logs far fewer nodes
    assert (inc_cost["entries_logged"] / inc_cost["transactions"]
            < full_cost["entries_logged"] / full_cost["transactions"])
    # with barriers the bottleneck, full logging wins end to end
    assert full_stats.cycles < inc_stats.cycles
