"""Ablation — SSB drain bandwidth at epoch commit.

Paper §4.2.2: at commit, the SSB's instructions "update the cache or
memory in sequence as quickly as possible depending on the availability of
ports to the cache".  This bench sweeps the port count: one port
serialises the replay and lengthens every epoch's commit; a handful of
ports makes the drain a minor term.
"""

from conftest import run_once

from repro.harness.runner import build_trace
from repro.txn.modes import PersistMode
from repro.uarch.config import MachineConfig
from repro.uarch.pipeline import simulate

BENCHMARKS = ("SS", "BT")  # the store-heavy epochs
PORTS = (1, 2, 4, 8)


def test_ablation_drain_ports(benchmark, print_figure):
    def experiment():
        machine = MachineConfig()
        rows = {}
        for ab in BENCHMARKS:
            trace = build_trace(ab, PersistMode.LOG_P_SF)
            rows[ab] = {
                ports: simulate(trace, machine.with_sp(256, drain_per_cycle=ports))
                for ports in PORTS
            }
        return rows

    rows = run_once(benchmark, experiment)

    lines = ["Ablation: SSB drain ports at epoch commit (SP256)"]
    lines.append(f"{'bench':<7}" + "".join(f"{p:>10}p" for p in PORTS))
    for ab, by_ports in rows.items():
        lines.append(
            f"{ab:<7}" + "".join(f"{by_ports[p].cycles:>11,}" for p in PORTS)
        )
    print_figure("\n".join(lines))

    for ab, by_ports in rows.items():
        cycles = [by_ports[p].cycles for p in PORTS]
        # more ports never hurt, and the serial drain is measurably worse
        assert cycles == sorted(cycles, reverse=True) or cycles[0] >= cycles[-1], ab
        assert by_ports[1].cycles > by_ports[8].cycles, ab
