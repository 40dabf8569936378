"""Ablation — the bloom filter in front of the SSB (paper §4.2.2).

"To avoid the SSB becoming a performance bottleneck, we adopt a bloom
filter": without it every speculative load pays the SSB CAM latency
(Table 3) before the L1D.  This bench disables the filter and measures
the cost on load-heavy fenced workloads.
"""

from conftest import run_once

from repro.harness.runner import build_trace
from repro.txn.modes import PersistMode
from repro.uarch.config import MachineConfig
from repro.uarch.pipeline import simulate

BENCHMARKS = ("LL", "AT", "RT")


def test_ablation_bloom(benchmark, print_figure):
    def experiment():
        machine = MachineConfig()
        with_bloom = machine.with_sp(256)
        without_bloom = machine.with_sp(256, bloom_enabled=False)
        rows = {}
        for ab in BENCHMARKS:
            trace = build_trace(ab, PersistMode.LOG_P_SF)
            rows[ab] = (simulate(trace, with_bloom), simulate(trace, without_bloom))
        return rows

    rows = run_once(benchmark, experiment)

    lines = ["Ablation: bloom filter in front of the SSB (SP256)"]
    lines.append(f"{'bench':<7}{'cycles(bloom)':>15}{'cycles(no bloom)':>18}{'delta':>9}")
    for ab, (with_bloom, without_bloom) in rows.items():
        delta = without_bloom.cycles / with_bloom.cycles - 1
        lines.append(
            f"{ab:<7}{with_bloom.cycles:>15,}{without_bloom.cycles:>18,}{delta:>9.1%}"
        )
    print_figure("\n".join(lines))

    for ab, (with_bloom, without_bloom) in rows.items():
        # dropping the filter never helps ...
        assert with_bloom.cycles <= without_bloom.cycles, ab
    # ... and hurts measurably on at least one load-heavy benchmark
    assert any(
        without_bloom.cycles > 1.005 * with_bloom.cycles
        for with_bloom, without_bloom in rows.values()
    )
