"""Extension — what does recovery actually cost?

The paper's failure model makes rollback "extremely rare", so recovery
speed "is much less important than the speed of executing the speculative
region".  This bench quantifies the other side of that trade: after a
crash in the middle of an operation, how long does the WAL undo take,
relative to one normal operation?  Recovery replays the undo log in
reverse plus one persist-barrier set — microseconds, even for the trees'
multi-node logs.
"""

from conftest import run_once

from repro.pmem.crash import CrashSignal
from repro.txn.modes import PersistMode
from repro.uarch.config import MachineConfig
from repro.uarch.pipeline import simulate
from repro.workloads.base import Workbench
from repro.workloads.registry import PAPER_SPECS, WORKLOADS


def _measure(ab: str, seed: int = 5):
    spec = PAPER_SPECS[ab]
    bench = Workbench(
        mode=PersistMode.LOG_P_SF, record=True, track_persistence=True, seed=seed
    )
    workload = spec.build(bench)
    workload.populate(min(spec.scaled_init_ops, 300))

    # one clean op for the cost baseline (and its store count)
    stores_before = bench.domain.n_stores
    bench.recorder.restart()
    workload.operation(12345 % workload._key_space)
    op_stats = simulate(bench.recorder.trace, MachineConfig())
    stores_per_op = bench.domain.n_stores - stores_before

    del stores_per_op  # the op cost baseline already captures op size

    # Crash at the step-4 logged_bit *clear* store: the whole update has
    # run, the bit is still durably 1, so recovery must undo everything —
    # the deepest (most expensive) recovery the protocol can face.
    bit_addr = workload.tx.log.logged_bit_addr

    class _Crash:
        bit_stores = 0

        def load(self, addr, size=8, meta=None):
            pass

        def store(self, addr, size=8, meta=None):
            if addr == bit_addr:
                self.bit_stores += 1
                if self.bit_stores == 2:  # 1st = set, 2nd = clear
                    raise CrashSignal()

    crasher = _Crash()
    crashed = False
    bench.heap.attach(crasher)
    try:
        workload.operation(54321 % workload._key_space)
    except CrashSignal:
        crashed = True
    finally:
        bench.heap.detach(crasher)
    bench.domain.crash()
    bench.recorder.restart()
    undone = workload.recover()
    recovery_stats = simulate(bench.recorder.trace, MachineConfig())
    # (the reference model is not resynchronised: this bench measures
    # recovery cost, not consistency — the crash-consistency tests live
    # in tests/workloads/test_crash_consistency.py)
    return op_stats, recovery_stats, undone, crashed


def test_recovery_cost(benchmark, print_figure):
    def experiment():
        return {ab: _measure(ab) for ab in WORKLOADS}

    data = run_once(benchmark, experiment)

    lines = ["Extension: post-crash recovery cost vs one operation"]
    lines.append(
        f"{'bench':<7}{'op cycles':>11}{'recovery':>10}{'ratio':>8}{'undone':>8}"
    )
    for ab, (op_stats, rec_stats, undone, crashed) in data.items():
        ratio = rec_stats.cycles / op_stats.cycles if op_stats.cycles else 0.0
        lines.append(
            f"{ab:<7}{op_stats.cycles:>11,}{rec_stats.cycles:>10,}"
            f"{ratio:>8.2f}{undone:>8}"
        )
    print_figure("\n".join(lines))

    for ab, (op_stats, rec_stats, undone, crashed) in data.items():
        assert crashed, f"{ab}: the injected crash did not fire"
        assert undone >= 1, f"{ab}: recovery had nothing to undo"
        # recovery is the same order of magnitude as one operation —
        # rare failures make its cost negligible overall
        assert rec_stats.cycles < 5 * op_stats.cycles, ab
