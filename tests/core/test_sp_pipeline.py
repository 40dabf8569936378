"""Speculative persistence integrated with the pipeline (paper §4)."""

from repro.isa.instr import Instr
from repro.isa.ops import Op
from repro.isa.trace import Trace
from repro.uarch.config import MachineConfig
from repro.uarch.pipeline import PipelineModel, simulate


def barrier(addr):
    """One WAL-step pattern: store, clwb, sfence-pcommit-sfence."""
    return [
        Instr(Op.STORE, addr),
        Instr(Op.CLWB, addr),
        Instr(Op.SFENCE),
        Instr(Op.PCOMMIT),
        Instr(Op.SFENCE),
    ]


def wal_op(base, work=60):
    """Four barrier steps separated by ALU work, like one transaction."""
    instrs = []
    for step in range(4):
        instrs += barrier(base + step * 64)
        instrs += [Instr(Op.ALU)] * work
    return instrs


def trace_of_ops(n_ops, work=60):
    instrs = []
    for i in range(n_ops):
        instrs += wal_op(0x10000 + i * 0x400, work)
    return Trace(instrs)


BASE = MachineConfig()
SP = BASE.with_sp(256)


class TestSpeculationEntry:
    def test_sp_enters_speculation_at_stalling_barrier(self):
        stats = simulate(trace_of_ops(3), SP)
        assert stats.sp_entries >= 1
        assert stats.epochs_created >= 1

    def test_no_speculation_when_disabled(self):
        stats = simulate(trace_of_ops(3), BASE)
        assert stats.sp_entries == 0
        assert stats.epochs_created == 0

    def test_sp_is_never_slower(self):
        trace = trace_of_ops(4)
        assert simulate(trace, SP).cycles <= simulate(trace, BASE).cycles

    def test_sp_removes_sfence_stalls(self):
        trace = trace_of_ops(4)
        base = simulate(trace, BASE)
        sp = simulate(trace, SP)
        assert sp.sfence_stall_cycles < base.sfence_stall_cycles


class TestEpochChaining:
    def test_back_to_back_barriers_create_child_epochs(self):
        # barriers with little work between them force epoch chains
        stats = simulate(trace_of_ops(4, work=5), SP)
        assert stats.epochs_created > stats.sp_entries
        assert stats.max_active_epochs >= 2

    def test_active_epochs_capped_by_checkpoints(self):
        stats = simulate(trace_of_ops(8, work=2), SP)
        assert stats.max_active_epochs <= SP.checkpoint_entries

    def test_checkpoint_exhaustion_stalls(self):
        config = BASE.with_sp(256, checkpoint_entries=2)
        stats = simulate(trace_of_ops(8, work=2), config)
        assert stats.checkpoint_stall_cycles > 0


class TestSSBPressure:
    def test_small_ssb_causes_structural_stalls(self):
        # long store bursts against a tiny SSB
        instrs = []
        for i in range(3):
            instrs += barrier(0x10000 + i * 0x400)
            instrs += [Instr(Op.STORE, 0x20000 + j * 64) for j in range(60)]
        tiny = BASE.with_sp(32)
        stats = simulate(Trace(instrs), tiny)
        assert stats.ssb_full_stall_cycles > 0

    def test_large_ssb_avoids_structural_stalls(self):
        instrs = []
        for i in range(3):
            instrs += barrier(0x10000 + i * 0x400)
            instrs += [Instr(Op.STORE, 0x20000 + j * 64) for j in range(60)]
        stats = simulate(Trace(instrs), BASE.with_sp(1024))
        assert stats.ssb_full_stall_cycles == 0

    def test_ssb_occupancy_tracked(self):
        stats = simulate(trace_of_ops(3, work=5), SP)
        assert stats.ssb_max_occupancy > 0


class TestSpeculativeLoads:
    def test_forwarding_from_ssb(self):
        instrs = barrier(0x10000)
        instrs += [Instr(Op.STORE, 0x20000)]
        instrs += [Instr(Op.LOAD, 0x20000)]  # must see the buffered store
        stats = simulate(Trace(instrs), SP)
        assert stats.ssb_forwards >= 1 or stats.sp_entries == 0

    def test_bloom_queries_happen_during_speculation(self):
        stats = simulate(trace_of_ops(3, work=10), SP)
        assert stats.bloom_queries == 0  # WAL pattern above has no loads
        instrs = []
        for i in range(3):
            instrs += barrier(0x10000 + i * 0x400)
            instrs += [Instr(Op.LOAD, 0x30000 + j * 64) for j in range(10)]
        stats = simulate(Trace(instrs), SP)
        assert stats.bloom_queries > 0


class TestSpeculationExit:
    def test_sole_epoch_exits_when_pcommit_completes(self):
        # one barrier, then a long serialised load chain: speculation must
        # exit mid-chain and the machine ends the run non-speculative
        instrs = barrier(0x10000)
        instrs += [Instr(Op.LOAD, 0x40000 + i * 4096) for i in range(30)]
        model = PipelineModel(SP)
        model.run(Trace(instrs))
        assert not model.epochs.speculating
        assert len(model.ssb) == 0

    def test_bloom_reset_on_exit(self):
        instrs = barrier(0x10000)
        instrs += [Instr(Op.LOAD, 0x40000 + i * 4096) for i in range(30)]
        model = PipelineModel(SP)
        model.run(Trace(instrs))
        assert model.bloom.resets >= 1

    def test_machine_drains_cleanly_at_end(self):
        model = PipelineModel(SP)
        model.run(trace_of_ops(5, work=3))
        assert not model.epochs.speculating
        assert len(model.ssb) == 0
        assert model.checkpoints.in_use == 0


class TestStrongOrderingOps:
    def test_xchg_ends_speculation(self):
        instrs = barrier(0x10000)
        instrs += [Instr(Op.STORE, 0x20000)]
        instrs += [Instr(Op.XCHG, 0x30000)]
        instrs += [Instr(Op.ALU)] * 20
        model = PipelineModel(SP)
        stats = model.run(Trace(instrs))
        assert not model.epochs.speculating
        assert stats.instructions == len(instrs)

    def test_clflush_ends_speculation(self):
        instrs = barrier(0x10000)
        instrs += [Instr(Op.STORE, 0x20000)]
        instrs += [Instr(Op.CLFLUSH, 0x20000)]
        model = PipelineModel(SP)
        model.run(Trace(instrs))
        assert not model.epochs.speculating


class TestBarrierCoalescing:
    def test_one_checkpoint_per_barrier_triple(self):
        """Paper §4.2.2: an sfence-pcommit-sfence consumes a single
        checkpoint, not two."""
        stats = simulate(trace_of_ops(2, work=5), SP)
        # 8 barrier triples; epochs == sp_entries + child epochs, which
        # would roughly double with two checkpoints per barrier
        assert stats.epochs_created <= 9
