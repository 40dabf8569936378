"""TraceRecorder behaviour (repro.isa.recorder)."""

import copy
import pickle

import pytest

from repro.isa.ops import Op
from repro.isa.recorder import TraceRecorder


class TestEmission:
    def test_load_emits_alu_padding_then_load(self):
        rec = TraceRecorder(alu_per_load=2, alu_per_store=0)
        rec.load(0x40)
        ops = [i.op for i in rec.trace]
        assert ops == [Op.ALU, Op.ALU, Op.LOAD]

    def test_store_padding(self):
        rec = TraceRecorder(alu_per_load=0, alu_per_store=3)
        rec.store(0x80)
        assert [i.op for i in rec.trace] == [Op.ALU] * 3 + [Op.STORE]

    def test_persistence_instructions(self):
        rec = TraceRecorder()
        rec.clwb(0x40)
        rec.clflushopt(0x80)
        rec.clflush(0xC0)
        rec.pcommit()
        rec.sfence()
        rec.mfence()
        rec.xchg(0x100)
        ops = [i.op for i in rec.trace]
        assert ops == [
            Op.CLWB,
            Op.CLFLUSHOPT,
            Op.CLFLUSH,
            Op.PCOMMIT,
            Op.SFENCE,
            Op.MFENCE,
            Op.XCHG,
        ]

    def test_flushes_record_block_size(self):
        rec = TraceRecorder()
        rec.clwb(0x44)
        assert rec.trace[0].size == 64

    def test_compute_with_branches(self):
        rec = TraceRecorder()
        rec.compute(4, branch_every=2)
        ops = [i.op for i in rec.trace]
        assert ops == [Op.ALU, Op.ALU, Op.BRANCH, Op.ALU, Op.ALU, Op.BRANCH]

    def test_compute_zero_is_noop(self):
        rec = TraceRecorder()
        rec.compute(0)
        assert len(rec.trace) == 0

    def test_marker_is_tagged_alu(self):
        rec = TraceRecorder()
        rec.marker("boundary")
        assert rec.trace[0].op is Op.ALU
        assert rec.trace[0].meta == "boundary"


class TestFastForward:
    def test_suppresses_all_events(self):
        rec = TraceRecorder()
        with rec.fast_forward():
            rec.load(0x40)
            rec.store(0x80)
            rec.clwb(0x40)
            rec.pcommit()
            rec.sfence()
            rec.compute(10)
            rec.marker("x")
        assert len(rec.trace) == 0

    def test_reentrant(self):
        rec = TraceRecorder()
        with rec.fast_forward():
            with rec.fast_forward():
                rec.load(0x40)
            rec.load(0x40)  # still inside the outer fast-forward
        rec.load(0x40)
        assert rec.trace.stats().count(Op.LOAD) == 1

    def test_flag(self):
        rec = TraceRecorder()
        assert not rec.fast_forwarding
        with rec.fast_forward():
            assert rec.fast_forwarding
        assert not rec.fast_forwarding


class TestCopies:
    """A recorder restores its attributes one by one when copied or
    unpickled (its ``(None, attributes)`` state), and either way the copy
    records on from where the original stood."""

    def _recorded(self):
        rec = TraceRecorder(alu_per_load=2)
        rec.load(0x40)
        rec.store(0x80, meta="log")
        rec.sfence()
        return rec

    @pytest.mark.parametrize("how", ["deepcopy", "pickle"])
    def test_round_trip(self, how):
        rec = self._recorded()
        if how == "deepcopy":
            twin = copy.deepcopy(rec)
        else:
            twin = pickle.loads(pickle.dumps(rec))
        assert list(twin.trace) == list(rec.trace)
        assert twin.alu_per_load == 2 and not twin.fast_forwarding
        for each in (rec, twin):
            each.load(0xC0)
        assert list(twin.trace) == list(rec.trace)
