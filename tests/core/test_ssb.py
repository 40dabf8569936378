"""Speculative Store Buffer (repro.core.ssb)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ssb import SpeculativeStoreBuffer, SSBEntry, SSBFullError, SSBOp


class TestCapacityAndLatency:
    def test_latency_from_table3(self):
        assert SpeculativeStoreBuffer(32).latency == 2
        assert SpeculativeStoreBuffer(256).latency == 5
        assert SpeculativeStoreBuffer(1024).latency == 10

    def test_overflow_raises(self):
        ssb = SpeculativeStoreBuffer(32)
        for i in range(32):
            ssb.append(SSBOp.STORE, i * 64, 0)
        with pytest.raises(SSBFullError):
            ssb.append(SSBOp.STORE, 0x9000, 0)

    def test_free_slots(self):
        ssb = SpeculativeStoreBuffer(32)
        ssb.append(SSBOp.STORE, 0x40, 0)
        assert ssb.free_slots == 31


class TestForwarding:
    def test_holds_store(self):
        ssb = SpeculativeStoreBuffer(32)
        ssb.append(SSBOp.STORE, 0x40, 0)
        assert ssb.holds_store(0x40)
        assert not ssb.holds_store(0x80)

    def test_pmem_entries_do_not_forward(self):
        ssb = SpeculativeStoreBuffer(32)
        ssb.append(SSBOp.CLWB, 0x40, 0)
        assert not ssb.holds_store(0x40)

    def test_duplicate_blocks_counted(self):
        ssb = SpeculativeStoreBuffer(32)
        ssb.append(SSBOp.STORE, 0x40, 0)
        ssb.append(SSBOp.STORE, 0x40, 0)
        ssb.pop_epoch(0)
        assert not ssb.holds_store(0x40)

    def test_forward_stats(self):
        ssb = SpeculativeStoreBuffer(32)
        ssb.append(SSBOp.STORE, 0x40, 0)
        ssb.holds_store(0x40)
        ssb.holds_store(0x80)
        assert ssb.lookups == 2
        assert ssb.forwards == 1


class TestEpochDrain:
    def test_pop_epoch_returns_in_order(self):
        ssb = SpeculativeStoreBuffer(32)
        ssb.append(SSBOp.STORE, 0x40, 0)
        ssb.append(SSBOp.CLWB, 0x40, 0)
        ssb.append(SSBOp.BARRIER, 0, 0)
        ssb.append(SSBOp.STORE, 0x80, 1)
        drained = ssb.pop_epoch(0)
        assert [e.op for e in drained] == [SSBOp.STORE, SSBOp.CLWB, SSBOp.BARRIER]
        assert len(ssb) == 1

    def test_pop_epoch_clears_forwarding(self):
        ssb = SpeculativeStoreBuffer(32)
        ssb.append(SSBOp.STORE, 0x40, 0)
        ssb.pop_epoch(0)
        assert not ssb.holds_store(0x40)

    def test_younger_epoch_still_forwards(self):
        ssb = SpeculativeStoreBuffer(32)
        ssb.append(SSBOp.STORE, 0x40, 0)
        ssb.append(SSBOp.STORE, 0x40, 1)
        ssb.pop_epoch(0)
        assert ssb.holds_store(0x40)

    def test_non_contiguous_epoch_rejected(self):
        ssb = SpeculativeStoreBuffer(32)
        ssb.append(SSBOp.STORE, 0x40, 1)  # epoch 1 split around epoch 0:
        ssb.append(SSBOp.STORE, 0x80, 0)  # a sequencing bug the SSB must
        ssb.append(SSBOp.STORE, 0xC0, 1)  # refuse to drain silently
        with pytest.raises(RuntimeError):
            ssb.pop_epoch(1)

    def test_younger_epoch_popped_first_rejected(self):
        ssb = SpeculativeStoreBuffer(32)
        ssb.append(SSBOp.STORE, 0x40, 0)
        ssb.append(SSBOp.STORE, 0x80, 1)
        with pytest.raises(RuntimeError, match="not contiguous"):
            ssb.release_epoch(1)
        assert len(ssb) == 2

    def test_older_epoch_left_at_the_head_rejected(self):
        ssb = SpeculativeStoreBuffer(32)
        ssb.append(SSBOp.STORE, 0x40, 1)
        ssb.append(SSBOp.STORE, 0x80, 0)
        with pytest.raises(RuntimeError, match="not contiguous"):
            ssb.release_epoch(1)

    def test_entry_beyond_the_head_rejected(self):
        # epoch 0's second entry sits behind epoch 1's: only a scan past
        # the head finds it once entries have arrived out of epoch order
        ssb = SpeculativeStoreBuffer(32)
        ssb.append(SSBOp.STORE, 0x40, 0)
        ssb.append(SSBOp.STORE, 0x80, 1)
        ssb.append(SSBOp.CLWB, 0xC0, 0)
        with pytest.raises(RuntimeError, match="not contiguous"):
            ssb.release_epoch(0)

    def test_in_order_again_once_empty(self):
        ssb = SpeculativeStoreBuffer(32)
        ssb.append(SSBOp.STORE, 0x40, 1)
        ssb.append(SSBOp.STORE, 0x80, 0)  # out of order: scanned from now
        ssb.flush()
        ssb.append(SSBOp.STORE, 0x40, 2)
        ssb.append(SSBOp.STORE, 0x80, 3)
        ssb.release_epoch(2)
        assert ssb._in_order
        assert [entry.epoch_id for entry in ssb.entries()] == [3]


class TestFlush:
    def test_flush_discards_everything(self):
        ssb = SpeculativeStoreBuffer(32)
        for i in range(10):
            ssb.append(SSBOp.STORE, i * 64, 0)
        ssb.flush()
        assert len(ssb) == 0
        assert not ssb.holds_store(0)

    def test_max_occupancy_tracked(self):
        ssb = SpeculativeStoreBuffer(32)
        for i in range(12):
            ssb.append(SSBOp.STORE, i * 64, 0)
        ssb.flush()
        assert ssb.max_occupancy == 12


class ListSSB:
    """The SSB's contract over a plain list of ``(op, block, epoch)``."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = []
        self.appends = self.lookups = self.forwards = self.max_occupancy = 0

    def append(self, op, block, epoch_id):
        if len(self.entries) >= self.capacity:
            raise SSBFullError("full")
        self.entries.append((op, block, epoch_id))
        self.appends += 1
        self.max_occupancy = max(self.max_occupancy, len(self.entries))
        return len(self.entries)

    def holds_store(self, block):
        self.lookups += 1
        present = any(op is SSBOp.STORE and b == block for op, b, _ in self.entries)
        self.forwards += present
        return present

    def pop_epoch(self, epoch_id):
        """The prefix of *epoch_id*'s entries; an entry of this or an older
        epoch left behind is an error (raised after the pop)."""
        count = 0
        while count < len(self.entries) and self.entries[count][2] == epoch_id:
            count += 1
        drained, self.entries = self.entries[:count], self.entries[count:]
        if any(e <= epoch_id for _, _, e in self.entries):
            raise RuntimeError("not contiguous")
        return drained


BLOCKS = [0x40, 0x80, 0xC0, 0x1000]
#: ``(kind, op, block, epoch step, pop target, pop as a list)``; each
#: kind reads the fields it needs.  Appends are half the commands so the
#: FIFO fills; the next epoch is the youngest one's plus the step: mostly
#: the same or the next, sometimes an older one (a sequencing bug).
commands = st.lists(
    st.tuples(
        st.sampled_from(["append"] * 5 + ["lookup", "lookup", "pop", "pop", "flush"]),
        st.sampled_from(list(SSBOp)),
        st.sampled_from(BLOCKS),
        st.sampled_from([0, 0, 0, 1, 1, -1]),
        st.sampled_from(["head", "head", "head", "tail", "older"]),
        st.booleans(),
    ),
    min_size=10,
    max_size=80,
)


class TestAgainstAListModel:
    @given(capacity=st.sampled_from([1, 2, 3, 8]), script=commands)
    @settings(max_examples=300, deadline=None)
    def test_sequences(self, capacity, script):
        ssb = SpeculativeStoreBuffer(32)
        ssb.capacity = capacity  # Table 3 has no size this small
        model = ListSSB(capacity)
        epoch = 0
        for kind, op, block, step, which, as_list in script:
            if kind == "append":
                epoch = max(0, epoch + step)
                if len(model.entries) >= capacity:
                    with pytest.raises(SSBFullError):
                        ssb.append(op, block, epoch)
                    with pytest.raises(SSBFullError):
                        model.append(op, block, epoch)
                else:
                    assert ssb.append(op, block, epoch) == model.append(op, block, epoch)
            elif kind == "lookup":
                assert ssb.holds_store(block) == model.holds_store(block)
            elif kind == "pop":
                if not model.entries:
                    continue
                target = {
                    "head": model.entries[0][2],
                    "tail": model.entries[-1][2],
                    "older": model.entries[0][2] - 1,
                }[which]
                expected_error = None
                try:
                    drained = model.pop_epoch(target)
                except RuntimeError as error:
                    expected_error = error
                    drained = None
                published = []
                pop, args = (
                    (ssb.pop_epoch, (target,)) if as_list
                    else (ssb.release_epoch, (target, published))
                )
                if expected_error is not None:
                    with pytest.raises(RuntimeError, match="not contiguous"):
                        pop(*args)
                elif as_list:
                    assert pop(*args) == [SSBEntry(*entry) for entry in drained]
                else:
                    assert pop(*args) is None
                    assert published == [
                        block for op, block, _ in drained if op is SSBOp.STORE
                    ]
            else:
                ssb.flush()
                model.entries = []
            assert len(ssb) == len(model.entries)
            assert ssb.free_slots == capacity - len(model.entries)
            assert ssb.entries() == [SSBEntry(*entry) for entry in model.entries]
            for name in ("appends", "lookups", "forwards", "max_occupancy"):
                assert getattr(ssb, name) == getattr(model, name), name
        # the forwarding index empties with the FIFO
        ssb.flush()
        assert not any(ssb.holds_store(block) for block in BLOCKS)
