"""NVMHeap typed access, observation, and snapshots (repro.mem.heap)."""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.heap import NVMHeap, CACHE_BLOCK


class TestConstruction:
    def test_size_must_be_block_multiple(self):
        with pytest.raises(ValueError):
            NVMHeap(100)

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            NVMHeap(0)


class TestTypedAccess:
    def test_u64_round_trip(self, heap):
        heap.store_u64(0x100, 0xDEADBEEF)
        assert heap.load_u64(0x100) == 0xDEADBEEF

    def test_u64_wraps_at_64_bits(self, heap):
        heap.store_u64(0x100, (1 << 64) + 5)
        assert heap.load_u64(0x100) == 5

    def test_i64_round_trip_negative(self, heap):
        heap.store_i64(0x100, -17)
        assert heap.load_i64(0x100) == -17

    def test_i64_positive(self, heap):
        heap.store_i64(0x100, 12345)
        assert heap.load_i64(0x100) == 12345

    def test_bytes_round_trip(self, heap):
        payload = bytes(range(48))
        heap.store_bytes(0x200, payload)
        assert heap.load_bytes(0x200, 48) == payload

    def test_little_endian_layout(self, heap):
        heap.store_u64(0x100, 0x0102030405060708)
        assert heap.raw_read(0x100, 8) == bytes([8, 7, 6, 5, 4, 3, 2, 1])

    @given(value=st.integers(min_value=0, max_value=(1 << 64) - 1))
    @settings(max_examples=50, deadline=None)
    def test_u64_round_trip_property(self, value):
        heap = NVMHeap(1 << 12)
        heap.store_u64(0x100, value)
        assert heap.load_u64(0x100) == value


class TestBounds:
    def test_null_address_rejected(self, heap):
        with pytest.raises(IndexError):
            heap.load_u64(0)

    def test_past_end_rejected(self, heap):
        with pytest.raises(IndexError):
            heap.store_u64(heap.size - 4, 1)

    def test_last_word_ok(self, heap):
        heap.store_u64(heap.size - 8, 7)
        assert heap.load_u64(heap.size - 8) == 7


class _Recorder:
    def __init__(self):
        self.events = []

    def load(self, addr, size=8, meta=None):
        self.events.append(("load", addr, size))

    def store(self, addr, size=8, meta=None):
        self.events.append(("store", addr, size))


class TestObservers:
    def test_load_store_observed(self, heap):
        obs = _Recorder()
        heap.attach(obs)
        heap.store_u64(0x100, 1)
        heap.load_u64(0x100)
        assert obs.events == [("store", 0x100, 8), ("load", 0x100, 8)]

    def test_bulk_access_observed_per_word(self, heap):
        obs = _Recorder()
        heap.attach(obs)
        heap.store_bytes(0x100, bytes(20))
        kinds = [e[0] for e in obs.events]
        assert kinds == ["store", "store", "store"]  # 8 + 8 + 4 bytes
        assert obs.events[2] == ("store", 0x110, 4)

    def test_detach(self, heap):
        obs = _Recorder()
        heap.attach(obs)
        heap.detach(obs)
        heap.store_u64(0x100, 1)
        assert obs.events == []

    def test_raw_access_not_observed(self, heap):
        obs = _Recorder()
        heap.attach(obs)
        heap.raw_write(0x100, b"\x01" * 8)
        heap.raw_read(0x100, 8)
        assert obs.events == []

    def test_unobserved_restores_position(self, heap):
        a, b = _Recorder(), _Recorder()
        heap.attach(a)
        heap.attach(b)
        with heap.unobserved(a):
            with heap.unobserved(a):  # already detached: no-op
                heap.load_u64(0x100)
        heap.load_u64(0x100)
        assert len(a.events) == 1 and len(b.events) == 2
        assert heap._observers == [a, b]

    def test_unobserved_restores_on_exception(self, heap):
        a = _Recorder()
        heap.attach(a)
        with pytest.raises(KeyError):
            with heap.unobserved(a):
                raise KeyError
        assert heap._observers == [a]

    def test_multiple_observers(self, heap):
        a, b = _Recorder(), _Recorder()
        heap.attach(a)
        heap.attach(b)
        heap.load_u64(0x100)
        assert len(a.events) == len(b.events) == 1


class TestSnapshots:
    def test_snapshot_restore_round_trip(self, heap):
        heap.store_u64(0x100, 42)
        image = heap.snapshot()
        heap.store_u64(0x100, 99)
        heap.restore(image)
        assert heap.load_u64(0x100) == 42

    def test_reads_return_bytes(self, heap):
        heap.store_u64(0x100, 42)
        assert type(heap.snapshot()) is bytes
        assert type(heap.raw_read(0x100, 8)) is bytes
        assert type(heap.load_bytes(0x100, 8)) is bytes
        assert len(heap.snapshot()) == heap.size

    def test_fresh_heap_reads_zero(self):
        heap = NVMHeap(1 << 26)
        assert heap.load_u64(heap.size - 8) == 0
        assert heap.raw_read(0x1000, 64) == bytes(64)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_does_not_share_the_heap(self, heap):
        """The mapping is private: a forked worker gets its own copy."""
        heap.store_u64(0x100, 1)
        pid = os.fork()
        if pid == 0:  # child
            heap.store_u64(0x100, 2)
            os._exit(0 if heap.load_u64(0x100) == 2 else 1)
        _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
        assert heap.load_u64(0x100) == 1

    def test_restore_wrong_size_rejected(self, heap):
        with pytest.raises(ValueError):
            heap.restore(b"\x00" * 10)

    def test_block_of(self, heap):
        assert heap.block_of(0x1038) == 0x1000
        assert heap.block_of(CACHE_BLOCK) == CACHE_BLOCK
