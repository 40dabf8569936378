"""ShadowHeap overlay semantics (repro.mem.shadow)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.heap import NVMHeap, CACHE_BLOCK
from repro.mem.shadow import ShadowHeap


def _heap_with_pattern() -> NVMHeap:
    heap = NVMHeap(1 << 14)
    heap.raw_write(0x100, bytes(range(64)))
    return heap


class TestReadThrough:
    def test_unwritten_addresses_read_real_memory(self):
        heap = _heap_with_pattern()
        shadow = ShadowHeap(heap)
        assert shadow.load_bytes(0x100, 8) == heap.raw_read(0x100, 8)

    def test_u64_read_through(self):
        heap = NVMHeap(1 << 14)
        heap.store_u64(0x200, 777)
        shadow = ShadowHeap(heap)
        assert shadow.load_u64(0x200) == 777


class TestWriteBuffering:
    def test_writes_visible_through_shadow(self):
        shadow = ShadowHeap(NVMHeap(1 << 14))
        shadow.store_u64(0x100, 42)
        assert shadow.load_u64(0x100) == 42

    def test_writes_never_reach_real_memory(self):
        heap = NVMHeap(1 << 14)
        shadow = ShadowHeap(heap)
        shadow.store_u64(0x100, 42)
        assert heap.load_u64(0x100) == 0

    def test_partial_overlay_read(self):
        heap = _heap_with_pattern()
        shadow = ShadowHeap(heap)
        shadow.store_bytes(0x104, b"\xff\xff")
        data = shadow.load_bytes(0x100, 8)
        assert data == bytes([0, 1, 2, 3, 0xFF, 0xFF, 6, 7])

    def test_i64_round_trip(self):
        shadow = ShadowHeap(NVMHeap(1 << 14))
        shadow.store_i64(0x100, -5)
        assert shadow.load_i64(0x100) == -5

    def test_mixed_word_and_byte_writes(self):
        shadow = ShadowHeap(NVMHeap(1 << 14))
        shadow.store_u64(0x100, 0xAABBCCDDEEFF0011)
        shadow.store_bytes(0x103, b"\x00")
        value = shadow.load_u64(0x100)
        assert value == 0xAABBCCDD00FF0011


class TestWrittenBlocks:
    def test_blocks_tracked(self):
        shadow = ShadowHeap(NVMHeap(1 << 14))
        shadow.store_u64(0x104, 1)
        shadow.store_u64(0x244, 1)
        assert shadow.written_blocks == {0x100, 0x240}

    def test_straddling_write_tracks_both_blocks(self):
        shadow = ShadowHeap(NVMHeap(1 << 14))
        shadow.store_bytes(0x13C, bytes(8))  # crosses 0x100 -> 0x140
        assert shadow.written_blocks == {0x100, 0x140}

    def test_reads_do_not_track(self):
        shadow = ShadowHeap(_heap_with_pattern())
        shadow.load_bytes(0x100, 64)
        assert shadow.written_blocks == set()


class TestCopyOnWrite:
    def test_straddling_write_reads_back(self):
        heap = _heap_with_pattern()
        shadow = ShadowHeap(heap)
        shadow.store_bytes(0x13C, b"\xaa" * 8)  # 0x13C..0x143
        assert shadow.load_bytes(0x138, 16) == (
            bytes([0x38, 0x39, 0x3A, 0x3B]) + b"\xaa" * 8 + bytes(4)
        )
        assert heap.raw_read(0x13C, 8) == bytes([0x3C, 0x3D, 0x3E, 0x3F, 0, 0, 0, 0])

    def test_straddling_word(self):
        shadow = ShadowHeap(NVMHeap(1 << 14))
        shadow.store_u64(0x13C, 0x1122334455667788)
        assert shadow.load_u64(0x13C) == 0x1122334455667788
        assert shadow.load_bytes(0x140, 4) == bytes([0x44, 0x33, 0x22, 0x11])
        assert shadow.written_blocks == {0x100, 0x140}

    def test_read_across_written_and_unwritten_blocks(self):
        heap = NVMHeap(1 << 14)
        heap.raw_write(0x100, b"\x01" * 192)
        shadow = ShadowHeap(heap)
        shadow.store_u64(0x140, 0)
        assert shadow.load_bytes(0x138, 80) == b"\x01" * 8 + bytes(8) + b"\x01" * 64

    def test_write_to_block_zero(self):
        heap = NVMHeap(1 << 14)
        shadow = ShadowHeap(heap)
        shadow.store_u64(8, 5)
        assert shadow.load_u64(8) == 5
        assert shadow.written_blocks == {0}
        assert heap.load_u64(8) == 0

    @pytest.mark.parametrize("addr", [0, -8, (1 << 14) - 4, 1 << 14])
    def test_out_of_range_raises_like_the_heap(self, addr):
        heap = NVMHeap(1 << 14)
        shadow = ShadowHeap(heap)
        for access in (
            lambda target: target.load_u64(addr),
            lambda target: target.store_u64(addr, 1),
            lambda target: target.load_bytes(addr, 8),
            lambda target: target.store_bytes(addr, bytes(8)),
        ):
            with pytest.raises(IndexError):
                access(heap)
            with pytest.raises(IndexError):
                access(shadow)
        assert shadow.written_blocks == set()

    def test_last_word_in_range(self):
        heap = NVMHeap(1 << 14)
        shadow = ShadowHeap(heap)
        shadow.store_u64(heap.size - 8, 9)
        assert shadow.load_u64(heap.size - 8) == 9
        assert shadow.written_blocks == {heap.size - CACHE_BLOCK}

    def test_first_write_copies_the_block(self):
        heap = _heap_with_pattern()
        shadow = ShadowHeap(heap)
        shadow.store_bytes(0x120, b"\x00")
        assert shadow.load_bytes(0x100, 64) == bytes(range(32)) + b"\x00" + bytes(range(33, 64))
        assert shadow.written_blocks == {0x100}

    def test_reads_return_bytes(self):
        shadow = ShadowHeap(_heap_with_pattern())
        assert type(shadow.load_bytes(0x100, 8)) is bytes
        shadow.store_u64(0x100, 1)
        assert type(shadow.load_bytes(0x100, 8)) is bytes
        assert type(shadow.raw_read(0x0F8, 16)) is bytes


class TestAgainstRealHeap:
    """Property: a sequence of writes applied to both a real heap and a
    shadow produces identical reads at every probed address."""

    @given(
        writes=st.lists(
            st.tuples(
                st.integers(min_value=8, max_value=0x3F0),
                st.integers(min_value=0, max_value=(1 << 64) - 1),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_shadow_matches_real_heap(self, writes):
        real = NVMHeap(1 << 12)
        backing = NVMHeap(1 << 12)
        shadow = ShadowHeap(backing)
        for addr, value in writes:
            real.store_u64(addr, value)
            shadow.store_u64(addr, value)
        for addr in {a for a, _ in writes}:
            assert shadow.load_u64(addr) == real.load_u64(addr)

    @given(
        writes=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=0x3F0),
                st.binary(min_size=1, max_size=0x90),
            ),
            max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_byte_writes_match_real_heap(self, writes):
        real = NVMHeap(1 << 12)
        backing = NVMHeap(1 << 12)
        shadow = ShadowHeap(backing)
        touched = set()
        for addr, payload in writes:
            payload = payload[: real.size - addr]
            real.store_bytes(addr, payload)
            shadow.store_bytes(addr, payload)
            first, last = addr & ~63, (addr + len(payload) - 1) & ~63
            touched.update(range(first, last + CACHE_BLOCK, CACHE_BLOCK))
        assert shadow.load_bytes(1, real.size - 1) == real.load_bytes(1, real.size - 1)
        assert shadow.written_blocks == touched
        assert backing.snapshot() == bytes(backing.size)
