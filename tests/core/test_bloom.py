"""Bloom filter (repro.core.bloom)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bloom import BloomFilter


class TestBasics:
    def test_empty_filter_misses(self):
        bf = BloomFilter()
        assert not bf.maybe_contains(0x1000)

    def test_inserted_block_hits(self):
        bf = BloomFilter()
        bf.insert(0x1000)
        assert bf.maybe_contains(0x1000)

    def test_reset_clears_everything(self):
        bf = BloomFilter()
        for i in range(100):
            bf.insert(0x1000 + i * 64)
        bf.reset()
        assert not bf.maybe_contains(0x1000)
        assert bf.resets == 1

    def test_construction_validation(self):
        with pytest.raises(ValueError):
            BloomFilter(size_bytes=0)
        with pytest.raises(ValueError):
            BloomFilter(n_hashes=0)


class TestNoFalseNegatives:
    @given(
        blocks=st.lists(
            st.integers(min_value=0, max_value=1 << 40).map(lambda x: x & ~63),
            max_size=300,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_every_inserted_block_hits(self, blocks):
        bf = BloomFilter(512, 2)
        for block in blocks:
            bf.insert(block)
        for block in blocks:
            assert bf.maybe_contains(block)


class TestFalsePositives:
    def test_false_positive_rate_is_low_when_sparse(self):
        bf = BloomFilter(512, 2)
        for i in range(20):
            bf.insert(i * 64)
        false_hits = sum(
            bf.maybe_contains((1 << 30) + i * 64) for i in range(1000)
        )
        assert false_hits / 1000 < 0.05

    def test_false_positive_rate_rises_when_full(self):
        bf = BloomFilter(64, 2)  # deliberately tiny
        for i in range(2000):
            bf.insert(i * 64)
        false_hits = sum(
            bf.maybe_contains((1 << 30) + i * 64) for i in range(200)
        )
        assert false_hits / 200 > 0.5

    def test_recorded_false_positives(self):
        bf = BloomFilter()
        bf.insert(0x40)
        bf.maybe_contains(0x40)
        bf.record_false_positive()
        assert bf.false_positives == 1
        assert bf.false_positive_rate == 1.0

    def test_rate_zero_without_queries(self):
        assert BloomFilter().false_positive_rate == 0.0


class TestStats:
    def test_counters(self):
        bf = BloomFilter()
        bf.insert(0x40)
        bf.maybe_contains(0x40)
        bf.maybe_contains(0x80)
        assert bf.inserts == 1
        assert bf.queries == 2
        assert bf.hits >= 1

    def test_occupancy_monotone(self):
        bf = BloomFilter()
        before = bf.occupancy
        bf.insert(0x40)
        assert bf.occupancy > before


def reference_positions(block, size_bytes, n_hashes):
    """The filter's double hash, stated independently of
    ``BloomFilter._positions``: two 64-bit multiplicative mixes of the
    block address, bit ``i`` at ``((h1 + i*h2) >> 8) mod n_bits``."""
    h1 = (block * 0x9E3779B97F4A7C15) % 2**64
    h2 = ((block ^ (block >> 13)) * 0xC2B2AE3D27D4EB4F) % 2**64 | 1
    return [((h1 + i * h2) >> 8) % (size_bytes * 8) for i in range(n_hashes)]


class TestAgainstTheDoubleHash:
    """The memoised filter against a plain set of bit positions."""

    @pytest.mark.parametrize("n_hashes", [1, 2, 3, 4])
    @pytest.mark.parametrize("size_bytes", [1, 8, 64, 512, 4096])
    def test_bits_answers_and_counters(self, size_bytes, n_hashes):
        rng = random.Random(size_bytes * 10 + n_hashes)
        pool = [rng.getrandbits(40) & ~63 for _ in range(48)]
        bf = BloomFilter(size_bytes, n_hashes)
        bits = set()
        inserted = set()
        seen = set()
        counts = dict(inserts=0, queries=0, hits=0, false_positives=0, resets=0)
        for step in range(1500):
            # mostly blocks of a small pool (the repeats the memo serves),
            # some never seen before
            block = rng.choice(pool) if rng.random() < 0.8 else rng.getrandbits(40) & ~63
            if step % 250 == 249:
                bf.reset()
                bits.clear()
                inserted.clear()
                seen.clear()
                counts["resets"] += 1
                assert not any(bf._bits)
                assert bf._masks == {}
            elif rng.random() < 0.4:
                bf.insert(block)
                seen.add(block)
                bits.update(reference_positions(block, size_bytes, n_hashes))
                inserted.add(block)
                counts["inserts"] += 1
                expected = bytearray(size_bytes)
                for pos in bits:
                    expected[pos >> 3] |= 1 << (pos & 7)
                assert bf._bits == expected
            else:
                hit = all(
                    pos in bits
                    for pos in reference_positions(block, size_bytes, n_hashes)
                )
                assert bf.maybe_contains(block) is hit
                seen.add(block)
                counts["queries"] += 1
                counts["hits"] += hit
                if hit and block not in inserted:
                    bf.record_false_positive()
                    counts["false_positives"] += 1
            assert {name: getattr(bf, name) for name in counts} == counts
            # the memo holds exactly the blocks seen since the last reset
            assert bf._masks.keys() == seen

    def test_dropped_insert_still_a_false_negative(self):
        """``bloom-drop-bits`` drops every third insert's bits; a block
        whose masks the memo already holds (probed first) must still miss
        afterwards, so the no-false-negative invariant catches it."""
        from repro.validate.mutations import inject

        blocks = [(1 << 20) + i * 4096 for i in range(30)]
        bf = BloomFilter()
        for block in blocks:
            assert not bf.maybe_contains(block)  # fills the memo
        with inject("bloom-drop-bits"):
            for block in blocks:
                bf.insert(block)
        missed = [block for block in blocks if not bf.maybe_contains(block)]
        assert missed
        assert bf.inserts == len(blocks)
