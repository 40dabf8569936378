"""Property: no corrupted cache entry ever resurfaces as wrong data.

The supervisor's chaos mode (and real torn writes / bit rot) can damage
any byte of a stored entry.  The contract of the cache layer is total:
for *any* truncation or byte flip of a stored RPTR2 trace or stats
record, a load either returns the original value exactly or drops the
entry via ``_drop_corrupt`` and reports a miss — never a different
value, never an unhandled exception.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.harness import cache
from repro.harness.runner import TraceKey, build_trace, clear_trace_cache, run_variant
from repro.txn.modes import PersistMode
from repro.uarch.config import MachineConfig

SMALL = dict(init_ops=40, sim_ops=4)
KEY = TraceKey("LL", PersistMode.BASE, 7, 40, 4)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(cache.ENV_CACHE_DIR, str(tmp_path / "cache"))
    monkeypatch.delenv(cache.ENV_NO_CACHE, raising=False)
    cache.reset_runtime_disable()
    clear_trace_cache()
    yield
    clear_trace_cache()
    cache.reset_runtime_disable()


def _stored_trace_bytes():
    trace = build_trace("LL", PersistMode.BASE, **SMALL)
    path = cache.trace_path(KEY)
    return trace, path, path.read_bytes()


class TestTraceCorruptionIsTotal:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_truncation_loads_right_or_drops(self, data):
        original, path, blob = _stored_trace_bytes()
        clear_trace_cache()
        cut = data.draw(st.integers(0, len(blob) - 1))
        path.write_bytes(blob[:cut])
        loaded = cache.load_cached_trace(KEY)
        if loaded is None:
            assert not path.exists(), "corrupt entry must be dropped"
        else:
            assert list(loaded) == list(original)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_byte_flip_loads_right_or_drops(self, data):
        original, path, blob = _stored_trace_bytes()
        clear_trace_cache()
        mutated = bytearray(blob)
        index = data.draw(st.integers(0, len(blob) - 1))
        flip = data.draw(st.integers(1, 255))
        mutated[index] ^= flip
        path.write_bytes(bytes(mutated))
        loaded = cache.load_cached_trace(KEY)
        if loaded is None:
            assert not path.exists()
        else:
            assert list(loaded) == list(original)
            assert [i.meta for i in loaded] == [i.meta for i in original]

    def test_dropped_entry_is_counted_and_regenerated(self):
        _original, path, blob = _stored_trace_bytes()
        clear_trace_cache()
        path.write_bytes(blob[: len(blob) // 2])
        before = cache.cache_counters().corrupt_dropped
        assert cache.load_cached_trace(KEY) is None
        assert cache.cache_counters().corrupt_dropped == before + 1
        # the miss self-heals: the next build regenerates and re-stores
        rebuilt = build_trace("LL", PersistMode.BASE, **SMALL)
        assert path.exists()
        assert len(rebuilt) > 0


class TestStatsCorruptionIsTotal:
    def _stored_stats(self):
        stats = run_variant("LL", PersistMode.BASE, **SMALL)
        path = cache.stats_path(KEY, MachineConfig())
        return stats, path, path.read_bytes()

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_corruption_loads_right_or_drops(self, data):
        original, path, blob = self._stored_stats()
        clear_trace_cache()
        mutated = bytearray(blob)
        if data.draw(st.booleans()):
            mutated = mutated[: data.draw(st.integers(0, len(blob) - 1))]
        else:
            mutated[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(
                st.integers(1, 255)
            )
        path.write_bytes(bytes(mutated))
        loaded = cache.load_cached_stats(KEY, MachineConfig())
        if loaded is None:
            assert not path.exists()
        else:
            assert loaded == original

    def test_flipped_counter_digit_is_rejected(self):
        # the classic silent-corruption case: valid JSON, wrong numbers —
        # only the CRC envelope catches it
        original, path, blob = self._stored_stats()
        envelope = json.loads(blob)
        envelope["record"]["cycles"] += 1
        path.write_text(json.dumps(envelope))
        assert cache.load_cached_stats(KEY, MachineConfig()) is None
        assert not path.exists()
        assert original.cycles > 0

    def test_legacy_flat_record_is_dropped(self):
        # a bare record without the CRC envelope cannot be verified: it
        # is a corrupt entry, dropped and counted as a miss
        original, path, _blob = self._stored_stats()
        path.write_text(json.dumps(cache.stats_record(original)))
        before = cache.cache_counters()
        assert cache.load_cached_stats(KEY, MachineConfig()) is None
        assert not path.exists()
        after = cache.cache_counters()
        assert after.corrupt_dropped == before.corrupt_dropped + 1
        assert after.stats_misses == before.stats_misses + 1
        assert after.stats_hits == before.stats_hits
