"""Regression: multi-core cells must never alias single-core cache
entries.

Before the key carried ``cores``/``contention``, a 2-core aggregate
stored under ``(abbrev, mode, seed, ops)`` would silently overwrite —
and later be served as — the single-core result for the same variant.
These tests pin the fixed keying at every layer: digest, disk path,
``peek_cached_stats``, and the run_* entry points.
"""

import gc
import weakref
from collections import namedtuple

import pytest

from repro.harness import cache, runner
from repro.harness.runner import (
    TraceKey,
    clear_trace_cache,
    peek_cached_stats,
    run_system,
    run_variant,
    system_result,
)
from repro.txn.modes import PersistMode
from repro.uarch.config import MachineConfig
from repro.workloads import concurrent

SMALL = dict(init_ops=24, sim_ops=8)
MODE = PersistMode.LOG_P_SF


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(cache.ENV_CACHE_DIR, str(tmp_path / "cache"))
    monkeypatch.delenv(cache.ENV_NO_CACHE, raising=False)
    cache.reset_runtime_disable()
    clear_trace_cache()
    yield
    clear_trace_cache()
    cache.reset_runtime_disable()


class TestKeying:
    def test_core_count_changes_digest(self):
        single = TraceKey("HM", MODE, 7)
        multi = TraceKey("HM", MODE, 7, cores=2)
        assert cache.trace_digest(single) != cache.trace_digest(multi)
        config = MachineConfig()
        assert cache.stats_digest(single, config) != cache.stats_digest(multi, config)

    def test_contention_changes_digest(self):
        a = TraceKey("HM", MODE, 7, cores=2, contention=0.0)
        b = TraceKey("HM", MODE, 7, cores=2, contention=0.9)
        assert cache.trace_digest(a) != cache.trace_digest(b)

    def test_default_fields_keep_legacy_digests(self):
        """Keys that predate the ``cores``/``contention`` fields (the
        supervisor's journals hold bare tuples) digest identically to
        new single-core keys, so old cache entries stay valid."""
        Legacy = namedtuple("Legacy", "abbrev mode seed init_ops sim_ops")
        legacy = Legacy("HM", MODE, 7, None, None)
        modern = TraceKey("HM", MODE, 7)
        assert cache.trace_digest(legacy) == cache.trace_digest(modern)


class TestNoAliasing:
    def test_system_and_variant_results_coexist(self):
        config = MachineConfig().with_sp(256)
        single = run_variant("HM", MODE, config, **SMALL)
        multi = run_system("HM", MODE, config, cores=2, contention=0.5, **SMALL)
        assert multi.extra["cores"] == 2
        # both survive in the cache under their own keys
        clear_trace_cache()
        single_key = TraceKey("HM", MODE, 7, SMALL["init_ops"], SMALL["sim_ops"])
        multi_key = TraceKey(
            "HM", MODE, 7, SMALL["init_ops"], SMALL["sim_ops"], 2, 0.5
        )
        peeked_single = peek_cached_stats(single_key, config)
        peeked_multi = peek_cached_stats(multi_key, config)
        assert peeked_single is not None and peeked_multi is not None
        assert peeked_single.as_dict() == single.as_dict()
        assert peeked_multi.as_dict() == multi.as_dict()
        assert "cores" not in peeked_single.extra

    def test_contention_cells_are_distinct_entries(self):
        config = MachineConfig().with_sp(256)
        calm = run_system("HM", MODE, config, cores=2, contention=0.0, **SMALL)
        hot = run_system("HM", MODE, config, cores=2, contention=1.0, **SMALL)
        assert hot.extra["conflict_aborts"] > calm.extra["conflict_aborts"]
        clear_trace_cache()
        for contention, fresh in ((0.0, calm), (1.0, hot)):
            key = TraceKey(
                "HM", MODE, 7, SMALL["init_ops"], SMALL["sim_ops"], 2, contention
            )
            peeked = peek_cached_stats(key, config)
            assert peeked is not None
            assert peeked.as_dict() == fresh.as_dict()

    def test_run_system_rejects_single_core(self):
        with pytest.raises(ValueError):
            run_system("HM", MODE, cores=1)


class TestConcurrentTraceMemo:
    """``system_result`` generates each concurrent run once for the two
    machines Figure 15 runs it on, and keeps nothing but the last run's
    per-core traces."""

    @pytest.fixture
    def generated(self, monkeypatch):
        runs = []
        real = concurrent.generate_concurrent

        def generate(*args, **kwargs):
            run = real(*args, **kwargs)
            runs.append(weakref.ref(run))
            return run

        monkeypatch.setattr(concurrent, "generate_concurrent", generate)
        return runs

    def test_two_machines_share_one_generation(self, generated):
        base = MachineConfig()
        sp = base.with_sp(256)
        stall = system_result("HM", MODE, base, cores=2, contention=0.5, **SMALL)
        spec = system_result("HM", MODE, sp, cores=2, contention=0.5, **SMALL)
        assert len(generated) == 1
        # the memo serves the same answers a fresh generation gives
        clear_trace_cache()
        again = system_result("HM", MODE, sp, cores=2, contention=0.5, **SMALL)
        assert len(generated) == 2
        assert [s.as_dict() for s in again.per_core] == [
            s.as_dict() for s in spec.per_core
        ]
        assert stall.cycles != spec.cycles

    def test_one_entry_and_no_heap(self, generated):
        config = MachineConfig()
        system_result("HM", MODE, config, cores=2, contention=0.0, **SMALL)
        system_result("HM", MODE, config, cores=2, contention=1.0, **SMALL)
        assert len(generated) == 2
        assert list(runner._SYSTEM_TRACES) == [
            TraceKey("HM", MODE, 7, SMALL["init_ops"], SMALL["sim_ops"], 2, 1.0)
        ]
        gc.collect()
        # neither run (nor its heap) outlives its co-simulation
        assert [ref() for ref in generated] == [None, None]
        clear_trace_cache()
        assert not runner._SYSTEM_TRACES
