"""Persistent on-disk cache (repro.harness.cache): cold/warm equivalence,
keying, invalidation, and env overrides."""

import json
import os
import time

import pytest

from repro.harness import cache
from repro.harness import runner, supervisor
from repro.harness.parallel import VariantJob, run_variants
from repro.harness.runner import TraceKey, build_trace, clear_trace_cache, run_variant
from repro.obs import metrics as obs_metrics
from repro.obs import telemetry
from repro.stats.run import RunStats
from repro.txn.modes import PersistMode
from repro.uarch.config import MachineConfig

SMALL = dict(init_ops=40, sim_ops=4)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(cache.ENV_CACHE_DIR, str(tmp_path / "cache"))
    monkeypatch.delenv(cache.ENV_NO_CACHE, raising=False)
    cache.reset_runtime_disable()
    clear_trace_cache()
    yield
    clear_trace_cache()
    cache.reset_runtime_disable()


def _no_generation(monkeypatch):
    """Fail on any trace generation: every path, ``generate_trace``
    included, generates through ``generate_traces``."""
    def boom(keys):
        raise AssertionError(f"unexpected trace generation for {keys}")

    monkeypatch.setattr(runner, "generate_traces", boom)


class TestColdWarmEquivalence:
    def test_stats_survive_process_cache_clear(self):
        cold = run_variant("LL", PersistMode.BASE, **SMALL)
        clear_trace_cache()
        warm = run_variant("LL", PersistMode.BASE, **SMALL)
        assert warm == cold
        assert warm is not cold

    def test_warm_run_reads_disk_only(self, monkeypatch):
        run_variant("LL", PersistMode.LOG_P_SF, **SMALL)
        clear_trace_cache()
        _no_generation(monkeypatch)
        # both the stats and (for a new config) the trace come from disk
        run_variant("LL", PersistMode.LOG_P_SF, **SMALL)
        run_variant(
            "LL", PersistMode.LOG_P_SF, MachineConfig().with_sp(256), **SMALL
        )

    def test_guard_catches_every_generation_path(self, monkeypatch):
        _no_generation(monkeypatch)
        with pytest.raises(AssertionError, match="unexpected trace generation"):
            build_trace("LL", PersistMode.BASE, **SMALL)
        jobs = [
            VariantJob("LL", mode, MachineConfig(), **SMALL) for mode in PersistMode
        ]
        with pytest.raises(AssertionError, match="unexpected trace generation"):
            run_variants(jobs, jobs=1)
        # the pool's trace task and its defensive regeneration
        key, root = jobs[0].trace_key, str(cache.cache_root())
        with pytest.raises(AssertionError, match="unexpected trace generation"):
            supervisor._do_work("trace", (key,), None, root)
        with pytest.raises(AssertionError, match="unexpected trace generation"):
            supervisor._do_work("sim", key, MachineConfig(), root)

    def test_warm_serial_campaign_touches_no_trace(self, monkeypatch):
        jobs = [
            VariantJob("LL", mode, MachineConfig(), **SMALL) for mode in PersistMode
        ]
        jobs.append(VariantJob("LL", PersistMode.LOG, MachineConfig(), **SMALL))
        cold = run_variants(jobs, jobs=1)
        clear_trace_cache()
        _no_generation(monkeypatch)
        before = cache.cache_counters()
        assert run_variants(jobs, jobs=1) == cold
        after = cache.cache_counters()
        assert (after.trace_hits, after.trace_misses) == (
            before.trace_hits, before.trace_misses
        )
        # the repeated cell is read from disk once, then from the memo
        assert after.stats_hits - before.stats_hits == len(PersistMode)

    def test_trace_loaded_from_disk(self, monkeypatch):
        cold = build_trace("LL", PersistMode.BASE, **SMALL)
        clear_trace_cache()
        _no_generation(monkeypatch)
        warm = build_trace("LL", PersistMode.BASE, **SMALL)
        assert warm is not cold
        assert list(warm) == list(cold)


class TestFamilyStore:
    """A miss generates the key's whole family once and stores every
    mode the store lacks; the memo holds only recordings (Log+P+Sf)."""

    def test_one_key_at_a_time_records_each_benchmark_once(self):
        obs_metrics.reset_metrics()
        recording = TraceKey("LL", PersistMode.LOG_P_SF, 7, **SMALL)
        for mode in PersistMode:
            build_trace("LL", mode, **SMALL)
            # the miss (Base) memoizes the recording it generated; the
            # projected modes are then read from the store, not memoized
            loaded = mode in (PersistMode.LOG, PersistMode.LOG_P)
            assert list(runner._TRACE_CACHE) == ([] if loaded else [recording])
            clear_trace_cache()
        assert telemetry.get("workloads.timed_runs") == 1
        assert telemetry.get("workloads.projected_traces") == 3
        counters = cache.cache_counters()
        assert (counters.trace_misses, counters.trace_hits) == (1, 3)
        assert counters.trace_stores == len(PersistMode)

    def test_stored_modes_are_neither_projected_nor_counted(self):
        keys = [TraceKey("LL", mode, 7, **SMALL) for mode in PersistMode]
        generated = runner.generate_traces(keys)
        cache.store_trace(keys[0], generated[0])
        obs_metrics.reset_metrics()
        trace = runner.store_family([keys[-1]])[keys[-1]]
        assert trace.columns() == generated[-1].columns()
        assert telemetry.get("workloads.projected_traces") == 2
        counters = cache.cache_counters()
        assert (counters.trace_misses, counters.trace_stores) == (0, 3)
        for key, expected in zip(keys, generated):
            assert cache.load_cached_trace(key).columns() == expected.columns()

    def test_no_store_times_each_benchmark_once(self, monkeypatch):
        """Without a store, the other modes are projected from the
        memoized recording."""
        monkeypatch.setenv(cache.ENV_NO_CACHE, "1")
        obs_metrics.reset_metrics()
        for mode in PersistMode:
            build_trace("LL", mode, **SMALL)
        assert telemetry.get("workloads.timed_runs") == 1
        assert telemetry.get("workloads.projected_traces") == 3

    def test_no_store_projects_only_the_asked_modes(self, monkeypatch):
        monkeypatch.setenv(cache.ENV_NO_CACHE, "1")
        obs_metrics.reset_metrics()
        build_trace("LL", PersistMode.LOG_P_SF, **SMALL)
        assert telemetry.get("workloads.timed_runs") == 1
        assert telemetry.get("workloads.projected_traces") == 0


class TestKeying:
    def test_config_change_invalidates(self):
        key = TraceKey("LL", PersistMode.BASE, 7, 40, 4)
        base = MachineConfig()
        other = MachineConfig(rob_entries=64)
        assert cache.stats_digest(key, base) != cache.stats_digest(key, other)
        run_variant("LL", PersistMode.BASE, base, **SMALL)
        clear_trace_cache()
        assert cache.load_cached_stats(key, base) is not None
        assert cache.load_cached_stats(key, other) is None

    def test_schema_bump_invalidates(self, monkeypatch):
        key = TraceKey("LL", PersistMode.BASE, 7, 40, 4)
        config = MachineConfig()
        run_variant("LL", PersistMode.BASE, config, **SMALL)
        assert cache.load_cached_stats(key, config) is not None
        assert cache.load_cached_trace(key) is not None
        monkeypatch.setattr(cache, "CACHE_SCHEMA_VERSION", cache.CACHE_SCHEMA_VERSION + 1)
        assert cache.load_cached_stats(key, config) is None
        assert cache.load_cached_trace(key) is None

    def test_seed_and_op_counts_key_traces(self):
        a = TraceKey("LL", PersistMode.BASE, 7, 40, 4)
        b = TraceKey("LL", PersistMode.BASE, 8, 40, 4)
        c = TraceKey("LL", PersistMode.BASE, 7, 41, 4)
        digests = {cache.trace_digest(k) for k in (a, b, c)}
        assert len(digests) == 3


class TestEnvOverrides:
    def test_no_cache_disables_everything(self, monkeypatch, tmp_path):
        monkeypatch.setenv(cache.ENV_NO_CACHE, "1")
        key = TraceKey("LL", PersistMode.BASE, 7, 40, 4)
        assert cache.cache_root() is None
        assert cache.store_trace(key, build_trace("LL", PersistMode.BASE, **SMALL)) is None
        assert cache.load_cached_trace(key) is None
        assert not (tmp_path / "cache").exists()

    def test_cache_dir_honoured(self, tmp_path):
        run_variant("LL", PersistMode.BASE, **SMALL)
        root = tmp_path / "cache"
        assert any((root / "traces").iterdir())
        assert any((root / "stats").iterdir())


class TestRobustness:
    def test_corrupt_trace_is_a_miss(self):
        key = TraceKey("LL", PersistMode.BASE, 7, 40, 4)
        build_trace("LL", PersistMode.BASE, **SMALL)
        path = cache.trace_path(key)
        path.write_bytes(b"not a trace")
        assert cache.load_cached_trace(key) is None
        assert not path.exists()  # corrupt entries are dropped

    def test_corrupt_stats_is_a_miss(self):
        key = TraceKey("LL", PersistMode.BASE, 7, 40, 4)
        config = MachineConfig()
        run_variant("LL", PersistMode.BASE, config, **SMALL)
        path = cache.stats_path(key, config)
        path.write_text("{broken")
        assert cache.load_cached_stats(key, config) is None

    def test_clear_cache_counts_files(self):
        # the one timed run stores the family's four traces
        run_variant("LL", PersistMode.BASE, **SMALL)
        info = cache.cache_info()
        assert info["traces"] == 4 and info["stats"] == 1
        assert cache.clear_cache() == 5
        assert cache.cache_info()["bytes"] == 0


class TestStaleTmpSweep:
    def _stale(self, root, sub, name, age_s=7200.0):
        path = root / sub / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"partial write")
        old = time.time() - age_s
        os.utime(path, (old, old))
        return path

    def test_sweep_removes_old_staging_files_only(self, tmp_path):
        run_variant("LL", PersistMode.BASE, **SMALL)
        root = tmp_path / "cache"
        stale = self._stale(root, "traces", "deadbeef.rptr.a1b2c3")
        fresh = root / "stats" / "cafef00d.json.x9y8z7"
        fresh.write_bytes(b"in-flight writer")
        removed = cache.sweep_stale_tmp(min_age_s=3600.0)
        assert removed == 1
        assert not stale.exists()
        assert fresh.exists()  # a live writer's staging file survives
        # finished entries (the family's four traces) are never touched
        assert cache.cache_info()["traces"] == 4

    def test_cache_info_sweeps_and_reports(self, tmp_path):
        run_variant("LL", PersistMode.BASE, **SMALL)
        root = tmp_path / "cache"
        self._stale(root, "traces", "feedface.rptr.q1w2e3")
        self._stale(root, "stats", "abc123.json.r4t5y6")
        info = cache.cache_info()
        assert info["stale_tmp_removed"] == 2
        assert info["traces"] == 4 and info["stats"] == 1

    def test_clear_cache_removes_tmp_regardless_of_age(self, tmp_path):
        run_variant("LL", PersistMode.BASE, **SMALL)
        root = tmp_path / "cache"
        fresh = root / "traces" / "deadbeef.rptr.zz11"
        fresh.write_bytes(b"just written")
        # the family's four traces + stats + staging file
        assert cache.clear_cache() == 6
        assert not fresh.exists()


class TestRuntimeDegrade:
    def test_write_failure_degrades_to_cache_off(self, monkeypatch, capsys):
        def no_space(path, writer):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cache, "_atomic_write", no_space)
        # the campaign itself must survive: simulation completes, only
        # the store is skipped
        stats = run_variant("LL", PersistMode.BASE, **SMALL)
        assert stats.cycles > 0
        assert cache.runtime_disabled() is not None
        assert "No space left" in cache.runtime_disabled()
        assert not cache.cache_enabled()
        assert cache.cache_root() is None
        err = capsys.readouterr().err
        assert err.count("cache write failed") == 1

    def test_degrade_reported_by_cache_info(self, monkeypatch):
        monkeypatch.setattr(
            cache, "_RUNTIME_DISABLED", "OSError: [Errno 28] fake"
        )
        info = cache.cache_info()
        assert info["degraded"] == "OSError: [Errno 28] fake"
        assert not info["enabled"]

    def test_reset_rearms_the_cache(self, monkeypatch):
        monkeypatch.setattr(cache, "_RUNTIME_DISABLED", "OSError: fake")
        assert not cache.cache_enabled()
        cache.reset_runtime_disable()
        assert cache.cache_enabled()
        run_variant("LL", PersistMode.BASE, **SMALL)
        assert cache.cache_info()["stats"] == 1


class TestRunStatsRoundTrip:
    def test_from_dict_ignores_derived_keys(self):
        stats = RunStats(cycles=100, instructions=250, clflushes=3)
        rebuilt = RunStats.from_dict(stats.as_dict())
        assert rebuilt == stats

    def test_disk_round_trip_preserves_every_counter(self):
        stats = run_variant("LL", PersistMode.LOG_P_SF, **SMALL)
        key = TraceKey("LL", PersistMode.LOG_P_SF, 7, 40, 4)
        clear_trace_cache()
        loaded = cache.load_cached_stats(key, MachineConfig())
        assert loaded == stats
        # the JSON envelope holds raw counters plus their checksum
        # (derived metrics are recomputed by RunStats properties)
        envelope = json.loads(cache.stats_path(key, MachineConfig()).read_text())
        record = envelope["record"]
        assert "ipc" not in record
        assert record["cycles"] == stats.cycles
        assert envelope["crc"] == cache._record_crc(record)
