"""Harness self-observability: variant records and cache counters."""

import json

import pytest

from repro.harness import cache as disk_cache
from repro.obs import metrics as obs_metrics


@pytest.fixture(autouse=True)
def _clean_metrics():
    obs_metrics.reset_metrics()
    disk_cache.reset_cache_counters()
    yield
    obs_metrics.reset_metrics()
    disk_cache.reset_cache_counters()


class TestVariantRecords:
    def test_record_and_summarize(self):
        obs_metrics.record_variant("trace", "BT/base", "generated", 1.5)
        obs_metrics.record_variant("sim", "BT/base", "simulated", 0.5)
        obs_metrics.record_variant("sim", "BT/log", "disk", 0.01, worker="pid:42")
        summary = obs_metrics.summarize()
        assert summary["records"] == 3
        assert summary["by_source"] == {
            "sim:disk": 1,
            "sim:simulated": 1,
            "trace:generated": 1,
        }
        assert summary["sim_wall_s"] == 0.51
        assert summary["trace_wall_s"] == 1.5
        assert set(summary["wall_by_worker"]) == {"main", "pid:42"}

    def test_reset(self):
        obs_metrics.record_variant("sim", "BT/base", "simulated", 0.5)
        obs_metrics.reset_metrics()
        assert obs_metrics.summarize()["records"] == 0

    def test_render_line_empty_is_none(self):
        assert obs_metrics.render_metrics_line() is None

    def test_render_line_mentions_variants_and_cache(self):
        obs_metrics.record_variant("sim", "BT/base", "simulated", 0.5)
        line = obs_metrics.render_metrics_line()
        assert "1 simulated" in line
        assert "cache" in line


class TestCacheCounters:
    def test_counts_miss_then_hit(self, tmp_path, monkeypatch):
        monkeypatch.setenv(disk_cache.ENV_CACHE_DIR, str(tmp_path))
        monkeypatch.delenv(disk_cache.ENV_NO_CACHE, raising=False)
        from repro.harness.runner import TraceKey
        from repro.stats.run import RunStats
        from repro.txn.modes import PersistMode
        from repro.uarch.config import MachineConfig

        key = TraceKey("BT", PersistMode.BASE, 7)
        config = MachineConfig()
        assert disk_cache.load_cached_stats(key, config) is None
        disk_cache.store_stats(key, config, RunStats(cycles=9))
        assert disk_cache.load_cached_stats(key, config).cycles == 9
        counters = disk_cache.cache_counters()
        assert counters.stats_misses == 1
        assert counters.stats_hits == 1
        assert counters.stats_stores == 1
        assert counters.total() == 2

    def test_corrupt_entry_counted_and_dropped(self, tmp_path, monkeypatch):
        monkeypatch.setenv(disk_cache.ENV_CACHE_DIR, str(tmp_path))
        monkeypatch.delenv(disk_cache.ENV_NO_CACHE, raising=False)
        from repro.harness.runner import TraceKey
        from repro.txn.modes import PersistMode
        from repro.uarch.config import MachineConfig

        key = TraceKey("BT", PersistMode.BASE, 7)
        config = MachineConfig()
        path = disk_cache.stats_path(key, config)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("not json {")
        assert disk_cache.load_cached_stats(key, config) is None
        assert not path.exists()
        assert disk_cache.cache_counters().corrupt_dropped == 1

    def test_lifetime_counters_persist_and_survive_clear(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(disk_cache.ENV_CACHE_DIR, str(tmp_path))
        monkeypatch.delenv(disk_cache.ENV_NO_CACHE, raising=False)
        from repro.harness.runner import TraceKey
        from repro.stats.run import RunStats
        from repro.txn.modes import PersistMode
        from repro.uarch.config import MachineConfig

        key = TraceKey("BT", PersistMode.BASE, 7)
        disk_cache.store_stats(key, MachineConfig(), RunStats(cycles=1))
        disk_cache.persist_cache_counters()
        lifetime = disk_cache.lifetime_cache_counters()
        assert lifetime["stats_stores"] == 1
        # persisting again without new traffic adds nothing
        disk_cache.persist_cache_counters()
        assert disk_cache.lifetime_cache_counters()["stats_stores"] == 1
        # clearing entries keeps the lifetime metrics file
        disk_cache.clear_cache()
        assert disk_cache.lifetime_cache_counters()["stats_stores"] == 1

    def test_metrics_snapshot_and_write(self, tmp_path, monkeypatch):
        monkeypatch.setenv(disk_cache.ENV_CACHE_DIR, str(tmp_path / "cache"))
        monkeypatch.delenv(disk_cache.ENV_NO_CACHE, raising=False)
        obs_metrics.record_variant("sim", "BT/base", "simulated", 0.25)
        out = tmp_path / "metrics.json"
        obs_metrics.write_metrics(out)
        payload = json.loads(out.read_text())
        assert payload["schema"] == 6  # v6 dropped the transport block
        assert "transport" not in payload
        assert payload["kernel_backend"] in ("python", "numpy")
        assert payload["summary"]["records"] == 1
        assert payload["variants"][0]["label"] == "BT/base"
        assert "cache_session" in payload
        assert "supervisor" in payload


class TestCacheInfoBreakdown:
    def test_kind_breakdown(self, tmp_path, monkeypatch):
        monkeypatch.setenv(disk_cache.ENV_CACHE_DIR, str(tmp_path))
        monkeypatch.delenv(disk_cache.ENV_NO_CACHE, raising=False)
        from repro.harness.runner import TraceKey, generate_trace
        from repro.stats.run import RunStats
        from repro.txn.modes import PersistMode
        from repro.uarch.config import MachineConfig

        key = TraceKey("LL", PersistMode.BASE, 7, 40, 10)
        trace = generate_trace(key)
        disk_cache.store_trace(key, trace)
        disk_cache.store_stats(key, MachineConfig(), RunStats(cycles=1))
        info = disk_cache.cache_info()
        assert info["traces"] == 1 and info["stats"] == 1
        assert info["traces_rptr2"] == 1 and info["traces_rptr1"] == 0
        assert info["trace_bytes"] > 0 and info["stats_bytes"] > 0
        assert info["bytes"] == info["trace_bytes"] + info["stats_bytes"]
        assert info["counters_session"]["trace_stores"] == 1
