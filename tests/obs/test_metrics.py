"""Harness self-observability: variant records and the views of the
telemetry registry (cache counters, kernel phases, ``--metrics-out``)."""

import json

import pytest

from repro.harness import cache as disk_cache
from repro.obs import metrics as obs_metrics
from repro.obs import telemetry


@pytest.fixture(autouse=True)
def _clean_metrics():
    obs_metrics.reset_metrics()
    yield
    obs_metrics.reset_metrics()


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
        assert payload["schema"] == 7  # v7: one registry counters block
        assert set(payload) == {
            "schema", "kernel_backend", "counters", "cache_lifetime",
            "summary", "variants",
        }
        assert payload["kernel_backend"] in ("python", "numpy")
        assert payload["summary"]["records"] == 1
        assert payload["variants"][0]["label"] == "BT/base"

    def test_one_reset_never_lowers_lifetime_totals(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(disk_cache.ENV_CACHE_DIR, str(tmp_path))
        monkeypatch.delenv(disk_cache.ENV_NO_CACHE, raising=False)
        from repro.harness.runner import TraceKey
        from repro.stats.run import RunStats
        from repro.txn.modes import PersistMode
        from repro.uarch.config import MachineConfig

        config = MachineConfig()
        for seed in (1, 2, 3):
            key = TraceKey("BT", PersistMode.BASE, seed)
            disk_cache.store_stats(key, config, RunStats(cycles=seed))
        disk_cache.persist_cache_counters()
        assert disk_cache.lifetime_cache_counters()["stats_stores"] == 3
        # the reset restarts the session counts and the persisted
        # baseline together: new traffic adds on top, nothing is undone
        obs_metrics.reset_metrics()
        disk_cache.persist_cache_counters()
        assert disk_cache.lifetime_cache_counters()["stats_stores"] == 3
        disk_cache.store_stats(
            TraceKey("BT", PersistMode.BASE, 4), config, RunStats(cycles=4)
        )
        disk_cache.persist_cache_counters()
        assert disk_cache.lifetime_cache_counters()["stats_stores"] == 4
        # a bare registry reset (no baseline reset) still never subtracts
        telemetry.reset()
        disk_cache.persist_cache_counters()
        assert disk_cache.lifetime_cache_counters()["stats_stores"] == 4


class TestReadViews:
    """The shapes external readers (the wall-clock bench) rely on."""

    def test_cache_counters_keep_their_seven_fields(self):
        counters = disk_cache.cache_counters()
        assert list(counters.as_dict()) == [
            "trace_hits", "trace_misses", "stats_hits", "stats_misses",
            "trace_stores", "stats_stores", "corrupt_dropped",
        ]
        assert counters.stats_stores == 0
        assert (counters.hits(), counters.misses(), counters.total()) == (
            0, 0, 0,
        )

    def test_kernel_phase_seconds_has_classify_and_solve(self):
        from repro.uarch import kernel

        assert kernel.phase_seconds() == {"classify": 0.0, "solve": 0.0}
        telemetry.counter_inc("kernel.solve_seconds", 0.5)
        assert kernel.phase_seconds() == {"classify": 0.0, "solve": 0.5}

    def test_metrics_out_carries_counters_without_opt_in(
        self, tmp_path, monkeypatch, capsys
    ):
        """The registry is on for a plain ``--metrics-out`` run: nothing
        in the environment has to switch it on."""
        from repro.cli import main
        from repro.harness import parallel
        from repro.harness.runner import clear_trace_cache
        from repro.uarch.kernel import numpy_available

        # --jobs sets a process-wide default; restore it afterwards
        monkeypatch.setattr(parallel, "_default_jobs", parallel._default_jobs)
        monkeypatch.setenv(disk_cache.ENV_CACHE_DIR, str(tmp_path / "cache"))
        monkeypatch.delenv(disk_cache.ENV_NO_CACHE, raising=False)
        clear_trace_cache()
        out = tmp_path / "m.json"
        try:
            assert main([
                "figure", "8", "--benchmarks", "LL", "--jobs", "1",
                "--metrics-out", str(out),
            ]) == 0
        finally:
            clear_trace_cache()
        capsys.readouterr()
        counters = json.loads(out.read_text())["counters"]
        assert counters["pipeline.runs"] >= 1
        assert counters["cache.stats_stores"] >= 1
        if numpy_available():
            assert counters["kernel.batches"] >= 1


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
        assert info["trace_bytes"] > 0 and info["stats_bytes"] > 0
        assert info["bytes"] == info["trace_bytes"] + info["stats_bytes"]
        assert info["counters_session"]["trace_stores"] == 1
