"""The telemetry registry: no-op when disabled, exact when enabled,
published into by the kernel/pipeline/cache layers, folded into the
metrics snapshot."""

import pytest

from repro.obs import telemetry


@pytest.fixture(autouse=True)
def _clean_registry():
    telemetry.reset(enabled_after=False)
    yield
    telemetry.reset(enabled_after=False)


class TestRegistry:
    def test_disabled_by_default_and_drops_everything(self):
        assert not telemetry.enabled()
        telemetry.counter_inc("a")
        telemetry.gauge_set("b", 3)
        telemetry.observe("c", 1.5)
        snap = telemetry.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["histograms"] == {}

    def test_counters_accumulate_floats_allowed(self):
        telemetry.set_enabled(True)
        telemetry.counter_inc("runs")
        telemetry.counter_inc("runs")
        telemetry.counter_inc("seconds", 0.25)
        telemetry.counter_inc("seconds", 0.5)
        snap = telemetry.snapshot()
        assert snap["counters"]["runs"] == 2
        assert snap["counters"]["seconds"] == 0.75

    def test_gauges_last_write_wins(self):
        telemetry.set_enabled(True)
        telemetry.gauge_set("jobs", 4)
        telemetry.gauge_set("jobs", 7)
        assert telemetry.snapshot()["gauges"]["jobs"] == 7

    def test_histogram_summary(self):
        telemetry.set_enabled(True)
        for value in (10, 30, 20):
            telemetry.observe("cycles", value)
        summary = telemetry.snapshot()["histograms"]["cycles"]
        assert summary == {
            "count": 3, "sum": 60, "min": 10, "max": 30, "mean": 20,
        }

    def test_reset_honours_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        telemetry.reset()
        assert telemetry.enabled()
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        telemetry.reset()
        assert not telemetry.enabled()


class TestPublishers:
    def test_pipeline_and_kernel_publish_when_enabled(self):
        from repro.isa.instr import Instr
        from repro.isa.ops import Op
        from repro.isa.trace import Trace
        from repro.uarch.config import MachineConfig
        from repro.uarch.kernel import numpy_available
        from repro.uarch.pipeline import simulate

        telemetry.set_enabled(True)
        # a long load-bearing batch, so the numpy kernel (when active)
        # actually runs its classify/solve phases rather than the
        # compute-only closed form
        instrs = []
        for i in range(3000):
            instrs.append(Instr(Op.LOAD, 0x10000 + (i * 64) % 32768))
            instrs.append(Instr(Op.ALU))
        stats = simulate(Trace(instrs), MachineConfig())
        counters = telemetry.snapshot()["counters"]
        assert counters["pipeline.runs"] == 1
        assert counters["pipeline.instructions"] == stats.instructions
        if numpy_available():
            assert counters["kernel.batches"] >= 1
            assert counters["kernel.classify_seconds"] > 0

    def test_simulation_results_identical_with_telemetry_on(self):
        from repro.isa.instr import Instr
        from repro.isa.ops import Op
        from repro.isa.trace import Trace
        from repro.uarch.config import MachineConfig
        from repro.uarch.pipeline import simulate

        instrs = [Instr(Op.ALU)] * 64 + [
            Instr(Op.STORE, 0x2000), Instr(Op.CLWB, 0x2000),
            Instr(Op.SFENCE), Instr(Op.PCOMMIT), Instr(Op.SFENCE),
        ]
        off = simulate(Trace(instrs), MachineConfig())
        telemetry.set_enabled(True)
        on = simulate(Trace(instrs), MachineConfig())
        assert off.as_dict() == on.as_dict()

    def test_cache_traffic_published(self, tmp_path, monkeypatch):
        from repro.harness import cache as disk_cache
        from repro.harness.runner import TraceKey
        from repro.isa.instr import Instr
        from repro.isa.ops import Op
        from repro.isa.trace import Trace
        from repro.txn.modes import PersistMode

        monkeypatch.setenv(disk_cache.ENV_CACHE_DIR, str(tmp_path))
        telemetry.set_enabled(True)
        key = TraceKey("LL", PersistMode.BASE, 0)
        assert disk_cache.load_cached_trace(key) is None
        disk_cache.store_trace(key, Trace([Instr(Op.ALU)]))
        assert disk_cache.load_cached_trace(key) is not None
        counters = telemetry.snapshot()["counters"]
        assert counters["cache.trace_misses"] == 1
        assert counters["cache.trace_stores"] == 1
        assert counters["cache.trace_hits"] == 1

    def test_metrics_snapshot_carries_registry(self):
        from repro.obs import metrics

        telemetry.set_enabled(True)
        telemetry.counter_inc("custom.probe", 3)
        snap = metrics.metrics_snapshot()
        assert snap["schema"] == 6
        assert snap["telemetry"]["counters"]["custom.probe"] == 3
        assert "system" in snap
