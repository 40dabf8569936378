"""The telemetry registry: always on, exact, published into by the
kernel/pipeline/cache layers, written whole as the metrics snapshot's
``counters`` block."""

import pytest

from repro.obs import metrics as obs_metrics
from repro.obs import telemetry


@pytest.fixture(autouse=True)
def _clean_registry():
    obs_metrics.reset_metrics()
    yield
    obs_metrics.reset_metrics()


class TestRegistry:
    def test_always_on_and_reset_drops_everything(self):
        telemetry.counter_inc("a")
        telemetry.gauge_set("b", 3)
        telemetry.observe("c", 1.5)
        assert set(telemetry.snapshot()) == {"a", "b", "c"}
        telemetry.reset()
        assert telemetry.snapshot() == {}
        assert telemetry.get("a") == 0

    def test_counters_accumulate_floats_allowed(self):
        telemetry.counter_inc("runs")
        telemetry.counter_inc("runs")
        telemetry.counter_inc("seconds", 0.25)
        telemetry.counter_inc("seconds", 0.5)
        snap = telemetry.snapshot()
        assert snap["runs"] == 2
        assert snap["seconds"] == 0.75

    def test_gauges_last_write_wins(self):
        telemetry.gauge_set("jobs", 4)
        telemetry.gauge_set("jobs", 7)
        assert telemetry.snapshot()["jobs"] == 7

    def test_histogram_summary(self):
        for value in (10, 30, 20):
            telemetry.observe("cycles", value)
        summary = telemetry.snapshot()["cycles"]
        assert summary == {
            "count": 3, "sum": 60, "min": 10, "max": 30, "mean": 20,
        }

    def test_merge_adds_another_registry(self):
        """A pool worker's snapshot of one task, added to the parent."""
        telemetry.counter_inc("runs", 2)
        telemetry.observe("cycles", 50)
        telemetry.merge({
            "runs": 1, "new": 0.5,
            "cycles": {"count": 2, "sum": 100, "min": 10, "max": 90, "mean": 50},
            "fresh": {"count": 1, "sum": 7, "min": 7, "max": 7, "mean": 7},
        })
        snap = telemetry.snapshot()
        assert (snap["runs"], snap["new"]) == (3, 0.5)
        assert snap["cycles"] == {"count": 3, "sum": 150, "min": 10, "max": 90, "mean": 50}
        assert snap["fresh"] == {"count": 1, "sum": 7, "min": 7, "max": 7, "mean": 7}
        telemetry.reset()
        telemetry.merge(snap)
        assert telemetry.snapshot() == snap

    def test_retired_env_switch_is_ignored(self, monkeypatch):
        # REPRO_TELEMETRY used to switch the registry off; it is retired
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        telemetry.reset()
        telemetry.counter_inc("runs")
        assert telemetry.get("runs") == 1


class TestPublishers:
    def test_pipeline_and_kernel_publish_when_enabled(self):
        from repro.isa.instr import Instr
        from repro.isa.ops import Op
        from repro.isa.trace import Trace
        from repro.uarch.config import MachineConfig
        from repro.uarch.kernel import numpy_available
        from repro.uarch.pipeline import simulate

        # a long load-bearing batch, so the numpy kernel (when active)
        # actually runs its classify/solve phases rather than the
        # compute-only closed form
        instrs = []
        for i in range(3000):
            instrs.append(Instr(Op.LOAD, 0x10000 + (i * 64) % 32768))
            instrs.append(Instr(Op.ALU))
        stats = simulate(Trace(instrs), MachineConfig())
        counters = telemetry.snapshot()
        assert counters["pipeline.runs"] == 1
        assert counters["pipeline.instructions"] == stats.instructions
        if numpy_available():
            assert counters["kernel.batches"] >= 1
            assert counters["kernel.classify_seconds"] > 0

    def test_path_counters_split_every_instruction(self):
        """``pipeline.path.*`` splits each run's instructions by engine
        path; a traced run takes the exact loop and steps them all."""
        from repro.isa.instr import Instr
        from repro.isa.ops import Op
        from repro.isa.trace import Trace
        from repro.obs.tracer import SpanTracer
        from repro.uarch.config import MachineConfig
        from repro.uarch.pipeline import PATHS, simulate

        instrs = []
        for i in range(20):
            instrs += [Instr(Op.ALU)] * 30 + [
                Instr(Op.STORE, 0x2000 + 64 * i, meta="log"),
                Instr(Op.CLWB, 0x2000 + 64 * i),
                Instr(Op.LOAD, 0x9000 + 64 * i),
                Instr(Op.SFENCE), Instr(Op.PCOMMIT), Instr(Op.SFENCE),
            ]
        trace = Trace(instrs)
        config = MachineConfig().with_sp(256)
        stats = simulate(trace, config)
        counts = [telemetry.get(name) for name in PATHS]
        assert sum(counts) == stats.instructions
        telemetry.reset()
        traced = simulate(trace, config, tracer=SpanTracer())
        kernel, walker, step, step_spec = (telemetry.get(name) for name in PATHS)
        assert kernel == walker == 0
        assert step + step_spec == traced.instructions
        assert step_spec > 0

    def test_system_driver_publishes_units(self):
        """Each system run publishes the instructions its cores retired
        per engine path (replays included) and its scheduling turns."""
        from repro.isa.instr import Instr
        from repro.isa.ops import Op
        from repro.isa.trace import Trace
        from repro.obs.tracer import SystemTracer
        from repro.uarch.config import MachineConfig
        from repro.uarch.system import PATHS, simulate_system

        trace = Trace([Instr(Op.ALU)] * 8 + [Instr(Op.LOAD, 0x4000)])
        result = simulate_system([trace, trace], MachineConfig())
        counts = [telemetry.get(name) for name in PATHS]
        assert sum(counts) == sum(s.instructions for s in result.per_core) == 18
        # without SP each core runs its whole trace as one stretch
        assert telemetry.get("system.stretches") == 2
        telemetry.reset()
        # the per-unit oracle: per core one compute run, then the load
        simulate_system([trace, trace], MachineConfig(), system_tracer=SystemTracer(2))
        kernel, walker, step, step_spec = (telemetry.get(name) for name in PATHS)
        assert (kernel, walker, step, step_spec) == (0, 0, 18, 0)
        assert telemetry.get("system.stretches") == 4

    def test_simulation_results_identical_with_telemetry_on(self):
        """Simulated results never depend on what the registry holds."""
        from repro.isa.instr import Instr
        from repro.isa.ops import Op
        from repro.isa.trace import Trace
        from repro.uarch.config import MachineConfig
        from repro.uarch.pipeline import simulate

        instrs = [Instr(Op.ALU)] * 64 + [
            Instr(Op.STORE, 0x2000), Instr(Op.CLWB, 0x2000),
            Instr(Op.SFENCE), Instr(Op.PCOMMIT), Instr(Op.SFENCE),
        ]
        fresh = simulate(Trace(instrs), MachineConfig())
        telemetry.counter_inc("pipeline.runs", 1000)
        telemetry.counter_inc("kernel.classify_seconds", 5.0)
        again = simulate(Trace(instrs), MachineConfig())
        assert fresh.as_dict() == again.as_dict()

    def test_cache_traffic_published(self, tmp_path, monkeypatch):
        from repro.harness import cache as disk_cache
        from repro.harness.runner import TraceKey
        from repro.isa.instr import Instr
        from repro.isa.ops import Op
        from repro.isa.trace import Trace
        from repro.txn.modes import PersistMode

        monkeypatch.setenv(disk_cache.ENV_CACHE_DIR, str(tmp_path))
        key = TraceKey("LL", PersistMode.BASE, 0)
        assert disk_cache.load_cached_trace(key) is None
        disk_cache.store_trace(key, Trace([Instr(Op.ALU)]))
        assert disk_cache.load_cached_trace(key) is not None
        counters = telemetry.snapshot()
        assert counters["cache.trace_misses"] == 1
        assert counters["cache.trace_stores"] == 1
        assert counters["cache.trace_hits"] == 1
        # the session view is built from the same registry counters
        assert disk_cache.cache_counters().as_dict() == {
            "trace_hits": 1, "trace_misses": 1, "stats_hits": 0,
            "stats_misses": 0, "trace_stores": 1, "stats_stores": 0,
            "corrupt_dropped": 0,
        }

    def test_metrics_snapshot_carries_registry(self):
        from repro.obs import metrics

        telemetry.counter_inc("custom.probe", 3)
        snap = metrics.metrics_snapshot()
        assert snap["schema"] == 8
        assert snap["counters"]["custom.probe"] == 3
        # one counters block: the retired per-store blocks are gone
        for retired in ("cache_session", "supervisor", "system", "telemetry"):
            assert retired not in snap
