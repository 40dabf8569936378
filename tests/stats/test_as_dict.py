"""RunStats.as_dict export (repro.stats.run)."""

from repro.stats.run import RunStats


class TestAsDict:
    def test_contains_all_counters(self):
        stats = RunStats(cycles=100, instructions=200, pcommits=4)
        data = stats.as_dict()
        assert data["cycles"] == 100
        assert data["instructions"] == 200
        assert data["pcommits"] == 4

    def test_contains_derived_metrics(self):
        stats = RunStats(cycles=100, instructions=200)
        data = stats.as_dict()
        assert data["ipc"] == 2.0
        assert "stores_per_pcommit" in data
        assert "bloom_false_positive_rate" in data

    def test_extra_merged(self):
        stats = RunStats()
        stats.extra["custom_metric"] = 3.5
        assert stats.as_dict()["custom_metric"] == 3.5

    def test_extra_key_not_duplicated(self):
        data = RunStats().as_dict()
        assert "extra" not in data

    def test_json_serialisable(self):
        import json

        json.dumps(RunStats(cycles=5).as_dict())

    def test_real_run_exports(self):
        from repro.isa.instr import Instr
        from repro.isa.ops import Op
        from repro.isa.trace import Trace
        from repro.uarch.config import MachineConfig
        from repro.uarch.pipeline import simulate

        stats = simulate(Trace([Instr(Op.LOAD, 0x1000)]), MachineConfig())
        data = stats.as_dict()
        assert data["loads"] == 1
        assert data["cycles"] > 0
