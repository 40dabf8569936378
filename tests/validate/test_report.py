"""The validation report containers and their JSON serialisation."""

import json

from repro.validate.report import CheckResult, EngineReport, ValidationReport


class TestEngineReport:
    def test_add_records_seed_and_context(self):
        report = EngineReport(engine="demo", seed=42)
        check = report.add("prop/a", True, abbrev="HM", mode="log+p+sf")
        assert check.seed == 42
        assert check.context == {"abbrev": "HM", "mode": "log+p+sf"}
        assert report.ok

    def test_explicit_seed_overrides_engine_seed(self):
        report = EngineReport(engine="demo", seed=42)
        check = report.add("prop/b", True, seed=7)
        assert check.seed == 7

    def test_failures_filtered(self):
        report = EngineReport(engine="demo", seed=0)
        report.add("good", True)
        report.add("bad", False, detail="boom")
        assert not report.ok
        assert [c.name for c in report.failures] == ["bad"]

    def test_as_dict_counts(self):
        report = EngineReport(engine="demo", seed=0, params={"n": 3})
        report.add("good", True)
        report.add("bad", False)
        data = report.as_dict()
        assert data["n_checks"] == 2
        assert data["n_failures"] == 1
        assert data["params"] == {"n": 3}


class TestValidationReport:
    def _populated(self) -> ValidationReport:
        report = ValidationReport(seed=5, quick=True)
        engine = EngineReport(engine="demo", seed=5)
        engine.add("prop", True)
        report.engines["demo"] = engine
        return report

    def test_empty_report_is_not_ok(self):
        assert not ValidationReport(seed=0, quick=False).ok

    def test_ok_aggregates_engines(self):
        report = self._populated()
        assert report.ok
        report.engines["demo"].add("bad", False)
        assert not report.ok

    def test_json_round_trip(self):
        report = self._populated()
        data = json.loads(report.to_json())
        assert data["subsystem"] == "repro.validate"
        assert data["seed"] == 5
        assert data["quick"] is True
        assert data["engines"]["demo"]["ok"] is True
        assert "supervisor" in data and "transport" not in data

    def test_write_and_summary(self, tmp_path):
        report = self._populated()
        path = report.write(tmp_path / "report.json")
        assert json.loads(path.read_text())["ok"] is True
        summary = report.summary()
        assert "seed 5" in summary
        assert "PASS" in summary

    def test_summary_lists_failures(self):
        report = self._populated()
        report.engines["demo"].add("prop/broken", False, detail="diverged")
        summary = report.summary()
        assert "prop/broken" in summary
        assert "FAIL" in summary

    def test_injected_recorded(self):
        report = ValidationReport(seed=0, quick=False, injected="bloom-drop-bits")
        assert report.as_dict()["injected"] == "bloom-drop-bits"
        assert "bloom-drop-bits" in report.summary()

    def test_check_result_as_dict_omits_empty(self):
        data = CheckResult("n", True).as_dict()
        assert data == {"name": "n", "ok": True}
