"""Bench history trail and regression comparison (``bench --compare``)."""

import json
import subprocess
import sys
from pathlib import Path

from repro.harness import bench
from repro.harness.bench import (
    BENCH_SCHEMA_VERSION,
    COMPARE_TOLERANCE,
    GEN_IPS_FLOOR,
    SP_IPS_FLOOR,
    SYSTEM_IPS_FLOOR,
    append_history,
    check_floor,
    comparable,
    compare_to_history,
    load_history,
    measure_generation,
    render_bench,
    render_compare,
)
from repro.harness.runner import TraceKey, generate_trace
from repro.txn.modes import PersistMode


def _record(**overrides):
    """A minimal plausible bench record."""
    record = {
        "bench": "harness",
        "schema": BENCH_SCHEMA_VERSION,
        "git_rev": "abc1234",
        "timestamp_utc": "2026-08-09T00:00:00+00:00",
        "quick": True,
        "kernel_backend": "numpy",
        "pipeline_ips_by_backend": {"python": 1_000_000, "numpy": 5_000_000},
        "miss_ips_by_backend": {"python": 400_000, "numpy": 2_000_000},
        "sweep_ips_by_backend": {"python": 900_000, "numpy": 1_500_000},
        "classify_ips": 3_000_000,
        "system_ips": 150_000,
        "gen_ips": 90_000,
        "sp_ips": 600_000,
    }
    record.update(overrides)
    return record


class TestHistoryTrail:
    def test_append_then_load_round_trips(self, tmp_path):
        path = str(tmp_path / "hist.jsonl")
        append_history(_record(git_rev="aaa"), path)
        append_history(_record(git_rev="bbb"), path)
        loaded = load_history(path)
        assert [rec["git_rev"] for rec in loaded] == ["aaa", "bbb"]

    def test_missing_file_is_empty_history(self, tmp_path):
        assert load_history(str(tmp_path / "nope.jsonl")) == []

    def test_torn_tail_and_junk_lines_skipped(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        good = json.dumps(_record(git_rev="good"))
        path.write_text(good + "\n" + "not json\n" + good[: len(good) // 2])
        loaded = load_history(str(path))
        assert [rec["git_rev"] for rec in loaded] == ["good"]


class TestConcurrentAppends:
    """Two processes appending to one history file must never interleave
    bytes: each append is a single ``write(2)`` on an ``O_APPEND``
    descriptor, which POSIX makes atomic with respect to other writers."""

    WRITER = """
import sys
sys.path.insert(0, {src!r})
from repro.harness.bench import append_history
for index in range({count}):
    append_history({{"writer": {writer}, "index": index, "pad": "x" * 200}},
                   {path!r})
"""

    def test_two_writer_stress_yields_only_whole_lines(self, tmp_path):
        path = str(tmp_path / "hist.jsonl")
        src = str(Path(__file__).resolve().parents[2] / "src")
        count = 50
        workers = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-c",
                    self.WRITER.format(
                        src=src, count=count, writer=writer, path=path
                    ),
                ]
            )
            for writer in (0, 1)
        ]
        for worker in workers:
            assert worker.wait(timeout=60) == 0
        lines = Path(path).read_text().splitlines()
        assert len(lines) == 2 * count
        seen = {0: set(), 1: set()}
        for line in lines:
            record = json.loads(line)  # no torn or interleaved bytes
            seen[record["writer"]].add(record["index"])
        assert seen[0] == set(range(count))
        assert seen[1] == set(range(count))


class TestComparable:
    def test_same_shape_is_comparable(self):
        assert comparable(_record(), _record(git_rev="other"))

    def test_different_backend_or_quick_is_not(self):
        assert not comparable(_record(), _record(kernel_backend="python"))
        assert not comparable(_record(), _record(quick=False))

    def test_pre_v9_classify_mode_is_ignored(self):
        # v8 records carry the retired classification mode; the kernel
        # now has one classification pass, so it no longer splits history
        assert comparable(_record(), _record(classify_mode="scalar"))


class TestCompare:
    def test_identical_record_passes(self):
        result = compare_to_history(_record(), [_record(git_rev="prior")])
        assert result["compared"] == 1
        assert result["regressions"] == []

    def test_synthetic_regression_flagged_per_metric(self):
        current = _record(
            pipeline_ips_by_backend={"python": 1_000_000, "numpy": 2_000_000},
        )
        result = compare_to_history(current, [_record(git_rev="prior")])
        assert len(result["regressions"]) == 1
        finding = result["regressions"][0]
        assert "pipeline_ips_by_backend/numpy" in finding
        assert "prior" in finding
        # the untouched python number must not be flagged
        assert not any(
            "python" in finding for finding in result["regressions"]
        )

    def test_drop_within_tolerance_passes(self):
        shrunk = round(5_000_000 * (1 - COMPARE_TOLERANCE + 0.05))
        current = _record(
            pipeline_ips_by_backend={"python": 1_000_000, "numpy": shrunk},
        )
        result = compare_to_history(current, [_record()])
        assert result["regressions"] == []

    def test_baseline_is_best_of_history(self):
        history = [
            _record(system_ips=100_000),
            _record(system_ips=200_000),
            _record(system_ips=120_000),
        ]
        result = compare_to_history(_record(system_ips=130_000), history)
        assert any("system_ips" in f for f in result["regressions"])
        assert result["baselines"]["system_ips"]["ips"] == 200_000

    def test_missing_metric_is_reported(self):
        current = _record()
        del current["system_ips"]
        result = compare_to_history(current, [_record()])
        assert any(
            "system_ips" in finding and "missing" in finding
            for finding in result["regressions"]
        )

    def test_incomparable_records_ignored(self):
        history = [_record(kernel_backend="python", system_ips=999_999_999)]
        result = compare_to_history(_record(), history)
        assert result["compared"] == 0
        assert result["regressions"] == []

    def test_ref_filters_by_git_rev_prefix(self):
        history = [
            _record(git_rev="aaa111", system_ips=500_000),
            _record(git_rev="bbb222", system_ips=100_000),
        ]
        result = compare_to_history(_record(), history, ref="bbb")
        assert result["compared"] == 1
        assert result["regressions"] == []
        result = compare_to_history(_record(), history, ref="aaa")
        assert any("system_ips" in f for f in result["regressions"])

    def test_generation_regression_flagged(self):
        result = compare_to_history(_record(gen_ips=40_000), [_record()])
        (finding,) = result["regressions"]
        assert finding.startswith("gen_ips:")

    def test_render_is_human_readable(self):
        current = _record(system_ips=10_000)
        result = compare_to_history(current, [_record()])
        text = render_compare(result)
        assert "REGRESSION" in text
        assert "system_ips" in text
        empty = render_compare(compare_to_history(_record(), []))
        assert "no comparable history" in empty


class TestGenerationCell:
    def _floored(self, **overrides):
        record = _record(**overrides)
        record["pipeline_ips_by_backend"] = dict(bench.PIPELINE_IPS_FLOORS)
        record["miss_ips_by_backend"] = dict(bench.MISS_IPS_FLOORS)
        return record

    def test_floor_enforced(self):
        assert check_floor(self._floored(gen_ips=GEN_IPS_FLOOR)) is None
        error = check_floor(self._floored(gen_ips=GEN_IPS_FLOOR - 1))
        assert error is not None and "trace generation regression" in error

    def test_pre_v8_record_has_no_generation_floor(self):
        record = self._floored()
        del record["gen_ips"]
        assert check_floor(record) is None

    def test_schema_version(self):
        assert BENCH_SCHEMA_VERSION == 11

    def test_rendered(self):
        record = _record(
            gen_trace={"benchmarks": ["RT", "HM"]},
            gen_instructions=42_431,
            gen_seconds=0.5,
        )
        assert "trace generation  :   90,000 instr/s (RT+HM, 42,431" in (
            render_bench(record)
        )

    def test_measure_counts_recorded_micro_ops(self, monkeypatch):
        monkeypatch.setattr(bench, "GEN_BENCHMARKS", ("LL",))
        cell = measure_generation(seed=7, reps=1)
        trace = generate_trace(TraceKey("LL", PersistMode.LOG_P_SF, 7))
        assert cell["instructions"] == len(trace)
        assert cell["seconds"] > 0


class TestSpeculativeCell:
    def _floored(self, **overrides):
        record = _record(**overrides)
        record["pipeline_ips_by_backend"] = dict(bench.PIPELINE_IPS_FLOORS)
        record["miss_ips_by_backend"] = dict(bench.MISS_IPS_FLOORS)
        return record

    def test_floor_enforced(self):
        assert check_floor(self._floored(sp_ips=SP_IPS_FLOOR)) is None
        error = check_floor(self._floored(sp_ips=SP_IPS_FLOOR - 1))
        assert error is not None and "speculative pipeline regression" in error

    def test_pre_v10_record_has_no_speculative_floor(self):
        record = self._floored()
        del record["sp_ips"]
        assert check_floor(record) is None

    def test_regression_flagged_by_compare(self):
        result = compare_to_history(_record(sp_ips=200_000), [_record()])
        (finding,) = result["regressions"]
        assert finding.startswith("sp_ips:")

    def test_rendered(self):
        record = _record(
            sp_trace={"benchmark": "SS", "ssb_entries": 256},
            sp_instructions=72_000,
            sp_seconds=0.12,
        )
        assert "speculative model :  600,000 instr/s (SS SP256, 72,000" in (
            render_bench(record)
        )


class TestSystemCell:
    def _floored(self, **overrides):
        record = _record(**overrides)
        record["pipeline_ips_by_backend"] = dict(bench.PIPELINE_IPS_FLOORS)
        record["miss_ips_by_backend"] = dict(bench.MISS_IPS_FLOORS)
        return record

    def test_floor_enforced(self):
        assert check_floor(self._floored(system_ips=SYSTEM_IPS_FLOOR)) is None
        error = check_floor(self._floored(system_ips=SYSTEM_IPS_FLOOR - 1))
        assert error is not None and "multi-core driver regression" in error

    def test_record_without_the_cell_has_no_floor(self):
        record = self._floored()
        del record["system_ips"]
        assert check_floor(record) is None

    def test_explicit_floors_skip_it(self):
        """Callers passing their own pipeline floors keep the old
        single-cell contract, as for the other cells."""
        record = _record(system_ips=1)
        assert check_floor(record, floors={"python": 1}) is None
