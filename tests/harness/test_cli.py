"""CLI commands (repro.cli)."""

import pytest

from repro.cli import build_parser, main
from repro.obs import metrics as obs_metrics


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_range_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "7"])

    def test_benchmark_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "XX"])


class TestCommands:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 2" in out and "Table 3" in out

    def test_run(self, capsys):
        assert main(["run", "LL"]) == 0
        out = capsys.readouterr().out
        assert "Linked-List" in out
        assert "SP256" in out

    def test_figure_11(self, capsys):
        assert main(["figure", "11", "--benchmarks", "LL"]) == 0
        assert "Figure 11" in capsys.readouterr().out

    def test_figure_12_subset(self, capsys):
        assert main(["figure", "12", "--benchmarks", "LL", "SS"]) == 0
        out = capsys.readouterr().out
        assert "SS" in out and "GH" not in out

    def test_figure_8_subset(self, capsys):
        assert main(["figure", "8", "--benchmarks", "LL"]) == 0
        out = capsys.readouterr().out
        assert "Log+P+Sf" in out

    def test_headline(self, capsys):
        assert main(["headline"]) == 0
        out = capsys.readouterr().out
        assert "paper: +20.3%" in out

    def test_crashtest(self, capsys):
        assert main(["crashtest", "LL", "--points", "6"]) == 0
        out = capsys.readouterr().out
        assert "recovered consistently" in out

    def test_report_to_file(self, tmp_path, capsys):
        path = tmp_path / "report.md"
        assert main(["figure", "11", "--benchmarks", "LL"]) == 0  # warm cache
        capsys.readouterr()
        assert main(["report", str(path)]) == 0
        text = path.read_text()
        assert "# Reproduction report" in text
        assert "Figure 13" in text
        assert "Headline" in text


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "LL", "--contention", "0.5"],
            ["run", "LL", "--cores", "1", "--contention", "0.5"],
            ["trace", "LL", "--contention", "0.5"],
        ],
        ids=["run", "run-one-core", "trace"],
    )
    def test_contention_without_cores_exits_2(self, argv, capsys):
        before = len(obs_metrics.variant_records())
        assert main(argv) == 2
        (line,) = capsys.readouterr().out.strip().splitlines()
        assert line == "--contention needs --cores >= 2"
        assert len(obs_metrics.variant_records()) == before  # nothing ran

    @pytest.mark.parametrize(
        "argv",
        [
            ["crashtest", "LL", "--points", "0"],
            ["crashtest", "LL", "--points", "-3"],
            ["run", "HM", "--cores", "2", "--contention", "1.5"],
            ["run", "LL", "--cores", "0"],
            ["trace", "LL", "--cores", "0"],
            ["trace", "LL", "--cores", "2", "--contention", "1.5"],
            ["trace", "LL", "--sim-ops", "-4"],
            ["trace", "LL", "--init-ops", "-1"],
            ["figure", "8", "--jobs", "0"],
            ["figure", "8", "--jobs", "2", "--job-timeout", "-1",
             "--benchmarks", "LL"],
        ],
        ids=[
            "points-0", "points-negative", "run-contention", "run-cores",
            "trace-cores", "trace-contention", "sim-ops", "init-ops", "jobs",
            "job-timeout",
        ],
    )
    def test_out_of_range_value_exits_2(self, argv, capsys):
        before = len(obs_metrics.variant_records())
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "usage: repro" in capsys.readouterr().err
        assert len(obs_metrics.variant_records()) == before  # nothing ran
