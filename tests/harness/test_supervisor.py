"""Fault-tolerant campaign supervisor (repro.harness.supervisor):
chaos-vs-serial determinism, retry/quarantine/pool-rebuild recovery,
the rerun of an interrupted campaign, failure reports, and the CLI
surface."""

import json
import os

import pytest

from repro.harness import cache
from repro.harness import supervisor
from repro.harness.parallel import VariantJob, run_variants
from repro.harness.runner import clear_trace_cache
from repro.obs import metrics as obs_metrics
from repro.txn.modes import PersistMode
from repro.uarch.config import MachineConfig

SMALL = dict(init_ops=40, sim_ops=4)


@pytest.fixture(autouse=True)
def isolated(tmp_path, monkeypatch):
    monkeypatch.setenv(cache.ENV_CACHE_DIR, str(tmp_path / "cache"))
    monkeypatch.delenv(cache.ENV_NO_CACHE, raising=False)
    for var in (supervisor.ENV_CHAOS, supervisor.ENV_CHAOS_SEED):
        monkeypatch.delenv(var, raising=False)
    clear_trace_cache()
    cache.reset_runtime_disable()
    obs_metrics.reset_metrics()
    supervisor.reset()
    yield
    clear_trace_cache()
    supervisor.reset()
    obs_metrics.reset_metrics()


def _jobs(n_modes=3):
    series = [
        (PersistMode.BASE, MachineConfig()),
        (PersistMode.LOG_P_SF, MachineConfig()),
        (PersistMode.LOG_P_SF, MachineConfig().with_sp(256)),
    ][:n_modes]
    return [
        VariantJob(ab, mode, config, **SMALL)
        for mode, config in series
        for ab in ("LL", "HM")
    ]


def _serial_baseline(jobs, monkeypatch):
    """Chaos-free, cache-free serial results (the ground truth)."""
    monkeypatch.setenv(cache.ENV_NO_CACHE, "1")
    clear_trace_cache()
    results = run_variants(jobs, jobs=1)
    monkeypatch.delenv(cache.ENV_NO_CACHE)
    clear_trace_cache()
    return results


class TestChaosSpec:
    def test_parse_all_clauses(self):
        spec = supervisor.ChaosSpec.parse("kill:0.1, hang:0.05,corrupt:1")
        assert (spec.kill, spec.hang, spec.corrupt) == (0.1, 0.05, 1.0)
        assert spec.active()
        assert spec.render() == "kill:0.1,hang:0.05,corrupt:1"

    def test_parse_rejects_unknown_event(self):
        # old drop/delay/garble/partition settings must fail loudly too
        for event in ("explode", "drop", "delay", "garble", "partition"):
            with pytest.raises(ValueError, match="unknown chaos event"):
                supervisor.ChaosSpec.parse(f"{event}:0.5")

    def test_parse_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            supervisor.ChaosSpec.parse("kill:lots")
        with pytest.raises(ValueError):
            supervisor.ChaosSpec.parse("kill:1.5")

    def test_from_env_inert_by_default(self, monkeypatch):
        assert not supervisor.ChaosSpec.from_env().active()
        monkeypatch.setenv(supervisor.ENV_CHAOS, "kill:0.2")
        monkeypatch.setenv(supervisor.ENV_CHAOS_SEED, "9")
        spec = supervisor.ChaosSpec.from_env()
        assert spec.kill == 0.2 and spec.seed == 9


class TestSupervisorConfig:
    def test_retired_env_knobs_are_ignored(self, monkeypatch):
        for var in (
            "REPRO_JOB_TIMEOUT", "REPRO_MAX_ATTEMPTS", "REPRO_MAX_POOL_REBUILDS",
        ):
            monkeypatch.setenv(var, "1")
        assert supervisor.current_config() == supervisor.SupervisorConfig()

    def test_cli_timeout_override(self):
        supervisor.set_job_timeout(2.0)
        assert supervisor.current_config().job_timeout == 2.0
        supervisor.set_job_timeout(None)
        assert supervisor.current_config().job_timeout == 300.0


class TestCampaignIdentity:
    def test_id_is_order_independent(self):
        jobs = _jobs()
        assert supervisor.campaign_id(jobs) == supervisor.campaign_id(
            list(reversed(jobs))
        )

    def test_id_depends_on_content(self):
        jobs = _jobs()
        assert supervisor.campaign_id(jobs) != supervisor.campaign_id(jobs[:-1])


class TestSupervisedDeterminism:
    def test_clean_supervised_run_matches_serial(self, monkeypatch):
        jobs = _jobs()
        serial = _serial_baseline(jobs, monkeypatch)
        supervised = run_variants(jobs, jobs=2)
        assert supervised == serial
        counters = obs_metrics.supervisor_totals()
        assert counters["campaigns"] == 1
        assert counters["jobs"] == len(jobs)
        assert obs_metrics.supervisor_recovery() is None

    def test_one_pool_serves_both_phases(self):
        """A cold pooled campaign over two families forks its workers
        once: the simulations run on the trace phase's pool."""
        run_variants(_jobs(), jobs=2)
        assert obs_metrics.supervisor_recovery() is None  # no worker died
        pooled = [r for r in obs_metrics.variant_records() if r.worker != "main"]
        assert {r.kind for r in pooled} == {"trace", "sim"}
        assert len({r.worker for r in pooled}) <= 2
        snapshot = obs_metrics.metrics_snapshot()
        assert snapshot["peak_rss_mb"] > 0
        assert snapshot["workers_peak_rss_mb"] > 0

    def test_chaos_kill_recovers_byte_identical(self, monkeypatch):
        jobs = _jobs()
        serial = _serial_baseline(jobs, monkeypatch)
        monkeypatch.setenv(supervisor.ENV_CHAOS, "kill:1.0")
        monkeypatch.setenv(supervisor.ENV_CHAOS_SEED, "3")
        chaotic = run_variants(jobs, jobs=2)
        assert chaotic == serial
        counters = obs_metrics.supervisor_totals()
        assert obs_metrics.supervisor_recovery() is not None
        assert counters["pool_rebuilds"] > 0 or counters["serial_degradations"] > 0

    def test_chaos_hang_trips_the_watchdog(self, monkeypatch):
        jobs = _jobs(n_modes=1)
        serial = _serial_baseline(jobs, monkeypatch)
        monkeypatch.setenv(supervisor.ENV_CHAOS, "hang:1.0")
        supervisor.set_job_timeout(0.3)
        results = run_variants(jobs, jobs=2)
        assert results == serial
        counters = obs_metrics.supervisor_totals()
        assert counters["timeouts"] > 0
        assert counters["quarantined"] > 0  # hang:1.0 exhausts every retry

    def test_chaos_corrupt_never_taints_results(self, monkeypatch):
        jobs = _jobs()
        serial = _serial_baseline(jobs, monkeypatch)
        monkeypatch.setenv(supervisor.ENV_CHAOS, "corrupt:1.0")
        chaotic = run_variants(jobs, jobs=2)
        assert chaotic == serial
        assert obs_metrics.supervisor_totals()["chaos_corrupts"] > 0
        # the poisoned store self-heals: a fresh process sees misses, not
        # wrong data
        clear_trace_cache()
        obs_metrics.reset_metrics()
        supervisor.reset()
        rerun = run_variants(jobs, jobs=2)
        assert rerun == serial


class TestRerun:
    """Every finished cell is committed to the content-keyed store, so
    running an interrupted campaign again simulates only the cells the
    store lacks, with no flag and no second record of what finished."""

    def test_pooled_rerun_simulates_only_missing_cells(self, tmp_path):
        jobs = _jobs()
        first = run_variants(jobs, jobs=2)
        # one stored result is missing, as if the campaign had been
        # interrupted before that cell finished
        victim = jobs[0]
        cache.stats_path(victim.trace_key, victim.config).unlink()

        # a fresh process runs the same campaign again: memo gone
        clear_trace_cache()
        obs_metrics.reset_metrics()
        supervisor.reset()
        rerun = run_variants(jobs, jobs=2)
        assert rerun == first
        sims = [r for r in obs_metrics.variant_records() if r.kind == "sim"]
        simulated = [r.label for r in sims if r.source == "simulated"]
        assert simulated == [f"{victim.abbrev}/{victim.mode.value}"]
        assert sorted(r.source for r in sims) == (
            ["disk"] * (len(jobs) - 1) + ["simulated"]
        )
        report = supervisor.campaign_reports()[-1]
        assert (report.prescan, report.scheduled) == (len(jobs) - 1, 1)
        assert not (tmp_path / "cache" / "journal").exists()


class TestFailureReport:
    def test_report_aggregates_campaigns(self, tmp_path, monkeypatch):
        monkeypatch.setenv(supervisor.ENV_CHAOS, "kill:1.0")
        run_variants(_jobs(n_modes=1), jobs=2)
        report = supervisor.failure_report()
        assert report["schema"] == 4
        assert "transport" not in report
        assert report["recovered"] is True
        assert len(report["campaigns"]) == 1
        campaign = report["campaigns"][0]
        assert campaign["jobs"] == 2
        assert campaign["chaos"] == "kill:1"
        kinds = {event["event"] for event in campaign["events"]}
        assert "worker_death" in kinds
        # each event is counted once, in the campaign; the totals are
        # that count published to the registry
        totals = report["totals"]
        assert list(totals) == list(obs_metrics.SUPERVISOR_TOTALS)
        assert totals["campaigns"] == 1 and totals["jobs"] == 2
        for key in ("retries", "timeouts", "pool_rebuilds", "chaos_corrupts"):
            assert totals[key] == campaign[key]
        assert totals["quarantined"] == len(campaign["quarantined"])
        assert totals["serial_degradations"] == int(campaign["degraded_serial"])

    def test_write_failure_report(self, tmp_path):
        run_variants(_jobs(n_modes=1), jobs=2)
        path = supervisor.write_failure_report(tmp_path / "failures.json")
        data = json.loads(path.read_text())
        assert data["totals"]["campaigns"] == 1
        assert data["recovered"] is False


class TestCliFlags:
    def test_supervise_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["figure", "8", "--job-timeout", "12", "--failures-out", "f.json"]
        )
        assert args.job_timeout == 12.0
        assert args.failures_out == "f.json"

    def test_flags_exist_on_all_campaign_commands(self):
        from repro.cli import build_parser

        for argv in (
            ["run", "LL", "--job-timeout", "5"],
            ["report", "--failures-out", "x.json"],
            ["bench", "--job-timeout", "5"],
            ["validate", "--failures-out", "x.json"],
        ):
            build_parser().parse_args(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["worker"],
            ["serve"],
            ["figure", "8", "--transport", "local"],
            ["figure", "8", "--workers", "127.0.0.1:8751"],
            ["figure", "8", "--no-supervise"],
            ["figure", "8", "--classify", "scalar"],
            ["run", "LL", "--kernel", "python"],
            ["figure", "8", "--resume"],
        ],
        ids=["worker", "serve", "transport", "workers", "no-supervise",
             "classify", "kernel", "resume"],
    )
    def test_retired_fleet_surface_is_rejected(self, argv):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2

    def test_bad_chaos_setting_exits_2_before_any_work(self, monkeypatch, capsys):
        from repro.cli import main

        for chaos, seed, message in (
            ("drop:0.1", "0", "REPRO_CHAOS: unknown chaos event 'drop'"),
            ("kill:0.1", "abc", "REPRO_CHAOS_SEED: expected an integer"),
        ):
            monkeypatch.setenv(supervisor.ENV_CHAOS, chaos)
            monkeypatch.setenv(supervisor.ENV_CHAOS_SEED, seed)
            assert main(["figure", "8", "--benchmarks", "LL"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            (line,) = captured.err.strip().splitlines()
            assert message in line
            assert obs_metrics.variant_records() == []
