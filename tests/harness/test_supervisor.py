"""Fault-tolerant campaign supervisor (repro.harness.supervisor):
chaos-vs-serial determinism, retry/quarantine/pool-rebuild recovery,
resumable journals, failure reports, and the CLI surface."""

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
    for var in (
        supervisor.ENV_CHAOS,
        supervisor.ENV_CHAOS_SEED,
        supervisor.ENV_JOB_TIMEOUT,
        supervisor.ENV_MAX_ATTEMPTS,
        supervisor.ENV_MAX_POOL_REBUILDS,
    ):
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
    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv(supervisor.ENV_JOB_TIMEOUT, "1.5")
        monkeypatch.setenv(supervisor.ENV_MAX_ATTEMPTS, "5")
        monkeypatch.setenv(supervisor.ENV_MAX_POOL_REBUILDS, "7")
        config = supervisor.SupervisorConfig.from_env()
        assert config.job_timeout == 1.5
        assert config.max_attempts == 5
        assert config.max_pool_rebuilds == 7

    def test_garbage_env_falls_back_to_defaults(self, monkeypatch):
        monkeypatch.setenv(supervisor.ENV_JOB_TIMEOUT, "soon")
        monkeypatch.setenv(supervisor.ENV_MAX_ATTEMPTS, "-3")
        config = supervisor.SupervisorConfig.from_env()
        assert config.job_timeout == 300.0
        assert config.max_attempts == 1  # clamped, not defaulted

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


class TestJournal:
    def test_append_and_load(self, tmp_path):
        journal = supervisor.CampaignJournal(tmp_path, "abc123")
        journal.append("d1", "LL/base", "simulated")
        journal.append("d2", "HM/base", "cached")
        journal.close()
        assert supervisor.CampaignJournal(tmp_path, "abc123").load_done() == {
            "d1",
            "d2",
        }

    def test_torn_final_line_is_skipped(self, tmp_path):
        journal = supervisor.CampaignJournal(tmp_path, "torn")
        journal.append("d1", "LL/base", "simulated")
        journal.close()
        with open(journal.path, "a") as handle:
            handle.write('{"job": "d2"')  # crash mid-append
        assert supervisor.CampaignJournal(tmp_path, "torn").load_done() == {"d1"}

    def test_restart_truncates(self, tmp_path):
        journal = supervisor.CampaignJournal(tmp_path, "fresh")
        journal.append("d1", "LL/base", "simulated")
        journal.close()
        journal2 = supervisor.CampaignJournal(tmp_path, "fresh")
        journal2.restart()
        assert journal2.load_done() == set()

    def test_missing_directory_is_inert(self):
        journal = supervisor.CampaignJournal(None, "nocache")
        journal.append("d1", "LL/base", "simulated")
        assert journal.load_done() == set()


class TestSupervisedDeterminism:
    def test_clean_supervised_run_matches_serial(self, monkeypatch):
        jobs = _jobs()
        serial = _serial_baseline(jobs, monkeypatch)
        supervised = run_variants(jobs, jobs=2)
        assert supervised == serial
        counters = obs_metrics.supervisor_counters()
        assert counters.campaigns == 1
        assert counters.jobs == len(jobs)
        assert not counters.any_recovery()

    def test_chaos_kill_recovers_byte_identical(self, monkeypatch):
        jobs = _jobs()
        serial = _serial_baseline(jobs, monkeypatch)
        monkeypatch.setenv(supervisor.ENV_CHAOS, "kill:1.0")
        monkeypatch.setenv(supervisor.ENV_CHAOS_SEED, "3")
        chaotic = run_variants(jobs, jobs=2)
        assert chaotic == serial
        counters = obs_metrics.supervisor_counters()
        assert counters.any_recovery()
        assert counters.pool_rebuilds > 0 or counters.serial_degradations > 0

    def test_chaos_hang_trips_the_watchdog(self, monkeypatch):
        jobs = _jobs(n_modes=1)
        serial = _serial_baseline(jobs, monkeypatch)
        monkeypatch.setenv(supervisor.ENV_CHAOS, "hang:1.0")
        monkeypatch.setenv(supervisor.ENV_JOB_TIMEOUT, "0.3")
        results = run_variants(jobs, jobs=2)
        assert results == serial
        counters = obs_metrics.supervisor_counters()
        assert counters.timeouts > 0
        assert counters.quarantined > 0  # hang:1.0 exhausts every retry

    def test_chaos_corrupt_never_taints_results(self, monkeypatch):
        jobs = _jobs()
        serial = _serial_baseline(jobs, monkeypatch)
        monkeypatch.setenv(supervisor.ENV_CHAOS, "corrupt:1.0")
        chaotic = run_variants(jobs, jobs=2)
        assert chaotic == serial
        assert obs_metrics.supervisor_counters().chaos_corrupts > 0
        # the poisoned store self-heals: a fresh process sees misses, not
        # wrong data
        clear_trace_cache()
        obs_metrics.reset_metrics()
        supervisor.reset()
        rerun = run_variants(jobs, jobs=2)
        assert rerun == serial


class TestResume:
    def test_resume_skips_journaled_cells(self, tmp_path, monkeypatch):
        jobs = _jobs()
        first = run_variants(jobs, jobs=2)
        journal_files = list((tmp_path / "cache" / "journal").iterdir())
        assert len(journal_files) == 1
        assert len(journal_files[0].read_text().splitlines()) == len(jobs)

        # a fresh process resuming the same campaign: memo gone
        clear_trace_cache()
        obs_metrics.reset_metrics()
        supervisor.reset()
        supervisor.set_resume(True)
        resumed = run_variants(jobs, jobs=2)
        assert resumed == first
        counters = obs_metrics.supervisor_counters()
        assert counters.resumed == len(jobs)
        sources = {r.source for r in obs_metrics.variant_records()}
        assert "simulated" not in sources  # nothing was re-simulated

    def test_resume_resimulates_only_missing_cells(self, tmp_path, monkeypatch):
        jobs = _jobs()
        first = run_variants(jobs, jobs=2)
        # one journaled result vanishes (corruption, manual delete, ...)
        victim = jobs[2]
        cache.stats_path(victim.trace_key, victim.config).unlink()

        clear_trace_cache()
        obs_metrics.reset_metrics()
        supervisor.reset()
        supervisor.set_resume(True)
        resumed = run_variants(jobs, jobs=2)
        assert resumed == first
        counters = obs_metrics.supervisor_counters()
        assert counters.resumed == len(jobs) - 1
        assert counters.journal_stale == 1
        simulated = [
            r for r in obs_metrics.variant_records() if r.source == "simulated"
        ]
        assert len(simulated) == 1  # exactly the vanished cell

    def test_without_resume_the_journal_restarts(self, tmp_path):
        jobs = _jobs(n_modes=1)
        run_variants(jobs, jobs=2)
        journal_dir = tmp_path / "cache" / "journal"
        (journal_file,) = journal_dir.iterdir()
        clear_trace_cache()
        supervisor.reset()  # resume NOT requested
        run_variants(jobs, jobs=2)
        # journal was rewritten, not appended to
        lines = journal_file.read_text().splitlines()
        assert len(lines) == len(jobs)


class TestQuarantineResume:
    """Quarantine decisions persist in the journal, so ``--resume``
    sends known-poisonous jobs straight to the serial fallback instead
    of burning the retry ladder again."""

    def test_journal_separates_quarantine_from_done(self, tmp_path):
        journal = supervisor.CampaignJournal(tmp_path, "q1")
        journal.append("d1", "LL/base", "simulated")
        journal.append_quarantine("d2", "HM/base")
        journal.close()
        reopened = supervisor.CampaignJournal(tmp_path, "q1")
        assert reopened.load_done() == {"d1"}
        assert reopened.load_quarantined() == {"d2"}

    def test_later_completion_wins_over_quarantine(self, tmp_path):
        # the serial fallback completed the job after quarantining it
        journal = supervisor.CampaignJournal(tmp_path, "q2")
        journal.append_quarantine("d1", "LL/base")
        journal.append("d1", "LL/base", "simulated")
        journal.close()
        reopened = supervisor.CampaignJournal(tmp_path, "q2")
        assert reopened.load_done() == {"d1"}

    def test_resume_inherits_journaled_quarantine(self, tmp_path, monkeypatch):
        jobs = _jobs()
        first = run_variants(jobs, jobs=2)

        # reconstruct the journal as an interrupted run would have left
        # it: the victim was quarantined, never completed, and its
        # result never landed in the store
        victim = jobs[2]
        digest = cache.stats_digest(victim.trace_key, victim.config)
        cache.stats_path(victim.trace_key, victim.config).unlink()
        (journal_file,) = (tmp_path / "cache" / "journal").iterdir()
        kept = [
            line
            for line in journal_file.read_text().splitlines()
            if json.loads(line)["job"] != digest
        ]
        kept.append(
            json.dumps(
                {"job": digest, "label": "victim", "source": "quarantined"},
                sort_keys=True, separators=(",", ":"),
            )
        )
        journal_file.write_text("\n".join(kept) + "\n")

        clear_trace_cache()
        obs_metrics.reset_metrics()
        supervisor.reset()
        supervisor.set_resume(True)
        resumed = run_variants(jobs, jobs=2)
        assert resumed == first  # the fallback still produced the truth
        counters = obs_metrics.supervisor_counters()
        assert counters.resumed == len(jobs) - 1
        assert counters.resumed_quarantined == 1
        report = supervisor.campaign_reports()[-1]
        assert report.resumed_quarantined == 1
        kinds = {event["event"] for event in report.events}
        assert "resume_quarantine" in kinds

    def test_kill_campaign_journals_quarantine_then_resumes(
        self, tmp_path, monkeypatch
    ):
        jobs = _jobs(n_modes=1)
        serial = _serial_baseline(jobs, monkeypatch)
        monkeypatch.setenv(supervisor.ENV_CHAOS, "kill:1.0")
        monkeypatch.setenv(supervisor.ENV_MAX_ATTEMPTS, "1")
        results = run_variants(jobs, jobs=2)
        assert results == serial
        campaign = supervisor.campaign_id(jobs)
        journal = supervisor.CampaignJournal(
            tmp_path / "cache" / "journal", campaign
        )
        quarantined = journal.load_quarantined()
        done = journal.load_done()
        assert quarantined  # every retry exhausted under kill:1.0
        # ...and the serial fallback still completed every sim cell
        sim_digests = {
            cache.stats_digest(job.trace_key, job.config) for job in jobs
        }
        assert sim_digests <= done

        # resume after the crash window: nothing re-simulates, the stale
        # quarantine records don't mask the completions that followed
        clear_trace_cache()
        obs_metrics.reset_metrics()
        supervisor.reset()
        supervisor.set_resume(True)
        resumed = run_variants(jobs, jobs=2)
        assert resumed == serial
        counters = obs_metrics.supervisor_counters()
        assert counters.resumed == len(jobs)
        assert counters.resumed_quarantined == 0


class TestFailureReport:
    def test_report_aggregates_campaigns(self, tmp_path, monkeypatch):
        monkeypatch.setenv(supervisor.ENV_CHAOS, "kill:1.0")
        run_variants(_jobs(n_modes=1), jobs=2)
        report = supervisor.failure_report()
        assert report["schema"] == 3
        assert "transport" not in report
        assert report["recovered"] is True
        assert len(report["campaigns"]) == 1
        campaign = report["campaigns"][0]
        assert campaign["jobs"] == 2
        assert campaign["chaos"] == "kill:1"
        kinds = {event["event"] for event in campaign["events"]}
        assert "worker_death" in kinds

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
            ["figure", "8", "--resume",
             "--job-timeout", "12", "--failures-out", "f.json"]
        )
        assert args.resume
        assert args.job_timeout == 12.0
        assert args.failures_out == "f.json"

    def test_flags_exist_on_all_campaign_commands(self):
        from repro.cli import build_parser

        for argv in (
            ["run", "LL", "--resume"],
            ["report", "--resume"],
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
        ],
        ids=["worker", "serve", "transport", "workers", "no-supervise",
             "classify", "kernel"],
    )
    def test_retired_fleet_surface_is_rejected(self, argv):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2

    def test_bad_chaos_setting_exits_2_before_any_work(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv(supervisor.ENV_CHAOS, "drop:0.1")
        assert main(["figure", "8", "--benchmarks", "LL"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.strip().splitlines()
        assert "unknown chaos event 'drop'" in line
        assert obs_metrics.variant_records() == []
