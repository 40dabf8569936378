"""Variant scheduler (repro.harness.parallel): serial-vs-pool determinism,
cache sharing, one populate per benchmark family, Ctrl-C handling of the
supervised pool, and job-count resolution."""

import json
import os
import weakref

import pytest

from repro.cli import main
from repro.harness import cache
from repro.harness import runner, supervisor
from repro.harness.parallel import (
    VariantJob,
    default_jobs,
    prefetch_variants,
    run_variants,
    set_default_jobs,
)
from repro.harness.runner import TraceKey, clear_trace_cache, run_variant
from repro.obs import metrics as obs_metrics
from repro.obs import telemetry
from repro.txn.modes import PersistMode
from repro.uarch.config import MachineConfig
from repro.workloads.base import PersistentWorkload
from repro.workloads.registry import WORKLOADS

SMALL = dict(init_ops=40, sim_ops=4)


@pytest.fixture(autouse=True)
def isolated(tmp_path, monkeypatch):
    monkeypatch.setenv(cache.ENV_CACHE_DIR, str(tmp_path / "cache"))
    monkeypatch.delenv(cache.ENV_NO_CACHE, raising=False)
    clear_trace_cache()
    set_default_jobs(None)
    yield
    clear_trace_cache()
    set_default_jobs(None)


def _fig8_jobs():
    """Every Figure-8 variant of every benchmark, at reduced op counts."""
    base_cfg = MachineConfig()
    sp_cfg = base_cfg.with_sp(256)
    series = [
        (PersistMode.BASE, base_cfg),
        (PersistMode.LOG, base_cfg),
        (PersistMode.LOG_P, base_cfg),
        (PersistMode.LOG_P_SF, base_cfg),
        (PersistMode.LOG_P_SF, sp_cfg),
    ]
    return [
        VariantJob(ab, mode, config, **SMALL)
        for mode, config in series
        for ab in WORKLOADS
    ]


class TestDeterminism:
    def test_parallel_matches_serial_for_every_fig8_variant(self, monkeypatch):
        jobs = _fig8_jobs()
        parallel_results = run_variants(jobs, jobs=3)
        # recompute from scratch: fresh memo, no disk cache
        clear_trace_cache()
        monkeypatch.setenv(cache.ENV_NO_CACHE, "1")
        serial_results = run_variants(jobs, jobs=1)
        assert len(parallel_results) == len(jobs)
        for job, par, ser in zip(jobs, parallel_results, serial_results):
            assert par == ser, job

    def test_parallel_without_persistent_cache(self, monkeypatch):
        # the scheduler falls back to a scratch store shared by workers
        monkeypatch.setenv(cache.ENV_NO_CACHE, "1")
        jobs = [
            VariantJob("LL", PersistMode.BASE, MachineConfig(), **SMALL),
            VariantJob("LL", PersistMode.LOG_P_SF, MachineConfig(), **SMALL),
            VariantJob("LL", PersistMode.LOG_P_SF, MachineConfig().with_sp(256), **SMALL),
        ]
        par = run_variants(jobs, jobs=2)
        clear_trace_cache()
        ser = run_variants(jobs, jobs=1)
        assert par == ser


class TestCacheSharing:
    def test_workers_populate_the_shared_store(self, tmp_path):
        jobs = [
            VariantJob("LL", PersistMode.LOG_P_SF, MachineConfig(), **SMALL),
            VariantJob("LL", PersistMode.LOG_P_SF, MachineConfig().with_sp(256), **SMALL),
        ]
        run_variants(jobs, jobs=2)
        root = tmp_path / "cache"
        # both variants replay the same LOG_P_SF trace, and its one timed
        # run stores the family's other three modes too; one stats record
        # per machine configuration
        assert sorted(path.name for path in (root / "traces").iterdir()) == sorted(
            f"{cache.trace_digest(TraceKey('LL', mode, 7, **SMALL))}.rptr"
            for mode in PersistMode
        )
        assert len(list((root / "stats").iterdir())) == 2

    def test_results_land_in_process_memo(self):
        jobs = [VariantJob("LL", PersistMode.BASE, MachineConfig(), **SMALL)]
        (result,) = run_variants(jobs, jobs=2)
        memo = run_variant("LL", PersistMode.BASE, MachineConfig(), **SMALL)
        assert memo is result

    def test_prefetch_dedups_and_warms(self):
        base_cfg = MachineConfig()
        pairs = [("LL", PersistMode.BASE, base_cfg)] * 3
        results = prefetch_variants(pairs, jobs=1)
        assert len(results) == 1
        again = run_variant("LL", PersistMode.BASE, base_cfg)
        assert again is results[0]


FIG8 = ["figure", "8", "--benchmarks", "LL", "GH"]


class TestTraceFamilies:
    """A cold campaign populates each benchmark once for all its modes,
    on both schedulers, and prints the same bytes."""

    def test_serial_campaign_populates_once_per_benchmark(self, monkeypatch, capsys):
        populated = []
        populate = PersistentWorkload.populate

        def counting(self, n_ops):
            populated.append(self.abbrev)
            return populate(self, n_ops)

        monkeypatch.setattr(PersistentWorkload, "populate", counting)
        obs_metrics.reset_metrics()
        assert main(FIG8 + ["--jobs", "1"]) == 0
        assert sorted(populated) == ["GH", "LL"]
        counters = cache.cache_counters()
        assert (counters.trace_misses, counters.trace_stores) == (8, 8)
        # ten cells (four modes and SP256 per benchmark), each read once
        assert (counters.stats_misses, counters.stats_hits) == (10, 0)
        traces = [r for r in obs_metrics.variant_records() if r.kind == "trace"]
        assert sorted(r.label for r in traces) == sorted(
            f"{ab}/{mode.value}" for ab in ("LL", "GH") for mode in PersistMode
        )
        assert {r.source for r in traces} == {"generated"}

    def test_serial_campaign_keeps_only_the_recordings(self, capsys):
        obs_metrics.reset_metrics()
        assert main(FIG8 + ["--jobs", "1"]) == 0
        assert sorted(runner._TRACE_CACHE, key=lambda key: key.abbrev) == [
            TraceKey(ab, PersistMode.LOG_P_SF, 7) for ab in ("GH", "LL")
        ]
        counters = cache.cache_counters()
        assert (counters.trace_misses, counters.trace_stores) == (8, 8)
        assert telemetry.get("workloads.timed_runs") == 2
        assert telemetry.get("workloads.projected_traces") == 6

    def test_serial_campaign_frees_each_family_before_the_next(
        self, monkeypatch, capsys
    ):
        """A weakref census taken at every simulation: at most one
        family's Base, Log and Log+P traces are alive at a time."""
        projected = []
        generate, simulate = runner.generate_traces, runner.simulate

        def generating(keys):
            traces = generate(keys)
            projected.extend(
                (key.abbrev, weakref.ref(trace))
                for key, trace in zip(keys, traces)
                if key.mode is not PersistMode.LOG_P_SF
            )
            return traces

        alive = []

        def census(trace, config):
            alive.append({ab for ab, ref in projected if ref() is not None})
            return simulate(trace, config)

        monkeypatch.setattr(runner, "generate_traces", generating)
        monkeypatch.setattr(runner, "simulate", census)
        assert main(FIG8 + ["--jobs", "1"]) == 0
        assert len(projected) == 6 and len(alive) == 10
        assert [len(families) for families in alive] == [1] * 10

    def test_pool_reports_the_serial_counts(self, tmp_path, monkeypatch, capsys):
        """Pool workers return what they counted with each result, so a
        pooled campaign reports the serial campaign's cache and
        generation counts: two timed runs and six projected traces."""
        counts = {}
        for jobs in ("1", "2"):
            monkeypatch.setenv(cache.ENV_CACHE_DIR, str(tmp_path / f"cache-{jobs}"))
            clear_trace_cache()
            obs_metrics.reset_metrics()
            out = tmp_path / f"metrics-{jobs}.json"
            assert main(FIG8 + ["--jobs", jobs, "--metrics-out", str(out)]) == 0
            counts[jobs] = {
                name: value
                for name, value in json.loads(out.read_text())["counters"].items()
                if name.startswith(("cache.", "workloads.", "pipeline."))
            }
        serial, pooled = counts["1"], counts["2"]
        # the one difference: each of the ten simulation tasks loads its
        # trace from the store the pool shares, where the serial campaign
        # reads its memo
        assert pooled.pop("cache.trace_hits") == 10
        assert pooled == serial
        assert serial["workloads.timed_runs"] == 2
        assert serial["workloads.projected_traces"] == 6
        assert (serial["cache.trace_misses"], serial["cache.trace_stores"]) == (8, 8)
        assert (serial["cache.stats_misses"], serial["cache.stats_stores"]) == (10, 10)

    def test_pool_runs_one_trace_task_per_benchmark(
        self, tmp_path, monkeypatch, capsys
    ):
        assert main(FIG8 + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        monkeypatch.setenv(cache.ENV_CACHE_DIR, str(tmp_path / "pool-cache"))
        clear_trace_cache()
        phases = []
        run = supervisor._PhaseRunner.run

        def recording(self, tasks):
            phases.append([(task.kind, task.key) for task in tasks])
            return run(self, tasks)

        monkeypatch.setattr(supervisor._PhaseRunner, "run", recording)
        assert main(FIG8 + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial
        trace_phase, sim_phase = phases
        assert {kind for kind, _ in trace_phase} == {"trace"}
        assert sorted(
            (keys[0].abbrev, sorted(key.mode.value for key in keys))
            for _, keys in trace_phase
        ) == [
            (ab, sorted(mode.value for mode in PersistMode)) for ab in ("GH", "LL")
        ]
        assert all(len({key.abbrev for key in keys}) == 1 for _, keys in trace_phase)
        assert len(sim_phase) == 10


class TestInterrupt:
    def test_ctrl_c_kills_workers_and_reraises(self, monkeypatch):
        """Ctrl-C mid-campaign must SIGKILL in-flight workers and cancel
        the queue instead of blocking in the executor's atexit join."""
        events = []

        class FakeProc:
            def kill(self):
                events.append("kill")

        class FakePool:
            def __init__(self, max_workers=None):
                self._processes = {1: FakeProc(), 2: FakeProc()}

            def submit(self, fn, payload):
                raise KeyboardInterrupt

            def shutdown(self, wait=True, cancel_futures=False):
                events.append(("shutdown", wait, cancel_futures))

        monkeypatch.setattr(supervisor, "ProcessPoolExecutor", FakePool)
        jobs = [
            VariantJob("LL", PersistMode.BASE, MachineConfig(), **SMALL),
            VariantJob("HM", PersistMode.BASE, MachineConfig(), **SMALL),
        ]
        with pytest.raises(KeyboardInterrupt):
            run_variants(jobs, jobs=2)
        assert events.count("kill") == 2
        assert ("shutdown", False, True) in events

    @pytest.mark.parametrize("cache_on", [True, False], ids=["store", "no-cache"])
    def test_ctrl_c_on_the_cli_says_how_to_continue(
        self, monkeypatch, capsys, cache_on
    ):
        """An interrupted campaign exits 130 with one line that says
        where its finished cells are and that rerunning continues it."""

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(supervisor, "run_supervised", interrupted)
        if not cache_on:
            monkeypatch.setenv(cache.ENV_NO_CACHE, "1")
        code = main(["figure", "8", "--benchmarks", "LL", "--jobs", "2"])
        captured = capsys.readouterr()
        assert code == 130
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        if cache_on:
            assert str(cache.cache_root()) in line
            assert "run the same command again" in line
        else:
            assert "no finished cell was kept" in line


class TestJobResolution:
    def test_default_tracks_cpu_count(self):
        assert default_jobs() == (os.cpu_count() or 1)

    def test_cli_override(self):
        set_default_jobs(3)
        assert default_jobs() == 3
        set_default_jobs(0)  # clamped
        assert default_jobs() == 1

    def test_single_job_never_spawns_workers(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("ProcessPoolExecutor should not be used")

        monkeypatch.setattr(supervisor, "ProcessPoolExecutor", no_pool)
        jobs = [VariantJob("LL", PersistMode.BASE, MachineConfig(), **SMALL)]
        (result,) = run_variants(jobs, jobs=1)
        assert result.cycles > 0
