"""Fault-tolerant campaign supervisor: the multi-job scheduler.

A figure, report, bench, or validate campaign run with ``--jobs N``
(``N > 1``) fans its (benchmark, mode, config, seed) simulations across
a local process pool, and this module is that pool's scheduler.  One
OOM-killed worker, one hung simulation, or one ``KeyboardInterrupt``
must not abort the whole campaign and throw away every completed cell,
so the scheduler applies the retry/abort discipline of
persistent-memory transaction runtimes to the harness itself:

* **watchdog timeouts** — every pool job has a wall-clock deadline;
  stragglers are killed with the pool and requeued;
* **bounded retry** — a failed job is re-submitted as soon as a
  worker is free (after a worker death or a timeout, that is after the
  pool rebuild);
* **quarantine** — after ``max_attempts`` failures a job is pulled from
  the pool so one poison input cannot starve everything else; it is
  finished in-process by the chaos-free serial fallback;
* **pool-death recovery** — a ``BrokenProcessPool`` (worker SIGKILL,
  OOM) rebuilds the pool and re-enqueues the in-flight jobs; after
  ``max_pool_rebuilds`` deaths the campaign degrades gracefully to
  serial execution;
* **rerun after an interrupt** — every finished cell is committed to
  the content-keyed store by one atomic ``os.replace``, and the prescan
  (:func:`repro.harness.parallel.run_variants`) reads that store, so an
  interrupted campaign, run again, simulates only the cells the store
  lacks, and one with nothing to simulate never reaches this module;
* **chaos mode** — ``REPRO_CHAOS=kill:p,hang:p,corrupt:p`` randomly
  SIGKILLs workers, injects hangs, and corrupts just-written cache
  entries, so tests and CI can prove every recovery path actually fires.

None of this changes *what* is computed: results are merged by job
position, simulation is a pure function of ``(trace, config)``, and
chaos only perturbs scheduling and cache files (which are
integrity-checked and self-healing) — so a campaign that survives any
amount of injected failure is byte-identical to a clean serial run
(:func:`repro.harness.parallel.run_variants` with ``jobs <= 1``).

See ``docs/RESILIENCE.md`` for the failure taxonomy and policies.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import signal
import time
from concurrent.futures import FIRST_COMPLETED, CancelledError, wait
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.harness import cache as disk_cache
from repro.harness import runner
from repro.obs import metrics as obs_metrics
from repro.obs import telemetry
from repro.stats.run import RunStats
from repro.workloads.registry import workload_classes

ENV_CHAOS = "REPRO_CHAOS"
ENV_CHAOS_SEED = "REPRO_CHAOS_SEED"

#: How long a chaos-injected hang sleeps — far beyond any sane job
#: timeout, so a hang always manifests as a watchdog timeout.
_HANG_SECONDS = 3600.0

#: Cap on recorded per-campaign events so a pathological campaign cannot
#: grow the failure report without bound.
_MAX_EVENTS = 1000


# ----------------------------------------------------------------------
# chaos specification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChaosSpec:
    """Per-event-type injection probabilities, seeded for reproducibility.

    ``kill`` SIGKILLs the worker before it starts (exercises
    ``BrokenProcessPool`` recovery), ``hang`` sleeps long enough to trip
    the watchdog (exercises timeouts), ``corrupt`` garbles the cache
    entry the worker just wrote (exercises integrity-check recovery).
    Faults fire only inside pool workers, never in the serial path.

    Draws are deterministic in ``(seed, job digest, attempt)``, so a
    chaotic campaign replays identically.
    """

    _EVENTS = ("kill", "hang", "corrupt")

    kill: float = 0.0
    hang: float = 0.0
    corrupt: float = 0.0
    seed: int = 0

    def active(self) -> bool:
        return any(getattr(self, name) > 0 for name in self._EVENTS)

    def render(self) -> str:
        return ",".join(
            f"{name}:{getattr(self, name):g}"
            for name in self._EVENTS
            if getattr(self, name) > 0
        )

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "ChaosSpec":
        """Parse ``"kill:0.1,hang:0.05,corrupt:0.2"`` (any subset)."""
        rates = {name: 0.0 for name in cls._EVENTS}
        for clause in filter(None, (c.strip() for c in text.split(","))):
            name, _, value = clause.partition(":")
            name = name.strip()
            if name not in rates:
                raise ValueError(
                    f"unknown chaos event {name!r} in {text!r} "
                    "(expected kill/hang/corrupt)"
                )
            try:
                rate = float(value)
            except ValueError:
                raise ValueError(f"bad chaos rate in {clause!r}") from None
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"chaos rate out of [0, 1] in {clause!r}")
            rates[name] = rate
        return cls(seed=seed, **rates)

    @classmethod
    def from_env(cls, environ=os.environ) -> "ChaosSpec":
        """The active chaos spec (inert when ``REPRO_CHAOS`` is unset).

        A malformed setting raises ``ValueError`` naming the variable."""
        text = environ.get(ENV_CHAOS, "")
        if not text:
            return cls()
        seed_text = environ.get(ENV_CHAOS_SEED, "0")
        try:
            seed = int(seed_text)
        except ValueError:
            raise ValueError(
                f"{ENV_CHAOS_SEED}: expected an integer, got {seed_text!r}"
            ) from None
        try:
            return cls.parse(text, seed=seed)
        except ValueError as exc:
            raise ValueError(f"{ENV_CHAOS}: {exc}") from None


def _chaos_rng(spec: ChaosSpec, digest: str, attempt: int) -> random.Random:
    return random.Random(f"{spec.seed}|{digest}|{attempt}")


def _corrupt_file(path: Path, rng: random.Random) -> None:
    """Garble *path* in place: truncate it or flip a few bytes.

    Deliberately non-atomic — this simulates torn writes and bit rot.
    The integrity layer (RPTR2 CRC footer, stats CRC envelope) must
    detect the damage on the next load and drop the entry.
    """
    try:
        blob = bytearray(path.read_bytes())
    except OSError:
        return
    if len(blob) < 2:
        return
    if rng.random() < 0.5:
        blob = blob[: rng.randrange(1, len(blob))]
    else:
        for _ in range(3):
            index = rng.randrange(len(blob))
            blob[index] ^= 1 + rng.randrange(255)
    try:
        path.write_bytes(bytes(blob))
    except OSError:
        pass


# ----------------------------------------------------------------------
# supervisor configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SupervisorConfig:
    """Retry/timeout/quarantine policy; only the deadline is a knob
    (``--job-timeout``)."""

    #: wall-clock seconds a single pool job may run before the watchdog
    #: kills the pool and requeues it.
    job_timeout: float = 300.0
    #: failures (of any kind) before a job is quarantined.
    max_attempts: int = 3
    #: pool deaths tolerated before degrading to serial execution.
    max_pool_rebuilds: int = 3


# ----------------------------------------------------------------------
# module state (mirrors parallel.set_default_jobs's CLI plumbing)
# ----------------------------------------------------------------------
_JOB_TIMEOUT_OVERRIDE: Optional[float] = None
_CAMPAIGNS: List["CampaignReport"] = []


def set_job_timeout(seconds: Optional[float]) -> None:
    """CLI override for the per-job watchdog deadline."""
    global _JOB_TIMEOUT_OVERRIDE
    _JOB_TIMEOUT_OVERRIDE = seconds if seconds is None else max(0.1, seconds)


def current_config() -> SupervisorConfig:
    if _JOB_TIMEOUT_OVERRIDE is None:
        return SupervisorConfig()
    return SupervisorConfig(job_timeout=_JOB_TIMEOUT_OVERRIDE)


def reset() -> None:
    """Restore default supervisor state (tests)."""
    global _JOB_TIMEOUT_OVERRIDE
    _JOB_TIMEOUT_OVERRIDE = None
    _CAMPAIGNS.clear()


def campaign_reports() -> List["CampaignReport"]:
    """Every supervised campaign this process ran, in order."""
    return list(_CAMPAIGNS)


# ----------------------------------------------------------------------
# campaign identity
# ----------------------------------------------------------------------
def job_digest(job) -> str:
    """Stable identity of one (trace, config) cell — the stats digest."""
    return disk_cache.stats_digest(job.trace_key, job.config)


def family_digest(keys: Sequence) -> str:
    """Stable identity of one trace task: order-independent over the
    trace digests of its family's keys."""
    blob = "|".join(sorted(disk_cache.trace_digest(key) for key in keys))
    return hashlib.sha256(blob.encode()).hexdigest()


def campaign_id(jobs_list: Sequence) -> str:
    """Content identity of a campaign: order-independent over its cells."""
    blob = "|".join(sorted(job_digest(job) for job in jobs_list))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# campaign report (--failures-out)
# ----------------------------------------------------------------------
@dataclass
class CampaignReport:
    """What one supervised campaign did to stay alive."""

    campaign: str
    jobs: int
    chaos: str = ""
    prescan: int = 0
    scheduled: int = 0
    completed: int = 0
    retries: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    chaos_corrupts: int = 0
    degraded_serial: bool = False
    quarantined: List[str] = field(default_factory=list)
    events: List[Dict[str, object]] = field(default_factory=list)

    def event(self, kind: str, label: str, **detail: object) -> None:
        if len(self.events) < _MAX_EVENTS:
            self.events.append({"event": kind, "job": label, **detail})

    def as_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    def publish(self) -> None:
        """Add this campaign to the registry's ``supervisor.*`` totals
        (:data:`repro.obs.metrics.SUPERVISOR_TOTALS`)."""
        counts = {
            "campaigns": 1,
            "jobs": self.jobs,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "quarantined": len(self.quarantined),
            "pool_rebuilds": self.pool_rebuilds,
            "serial_degradations": int(self.degraded_serial),
            "chaos_corrupts": self.chaos_corrupts,
        }
        for key in obs_metrics.SUPERVISOR_TOTALS:
            telemetry.counter_inc(f"supervisor.{key}", counts[key])


def failure_report() -> Dict[str, object]:
    """Aggregate failure/recovery report of every campaign this session;
    the totals are read back from the registry."""
    return {
        "schema": 4,
        "totals": obs_metrics.supervisor_totals(),
        "recovered": obs_metrics.supervisor_recovery() is not None,
        "campaigns": [report.as_dict() for report in _CAMPAIGNS],
    }


def write_failure_report(path) -> Path:
    path = Path(path)
    with open(path, "w") as handle:
        json.dump(failure_report(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


# ----------------------------------------------------------------------
# the worker (top-level so it pickles)
# ----------------------------------------------------------------------
def _do_work(kind: str, key, config, root: str):
    """Execute one unit of campaign work; returns ``(result, stored_paths)``.

    ``kind == "trace"``: *key* is one family of trace keys (they differ
    only in mode); generate the ones missing from the shared store with
    one populate and one timed run, and store them with the family's
    other missing modes (:func:`repro.harness.runner.store_family`).
    The result lists the keys generated.
    ``kind == "sim"``: simulate *key* on *config*, persisting the stats.
    Runs identically in pool workers and in the serial fallback.
    """
    if kind == "trace":
        todo = [k for k in key if not disk_cache.has_trace(k, root, count=False)]
        if not todo:
            return [], []
        runner.store_family(todo, root)
        return todo, [disk_cache.trace_path(k, root=root) for k in todo]
    trace = disk_cache.load_cached_trace(key, root=root)
    if trace is None:
        # the trace phase should have produced it (or chaos ate it);
        # regenerate defensively
        trace = runner.store_family([key], root)[key]
    stats = runner.simulate(trace, config)
    stored = disk_cache.store_stats(key, config, stats, root=root)
    return stats, [stored] if stored is not None else []


def _supervised_worker(payload: Tuple) -> Tuple[object, float, int, bool, Dict]:
    """Pool entry point: chaos hooks around :func:`_do_work`.

    Returns ``(result, wall_seconds, worker_pid, chaos_corrupted,
    counts)``, *counts* being what the work published to this worker's
    telemetry registry, emptied first.
    Chaos draws are deterministic in (seed, job digest, attempt): kill
    and hang fire *before* the work (they must not affect results),
    corruption fires *after* the result has been computed and returned
    bytes are already safe — it damages only one on-disk cache entry the
    work wrote, which the integrity layer detects and drops on the next
    load.
    """
    kind, key, config, root, digest, attempt, spec = payload
    rng = None
    if spec is not None and spec.active():
        rng = _chaos_rng(spec, f"{kind}:{digest}", attempt)
        if rng.random() < spec.kill:
            os.kill(os.getpid(), signal.SIGKILL)
        if rng.random() < spec.hang:
            time.sleep(_HANG_SECONDS)
    telemetry.reset()
    started = time.perf_counter()
    result, stored = _do_work(kind, key, config, root)
    wall = time.perf_counter() - started
    corrupted = False
    if rng is not None and stored and rng.random() < spec.corrupt:
        _corrupt_file(Path(rng.choice(stored)), rng)
        corrupted = True
    return result, wall, os.getpid(), corrupted, telemetry.snapshot()


# ----------------------------------------------------------------------
# phase runner
# ----------------------------------------------------------------------
class _Task:
    """One schedulable unit: a trace family's generation (``key`` is the
    tuple of its trace keys) or a simulation."""

    __slots__ = (
        "kind", "key", "config", "index", "label", "digest",
        "attempts", "quarantined", "done", "future", "started_at",
    )

    def __init__(self, kind, key, config, index, label, digest):
        self.kind = kind
        self.key = key
        self.config = config
        self.index = index
        self.label = label
        self.digest = digest
        self.attempts = 0
        self.quarantined = False
        self.done = False
        self.future = None
        self.started_at = 0.0


class _DegradedToSerial(Exception):
    """Internal control flow: the pool died too often; go serial."""


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Hard-stop a pool: SIGKILL live workers, then cancel queued work.

    Runs on every exit from a pooled campaign — normal completion, a
    watchdog or pool-death rebuild, and ``KeyboardInterrupt`` (Ctrl-C
    must exit promptly, completed cells are already in the store) — and
    never blocks waiting for a worker that may be hung.  The kill MUST
    come first: ``shutdown()`` drops the executor's process
    table (``_processes = None``), and a merely-shut-down executor
    still waits for hung workers at interpreter exit.  Killing the
    workers makes the executor observe a broken pool, which is the one
    state it knows how to wind down from without joining anything.  The
    killed workers are then reaped (a bounded wait), so their peak RSS
    reaches this process's ``RUSAGE_CHILDREN``.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    for process in processes:
        try:
            process.kill()
        except Exception:
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    for process in processes:
        try:
            process.join(1.0)
        except Exception:
            pass


class _PhaseRunner:
    """Run a campaign's phases, one after the other, across one
    self-healing process pool of *n_workers* workers: a phase that ends
    with the pool alive hands it to the next one."""

    def __init__(
        self,
        n_workers: int,
        root: str,
        config: SupervisorConfig,
        chaos: ChaosSpec,
        report: CampaignReport,
        on_done: Callable[[_Task, object, float, str], None],
    ) -> None:
        self.n_workers = n_workers
        self.root = root
        self.config = config
        self.chaos = chaos if chaos.active() else None
        self.report = report
        self.on_done = on_done
        self.pool: Optional[ProcessPoolExecutor] = None
        self.rebuilds_left = config.max_pool_rebuilds
        self.degraded = False

    # -- pool lifecycle ------------------------------------------------
    def _ensure_pool(self) -> None:
        if self.pool is None:
            self.pool = ProcessPoolExecutor(max_workers=self.n_workers)

    def close(self) -> None:
        """Terminate the pool, not shut it down: a worker may be mid-hang,
        and ``shutdown()`` alone would leak it past process exit."""
        if self.pool is not None:
            _terminate_pool(self.pool)
            self.pool = None

    def _pool_died(self, reason: str) -> None:
        self.close()
        if self.rebuilds_left <= 0:
            self.report.degraded_serial = True
            self.report.event("serial_degrade", "*", reason=reason)
            raise _DegradedToSerial(reason)
        self.rebuilds_left -= 1
        self.report.pool_rebuilds += 1
        self.report.event("pool_rebuild", "*", reason=reason)

    # -- task bookkeeping ----------------------------------------------
    def _charge(self, task: _Task, kind: str, detail: str = "") -> None:
        """Count one failed attempt; requeue the task or quarantine it."""
        task.attempts += 1
        task.future = None
        self.report.event(kind, task.label, attempt=task.attempts, detail=detail)
        if kind == "timeout":
            self.report.timeouts += 1
        if task.attempts >= self.config.max_attempts:
            task.quarantined = True
            self.report.quarantined.append(task.label)
            self.report.event("quarantine", task.label, attempts=task.attempts)
            return
        self.report.retries += 1

    def _complete(self, task: _Task, payload) -> None:
        """Accept a worker's result and add its counts to the registry."""
        result, wall, pid, corrupted, counts = payload
        telemetry.merge(counts)
        task.done = True
        task.future = None
        if corrupted:
            self.report.chaos_corrupts += 1
            self.report.event("chaos_corrupt", task.label)
        self.on_done(task, result, wall, f"pid:{pid}")

    def _run_serial(self, task: _Task) -> None:
        """Chaos-free in-process execution (quarantine / degraded mode)."""
        started = time.perf_counter()
        result, _stored = _do_work(task.kind, task.key, task.config, self.root)
        task.done = True
        self.on_done(task, result, time.perf_counter() - started, "main")

    # -- the loop ------------------------------------------------------
    def run(self, tasks: List[_Task]) -> None:
        """Drive one phase's *tasks* to completion with its own rebuild
        budget; every task ends ``done``.  A degraded campaign stays
        serial.  The pool is left for the next phase: whoever started
        the campaign calls :meth:`close` on every exit path."""
        self.rebuilds_left = self.config.max_pool_rebuilds
        try:
            if not self.degraded:
                self._run_pooled(tasks)
        except _DegradedToSerial:
            self.degraded = True
        # quarantined stragglers (and everything left after a serial
        # degrade) complete in-process, chaos-free — a poison job gets
        # one last deterministic chance, and a real bug surfaces with
        # its original traceback
        for task in tasks:
            if not task.done:
                self._run_serial(task)

    def _submit(self, task: _Task, in_flight: Dict) -> bool:
        payload = (
            task.kind, task.key, task.config, self.root,
            task.digest, task.attempts, self.chaos,
        )
        try:
            future = self.pool.submit(_supervised_worker, payload)
        except (BrokenProcessPool, RuntimeError) as exc:
            self._pool_died(f"submit failed: {exc!r}")
            return False
        task.future = future
        task.started_at = time.monotonic()
        in_flight[future] = task
        return True

    def _run_pooled(self, tasks: List[_Task]) -> None:
        in_flight: Dict = {}
        tick = max(0.02, min(0.25, self.config.job_timeout / 10.0))
        while True:
            active = [t for t in tasks if not t.done and not t.quarantined]
            if not active:
                return
            self._ensure_pool()
            for task in active:
                if len(in_flight) >= self.n_workers:
                    break
                if task.future is None and not self._submit(task, in_flight):
                    break
            if not in_flight:
                continue  # a submit found the pool dead; it was rebuilt
            done, _pending = wait(
                set(in_flight), timeout=tick, return_when=FIRST_COMPLETED
            )
            broken = False
            for future in done:
                task = in_flight.pop(future)
                try:
                    payload = future.result()
                except CancelledError:
                    task.future = None
                    continue
                except BrokenProcessPool as exc:
                    broken = True
                    self._charge(task, "worker_death", repr(exc))
                    continue
                except Exception as exc:
                    self._charge(task, "worker_error", repr(exc))
                    continue
                self._complete(task, payload)
            if broken:
                # the pool is gone: every other in-flight job died with
                # it; at most n_workers jobs get charged per death
                for future, task in list(in_flight.items()):
                    del in_flight[future]
                    self._charge(task, "worker_death", "pool died")
                self._pool_died("BrokenProcessPool")
                continue
            # watchdog: kill the pool when any running job is overdue
            now = time.monotonic()
            overdue = [
                task
                for task in in_flight.values()
                if now - task.started_at > self.config.job_timeout
            ]
            if overdue:
                for future, task in list(in_flight.items()):
                    del in_flight[future]
                    if future.done() and not future.cancelled():
                        # finished in the window between wait() and now
                        try:
                            self._complete(task, future.result())
                            continue
                        except Exception:
                            pass
                    if task in overdue:
                        self._charge(
                            task,
                            "timeout",
                            f"exceeded {self.config.job_timeout:g}s",
                        )
                    else:
                        task.future = None  # innocent bystander: requeue
                self._pool_died("watchdog timeout")


# ----------------------------------------------------------------------
# the supervised scheduler
# ----------------------------------------------------------------------
def run_supervised(
    jobs_list: Sequence, stored: Sequence[Optional[RunStats]], n_workers: int
) -> List[RunStats]:
    """Run *jobs_list* across ``n_workers`` pool workers; results in job
    order.  :func:`repro.harness.parallel.run_variants` calls this for
    ``jobs > 1`` once its prescan (:func:`repro.harness.runner.lookup_variant`
    on every cell: the memo, then the store) has found a miss; *stored*
    holds what the prescan found, ``None`` for each miss.

    The misses run in two phases so that every trace is
    generated exactly once per campaign: first the trace keys of all
    missing cells are generated into the shared on-disk store, one task
    per benchmark family (one populate for all of its modes), then the
    simulations fan out, each worker loading its trace from the store.
    When the persistent cache is disabled a temporary directory serves
    as the campaign's shared store.  Results merge by job position, and
    the supervision described in the module docstring applies to both
    phases.  The phases share one pool: the simulations take over the
    trace phase's workers unless that phase degraded to serial.
    """
    import tempfile

    jobs_list = list(jobs_list)
    config = current_config()
    chaos = ChaosSpec.from_env()

    results: List[Optional[RunStats]] = list(stored)
    report = CampaignReport(
        campaign=campaign_id(jobs_list),
        jobs=len(jobs_list),
        chaos=chaos.render(),
    )
    _CAMPAIGNS.append(report)

    root = disk_cache.cache_root()
    scratch: Optional[tempfile.TemporaryDirectory] = None
    if root is None:
        scratch = tempfile.TemporaryDirectory(prefix="repro-scratch-")
        root = Path(scratch.name)
    root_str = str(root)

    missing: List[Tuple[int, object, object]] = [
        (index, job, job.trace_key)
        for index, (job, stats) in enumerate(zip(jobs_list, results))
        if stats is None
    ]
    report.prescan = len(jobs_list) - len(missing)
    report.scheduled = len(missing)

    def done(task: _Task, result, wall: float, worker: str) -> None:
        if task.kind == "trace":
            # one record per generated trace; the family's wall time is
            # shared evenly, as on the serial path
            for key in result:
                obs_metrics.record_variant(
                    "trace", f"{key.abbrev}/{key.mode.value}", "generated",
                    wall / len(result), worker=worker,
                )
            return
        results[task.index] = result
        runner.seed_stats_cache(task.key, task.config, result)
        obs_metrics.record_variant(
            "sim", task.label, "simulated", wall, worker=worker
        )
        report.completed += 1

    # one pool for both phases, sized for the larger (the simulations)
    pool = _PhaseRunner(
        min(n_workers, max(1, len(missing))), root_str, config, chaos, report,
        done,
    )
    try:
        # ---- phase 1: trace families ---------------------------------
        # one task per benchmark family, so a benchmark is populated
        # once however many of its modes are missing; each trace to
        # generate counts a miss, as on the serial path
        needed: List = []
        for key in dict.fromkeys(key for _, _, key in missing):
            memo = runner._TRACE_CACHE.get(key)
            if memo is None:
                if not disk_cache.has_trace(key, root=root_str):
                    needed.append(key)
            elif not disk_cache.has_trace(key, root_str, count=False):
                disk_cache.store_trace(key, memo, root=root_str)
        # the pool forks its workers from this process: import the timing
        # model, and the workloads when a trace is missing, here once
        # rather than in every worker
        from repro.uarch import pipeline  # noqa: F401

        if needed:
            workload_classes()
        trace_tasks: List[_Task] = []
        for family in runner.trace_families(needed):
            modes = "+".join(key.mode.value for key in family)
            trace_tasks.append(_Task(
                "trace", tuple(family), None, None,
                f"{family[0].abbrev}/{modes}", family_digest(family),
            ))
        pool.run(trace_tasks)

        # ---- phase 2: simulations ------------------------------------
        sim_tasks = [
            _Task(
                "sim", key, job.config, index,
                f"{key.abbrev}/{key.mode.value}", job_digest(job),
            )
            for index, job, key in missing
        ]
        pool.run(sim_tasks)

        report.completed += report.prescan
        return results  # type: ignore[return-value]
    finally:
        pool.close()
        if scratch is not None:
            scratch.cleanup()
        report.publish()
