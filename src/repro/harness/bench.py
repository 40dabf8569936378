"""Harness performance benchmark (``python -m repro bench``).

Times the three layers the performance work targets and records them in
``BENCH_harness.json`` so the perf trajectory is tracked across commits:

* **cold** — a Figure-8 regeneration against an empty cache (trace
  generation + simulation for every variant);
* **warm** — the same regeneration against the now-populated persistent
  cache (must be at least ~5x faster; warm runs only read JSON and
  columnar RPTR2 traces);
* **trace generation** — recorded micro-ops per second of a fresh,
  uncached ``generate_trace`` (construct, fast-forward populate, timed
  run) of the RT and HM LOG_P_SF traces at scaled sizes, the layer a
  cold sweep spends most of its time in;
* **pipeline throughput** — committed instructions per second of the
  timing model itself, measured **per kernel backend** (pure-Python
  walker and, when available, the vectorized NumPy kernel) on one long
  pointer-chase trace (LL/BASE) *and* on a miss-heavy hash-map trace
  that is classification-bound (HM/BASE grown past L1), plus a *sweep*
  number over every recorded bench variant (best-of-N per trace,
  columns/segments prewarmed — see ``docs/PERFORMANCE.md``).  The NumPy
  kernel's best rep is attributed per phase (classify vs solve), and
  ``classify_ips`` reports the classification pass's own throughput on
  the miss-heavy cell;
* **speculative pipeline throughput** — ``sp_ips``, committed
  instructions per second of one SP256 run of a trace that speculates
  from its first barrier to its end (SS/LOG_P_SF), the paper's own
  mechanism on the segment walker's speculative path.

The headline ``pipeline_ips`` is the sustained single-trace number for
the *active* backend; ``pipeline_ips_by_backend`` carries both
backends measured like-for-like in the same process, so the record
demonstrates the kernel speedup on every machine that writes one.

The bench uses a temporary cache directory so it never reads from (or
pollutes) the user's ``.repro-cache``.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import tempfile
import time
from contextlib import contextmanager
from datetime import datetime, timezone
from typing import Dict, List, Optional, Sequence

from repro.harness import cache as disk_cache
from repro.harness.figures import fig8_overheads
from repro.harness.parallel import default_jobs
from repro.harness.runner import (
    TraceKey,
    all_benchmarks,
    build_trace,
    clear_trace_cache,
    generate_trace,
)
from repro.txn.modes import PersistMode
from repro.uarch.config import MachineConfig
from repro.uarch import kernel as kernel_mod
from repro.uarch.kernel import numpy_available, resolve_backend
from repro.uarch.pipeline import simulate
from repro.uarch.system import SystemModel
from repro.workloads.concurrent import generate_concurrent

#: Subset used by ``bench --quick`` (CI smoke): the cheapest two traces.
QUICK_BENCHMARKS = ("LL", "GH")

DEFAULT_OUTPUT = "BENCH_harness.json"

#: Version of the *bench record* layout itself — independent of
#: :data:`repro.harness.cache.CACHE_SCHEMA_VERSION`, which keys the
#: persistent trace/stats store.  2: added ``schema``/``cache_schema``
#: split, ``git_rev``, and ``timestamp_utc`` fields.  3: added
#: ``cold_cache``/``warm_cache`` hit/miss counter deltas per phase.
#: 4: ``pipeline_ips`` became the sustained single-trace throughput of
#: the active kernel backend (previously an aggregate over the small
#: bench variants, now recorded as ``sweep_ips``); added
#: ``kernel_backend``, ``pipeline_ips_by_backend``,
#: ``sweep_ips_by_backend``, and the ``pipeline_trace`` descriptor.
#: 5: added ``system_ips`` — aggregate multi-core throughput of the
#: :class:`~repro.uarch.system.SystemModel` co-simulation driver (total
#: committed instructions across cores per wall-clock second, conflicts
#: included) with its ``system_trace`` descriptor.  Tracked, no floor
#: enforced yet.
#: 6: added the miss-heavy sustained cell (``miss_trace``,
#: ``miss_instructions``, ``miss_seconds``, ``miss_ips``,
#: ``miss_ips_by_backend`` with its own ``MISS_IPS_FLOORS``), the
#: per-phase attribution of the NumPy kernel's best sustained rep
#: (``pipeline_phase_seconds``/``miss_phase_seconds``, classify vs
#: solve), and ``classify_ips`` — committed instructions per second of
#: classification time alone on the miss-heavy trace, the direct
#: microbench of the classification pass.
#: 7: added host provenance (``python_version``, ``numpy_version``,
#: ``cpu_count``) so history records are comparable across machines,
#: and the append-only ``BENCH_history.jsonl`` trail every run joins
#: (``bench --compare`` reads it — see :func:`compare_to_history`).
#: 8: added the trace-generation cell (``gen_trace``,
#: ``gen_instructions``, ``gen_seconds``, ``gen_ips``) with its floor
#: ``GEN_IPS_FLOOR``.
#: 9: dropped ``classify_mode``: the kernel has one classification pass,
#: so there is no mode to record or to match in :func:`comparable`.
#: 10: added the single-core speculative cell (``sp_trace``,
#: ``sp_instructions``, ``sp_seconds``, ``sp_ips``) with its floor
#: ``SP_IPS_FLOOR``.
#: 11: ``system_ips`` gained its floor ``SYSTEM_IPS_FLOOR``, once the
#: co-simulation driver ran its cores in stretches on the segment walker.
BENCH_SCHEMA_VERSION = 11

#: Append-only JSON-lines trail of every bench record ever taken on
#: this checkout; ``bench --compare`` mines it for the best comparable
#: prior record per metric.
DEFAULT_HISTORY = "BENCH_history.jsonl"

#: Throughput metrics tracked by ``bench --compare``, and the relative
#: drop against the best comparable prior measurement that counts as a
#: regression.  0.25 leaves room for host noise (frequency scaling,
#: noisy CI neighbours) while catching the order-of-magnitude cliffs
#: the floors exist for — but, unlike the static floors, relative to
#: *this machine's* own history.
COMPARE_TOLERANCE = 0.25
COMPARE_METRICS = (
    "pipeline_ips_by_backend",
    "miss_ips_by_backend",
    "sweep_ips_by_backend",
    "classify_ips",
    "system_ips",
    "gen_ips",
    "sp_ips",
)

#: Sustained-throughput trace: the paper's linked-list benchmark on the
#: unfenced baseline, scaled up until per-run fixed costs vanish (a few
#: hundred thousand micro-ops of pointer chasing, field accesses, and
#: list surgery with no persist events).  One long BASE trace isolates
#: the pipeline model's steady-state speed from the event-handling and
#: cache-layer costs that the cold/warm phases already track.  Quick
#: mode uses a shorter run so CI stays fast.
SUSTAINED_BENCHMARK = "LL"
SUSTAINED_SIM_OPS = 200
SUSTAINED_SIM_OPS_QUICK = 60

#: Miss-heavy sustained cell: the hash-map benchmark grown far past L1
#: (a long randomized init walks the table over every cache set, then
#: the timed ops chase buckets with no locality), so the classification
#: pass — not the recurrence solve — is what this cell measures.  The
#: LL cell above is hit-dominated and barely exercises the miss walk;
#: CI enforcing only it would let classification regressions ship.
MISS_BENCHMARK = "HM"
MISS_INIT_OPS = 20_000
MISS_SIM_OPS = 5_000
MISS_SIM_OPS_QUICK = 1_200

#: SSB entries of the speculative (SP256) machine that the multi-core
#: and speculative cells below run on.
SP_SSB_ENTRIES = 256

#: Multi-core throughput cell: a moderately contended 2-core hash-map
#: run on the speculative machine, so the measurement covers the whole
#: co-simulation driver — min-clock scheduling, store broadcasts, BLT
#: probes, and abort/replay — not just the per-core exact loops.
SYSTEM_BENCHMARK = "HM"
SYSTEM_CORES = 2
SYSTEM_CONTENTION = 0.5
SYSTEM_SIM_OPS = 200
SYSTEM_SIM_OPS_QUICK = 60

#: Speculative cell: the string-swap benchmark's LOG_P_SF trace at the
#: registry's scaled size on the SP256 machine.  Its first barrier
#: enters speculation and checkpoint stalls keep an epoch open until the
#: end, so nearly every instruction runs speculatively: the cell times
#: the walker's speculative path (epoch polls, bloom/SSB probes, SSB
#: appends), which none of the baseline cells above reach.  Quick mode
#: measures the same cell (about a tenth of a second per rep).
SP_BENCHMARK = "SS"

#: Generation cell: a fresh, uncached ``generate_trace`` of each of
#: these benchmarks at LOG_P_SF and the registry's scaled sizes, best of
#: ``GEN_REPS`` per benchmark.  RT is dry-run heavy (full logging of a
#: rebalancing tree), HM store heavy (a large zeroed table); together
#: they cover what a cold sweep's generation spends its time on.  Quick
#: mode measures the same cell: it is already only a few seconds.
GEN_BENCHMARKS = ("RT", "HM")
GEN_REPS = 3

#: Floor for ``gen_ips`` under ``bench --enforce-floor``: about 40% of
#: the rate measured on a 2-CPU development container, which read
#: 49k–90k micro-ops/s as the host's speed swung.  The logged populate
#: this cell guards against ran it at ~13k on the same host.
GEN_IPS_FLOOR = 30_000

#: Floor for ``sp_ips`` under ``bench --enforce-floor``: about half the
#: rate measured on a 2-CPU development container once the segment
#: walker ran speculative epochs (medians 450k–490k instr/s over a dozen
#: runs, with and without numpy; 420k–660k as the host's speed swung).
#: Stepping every speculative op through ``_step`` ran the same cell at
#: 160k–280k, so the floor catches a collapse, and
#: ``test_speculative_execution_runs_on_the_fast_path`` the path itself.
SP_IPS_FLOOR = 225_000

#: Floor for ``system_ips`` under ``bench --enforce-floor``: about half
#: the rate measured on a 2-CPU development container once the
#: co-simulation driver ran its cores in stretches on the segment walker
#: (median 171k instr/s over five quick runs, 162k–237k as the host's
#: speed swung).  Stepping every unit ran the same cell at 80k–140k, so
#: the floor catches a collapse, and ``test_system_runs_take_the_fast_path``
#: the path itself.
SYSTEM_IPS_FLOOR = 85_000

#: Per-backend regression floors for ``bench --enforce-floor`` (CI):
#: the run fails if a measured backend's sustained ``pipeline_ips``
#: lands below its floor.  Set to roughly half the throughput measured
#: on a developer machine, leaving headroom for slower CI hardware
#: while still catching order-of-magnitude regressions (the Python
#: walker sliding back to per-``Instr`` dispatch, the NumPy kernel
#: silently degrading to the walker).
PIPELINE_IPS_FLOORS = {"python": 800_000, "numpy": 3_500_000}

#: Floors for the miss-heavy sustained cell (``miss_ips_by_backend``):
#: same half-of-measured policy, sized to the classification-bound
#: regime where throughput is far below the LL cell's.
MISS_IPS_FLOORS = {"python": 250_000, "numpy": 1_000_000}

#: Backwards-compatible alias: the floor every backend must clear.
PIPELINE_IPS_FLOOR = PIPELINE_IPS_FLOORS["python"]


def _host_provenance() -> Dict[str, object]:
    """Interpreter / numpy / host facts stamped into every record, so a
    history comparison can tell a code regression from a toolchain or
    machine change."""
    import platform

    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python_version": platform.python_version(),
        "numpy_version": numpy_version,
        "cpu_count": os.cpu_count(),
    }


def _git_rev() -> Optional[str]:
    """The short git revision of the working tree, or ``None`` outside a
    checkout (benches must work from tarballs too)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, ValueError, subprocess.SubprocessError):
        # git missing, hung (TimeoutExpired), unrunnable, or emitting
        # undecodable output — the record is still useful without a rev
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


@contextmanager
def _isolated_cache(root: str):
    """Point the persistent cache at *root* for the duration of the bench."""
    saved_dir = os.environ.get(disk_cache.ENV_CACHE_DIR)
    saved_off = os.environ.get(disk_cache.ENV_NO_CACHE)
    os.environ[disk_cache.ENV_CACHE_DIR] = root
    os.environ.pop(disk_cache.ENV_NO_CACHE, None)
    # a runtime cache degrade (ENOSPC elsewhere) must not leak into the
    # bench's isolated store, which lives on a fresh temp directory
    disk_cache.reset_runtime_disable()
    try:
        yield
    finally:
        if saved_dir is None:
            os.environ.pop(disk_cache.ENV_CACHE_DIR, None)
        else:
            os.environ[disk_cache.ENV_CACHE_DIR] = saved_dir
        if saved_off is not None:
            os.environ[disk_cache.ENV_NO_CACHE] = saved_off


def _phases_since(before: Dict[str, float]) -> Dict[str, float]:
    """Kernel classify/solve seconds spent since *before* was read."""
    after = kernel_mod.phase_seconds()
    return {phase: after[phase] - before[phase] for phase in after}


def measure_generation(seed: int = 7, reps: int = GEN_REPS) -> Dict[str, float]:
    """The generation cell: micro-ops recorded and best-of-*reps*
    seconds summed over :data:`GEN_BENCHMARKS`."""
    instructions = 0
    seconds = 0.0
    for abbrev in GEN_BENCHMARKS:
        key = TraceKey(abbrev, PersistMode.LOG_P_SF, seed)
        best = float("inf")
        for _ in range(reps):
            gc.collect()
            t0 = time.perf_counter()
            trace = generate_trace(key)
            best = min(best, time.perf_counter() - t0)
        instructions += len(trace)
        seconds += best
    return {"instructions": instructions, "seconds": seconds}


def run_bench(
    quick: bool = False,
    output: Optional[str] = DEFAULT_OUTPUT,
    benchmarks: Optional[Sequence[str]] = None,
    seed: int = 7,
    history: Optional[str] = None,
) -> Dict[str, object]:
    """Run the harness benchmark; returns (and optionally writes) the record.

    With *history*, the record is additionally appended to that
    JSON-lines trail (one record per line; see :func:`append_history`) —
    the CLI passes ``BENCH_history.jsonl`` so every bench run feeds the
    regression-tracking corpus ``bench --compare`` mines."""
    names: List[str] = list(
        benchmarks or (QUICK_BENCHMARKS if quick else all_benchmarks())
    )

    def _counter_delta(
        after: Dict[str, int], before: Dict[str, int]
    ) -> Dict[str, int]:
        return {key: after[key] - before.get(key, 0) for key in after}

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        with _isolated_cache(tmp):
            clear_trace_cache()
            counters_start = disk_cache.cache_counters().as_dict()
            t0 = time.perf_counter()
            fig8_overheads(names, seed=seed)
            cold = time.perf_counter() - t0
            counters_cold = disk_cache.cache_counters().as_dict()

            # drop the in-process memo so the warm run exercises the disk
            # cache, exactly like a fresh process against .repro-cache
            clear_trace_cache()
            t0 = time.perf_counter()
            fig8_overheads(names, seed=seed)
            warm = time.perf_counter() - t0
            counters_warm = disk_cache.cache_counters().as_dict()

            # pipeline throughput: re-simulate recorded traces (cache
            # hits now) on the baseline machine and count committed
            # instructions per wall-clock second, once per kernel
            # backend so the record carries a like-for-like comparison.
            # Columns and segments are memoized per-trace artifacts
            # amortised over every simulation of that trace, so they
            # are built outside the timer; per-trace best-of-N damps
            # scheduler noise so the number tracks the model, not the
            # machine's mood.  GC is paused across the timed region —
            # the cold sweep above leaves plenty of garbage, and a
            # collection pause inside a 20 ms sample would swamp the
            # measurement.
            backends = ["python"] + (["numpy"] if numpy_available() else [])
            active_backend = resolve_backend(None)
            reps = 5
            variants = []
            for ab in names:
                for mode in (PersistMode.BASE, PersistMode.LOG_P_SF):
                    trace = build_trace(ab, mode, seed=seed)
                    trace.columns()
                    trace.segments()
                    variants.append(trace)
            sustained_ops = SUSTAINED_SIM_OPS_QUICK if quick else SUSTAINED_SIM_OPS
            sustained = build_trace(
                SUSTAINED_BENCHMARK, PersistMode.BASE, seed=seed,
                sim_ops=sustained_ops,
            )
            sustained.columns()
            sustained.segments()
            miss_ops = MISS_SIM_OPS_QUICK if quick else MISS_SIM_OPS
            miss = build_trace(
                MISS_BENCHMARK, PersistMode.BASE, seed=seed,
                init_ops=MISS_INIT_OPS, sim_ops=miss_ops,
            )
            miss.columns()
            miss.segments()
            system_ops = SYSTEM_SIM_OPS_QUICK if quick else SYSTEM_SIM_OPS
            system_run = generate_concurrent(
                SYSTEM_BENCHMARK, PersistMode.LOG_P_SF,
                n_cores=SYSTEM_CORES, contention=SYSTEM_CONTENTION,
                seed=seed, sim_ops=system_ops,
            )
            for trace in system_run.traces:
                trace.columns()
            sp_trace = build_trace(SP_BENCHMARK, PersistMode.LOG_P_SF, seed=seed)
            sp_trace.columns()
            sp_trace.segments()
            sp_config = MachineConfig().with_sp(SP_SSB_ENTRIES)

            sweep_best = {
                backend: [float("inf")] * len(variants) for backend in backends
            }
            sustained_best = {backend: float("inf") for backend in backends}
            miss_best = {backend: float("inf") for backend in backends}
            sweep_instructions = 0
            sustained_instructions = 0
            miss_instructions = 0
            sustained_phases: Optional[Dict[str, float]] = None
            miss_phases: Optional[Dict[str, float]] = None
            gc_was_enabled = gc.isenabled()
            gc.collect()
            gc.disable()
            try:
                # round-interleaved sampling: each trace's reps are spread
                # across the whole measurement window instead of run
                # back-to-back, so a transient slow spell (scheduler,
                # frequency scaling) can't poison every sample of one trace
                for rep in range(reps):
                    for backend in backends:
                        for i, trace in enumerate(variants):
                            t0 = time.perf_counter()
                            stats = simulate(trace, MachineConfig(), kernel=backend)
                            elapsed = time.perf_counter() - t0
                            if elapsed < sweep_best[backend][i]:
                                sweep_best[backend][i] = elapsed
                            if rep == 0 and backend == backends[0]:
                                sweep_instructions += stats.instructions
                for rep in range(reps):
                    for backend in backends:
                        before = kernel_mod.phase_seconds()
                        t0 = time.perf_counter()
                        stats = simulate(sustained, MachineConfig(), kernel=backend)
                        elapsed = time.perf_counter() - t0
                        if elapsed < sustained_best[backend]:
                            sustained_best[backend] = elapsed
                            if backend == "numpy":
                                sustained_phases = _phases_since(before)
                        sustained_instructions = stats.instructions
                for rep in range(reps):
                    for backend in backends:
                        before = kernel_mod.phase_seconds()
                        t0 = time.perf_counter()
                        stats = simulate(miss, MachineConfig(), kernel=backend)
                        elapsed = time.perf_counter() - t0
                        if elapsed < miss_best[backend]:
                            miss_best[backend] = elapsed
                            if backend == "numpy":
                                miss_phases = _phases_since(before)
                        miss_instructions = stats.instructions
                sp_best = float("inf")
                for rep in range(reps):
                    t0 = time.perf_counter()
                    stats = simulate(sp_trace, sp_config)
                    sp_best = min(sp_best, time.perf_counter() - t0)
                sp_instructions = stats.instructions
                # multi-core driver throughput on the SP machine (its
                # stretches run on the segment walker; the kernel never
                # runs there, so the cell is backend-independent); a
                # fresh SystemModel per rep, since core stats accumulate
                system_best = float("inf")
                system_instructions = 0
                for rep in range(reps):
                    system = SystemModel(sp_config, n_cores=SYSTEM_CORES)
                    t0 = time.perf_counter()
                    result = system.run(system_run.traces)
                    elapsed = time.perf_counter() - t0
                    if elapsed < system_best:
                        system_best = elapsed
                    system_instructions = sum(
                        stats.instructions for stats in result.per_core
                    )
            finally:
                if gc_was_enabled:
                    gc.enable()
            generation = measure_generation(seed)
            sweep_seconds = {
                backend: sum(times) for backend, times in sweep_best.items()
            }
            sweep_ips = {
                backend: round(sweep_instructions / seconds)
                for backend, seconds in sweep_seconds.items()
                if seconds
            }
            pipeline_ips = {
                backend: round(sustained_instructions / seconds)
                for backend, seconds in sustained_best.items()
                if seconds
            }
            miss_ips = {
                backend: round(miss_instructions / seconds)
                for backend, seconds in miss_best.items()
                if seconds
            }
        clear_trace_cache()

    def _round_phases(phases: Optional[Dict[str, float]]):
        if not phases:
            return None
        return {name: round(seconds, 4) for name, seconds in phases.items()}

    classify_seconds = (miss_phases or {}).get("classify", 0.0)
    classify_ips = (
        round(miss_instructions / classify_seconds) if classify_seconds else None
    )

    record: Dict[str, object] = {
        "bench": "harness",
        "schema": BENCH_SCHEMA_VERSION,
        "cache_schema": disk_cache.CACHE_SCHEMA_VERSION,
        "git_rev": _git_rev(),
        "timestamp_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        **_host_provenance(),
        "quick": quick,
        "benchmarks": names,
        "jobs": default_jobs(),
        "cold_seconds": round(cold, 3),
        "warm_seconds": round(warm, 3),
        "warm_speedup": round(cold / warm, 1) if warm > 0 else None,
        "cold_cache": _counter_delta(counters_cold, counters_start),
        "warm_cache": _counter_delta(counters_warm, counters_cold),
        "kernel_backend": active_backend,
        "pipeline_trace": {
            "benchmark": SUSTAINED_BENCHMARK,
            "mode": PersistMode.BASE.value,
            "sim_ops": sustained_ops,
        },
        "pipeline_instructions": sustained_instructions,
        "pipeline_reps": reps,
        "pipeline_seconds": round(sustained_best.get(active_backend, 0.0), 3),
        "pipeline_ips": pipeline_ips.get(active_backend),
        "pipeline_ips_by_backend": pipeline_ips,
        "pipeline_phase_seconds": _round_phases(sustained_phases),
        "miss_trace": {
            "benchmark": MISS_BENCHMARK,
            "mode": PersistMode.BASE.value,
            "init_ops": MISS_INIT_OPS,
            "sim_ops": miss_ops,
        },
        "miss_instructions": miss_instructions,
        "miss_seconds": round(miss_best.get(active_backend, 0.0), 3),
        "miss_ips": miss_ips.get(active_backend),
        "miss_ips_by_backend": miss_ips,
        "miss_phase_seconds": _round_phases(miss_phases),
        "classify_ips": classify_ips,
        "sweep_instructions": sweep_instructions,
        "sweep_seconds": round(sweep_seconds.get(active_backend, 0.0), 3),
        "sweep_ips": sweep_ips.get(active_backend),
        "sweep_ips_by_backend": sweep_ips,
        "system_trace": {
            "benchmark": SYSTEM_BENCHMARK,
            "mode": PersistMode.LOG_P_SF.value,
            "cores": SYSTEM_CORES,
            "contention": SYSTEM_CONTENTION,
            "sim_ops": system_ops,
        },
        "system_instructions": system_instructions,
        "system_seconds": round(system_best, 3),
        "system_ips": (
            round(system_instructions / system_best) if system_best else None
        ),
        "sp_trace": {
            "benchmark": SP_BENCHMARK,
            "mode": PersistMode.LOG_P_SF.value,
            "ssb_entries": SP_SSB_ENTRIES,
        },
        "sp_instructions": sp_instructions,
        "sp_seconds": round(sp_best, 3),
        "sp_ips": round(sp_instructions / sp_best) if sp_best else None,
        "gen_trace": {
            "benchmarks": list(GEN_BENCHMARKS),
            "mode": PersistMode.LOG_P_SF.value,
            "reps": GEN_REPS,
        },
        "gen_instructions": generation["instructions"],
        "gen_seconds": round(generation["seconds"], 3),
        "gen_ips": (
            round(generation["instructions"] / generation["seconds"])
            if generation["seconds"] else None
        ),
    }
    if output:
        with open(output, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if history:
        append_history(record, history)
    return record


# ----------------------------------------------------------------------
# bench history: append-only trail + regression comparison
# ----------------------------------------------------------------------
def append_history(record: Dict[str, object], path: str = DEFAULT_HISTORY) -> None:
    """Append *record* as one JSON line to the history trail.

    The whole line goes down in a single ``write(2)`` on an ``O_APPEND``
    descriptor: POSIX appends are atomic per write, so concurrent bench
    runs — routine under ``repro serve`` — interleave whole lines, never
    partial ones.  (Buffered ``file.write`` offers no such guarantee:
    the libc buffer may flush mid-line.)
    """
    line = (json.dumps(record, sort_keys=True) + "\n").encode()
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, line)
    finally:
        os.close(fd)


def load_history(path: str = DEFAULT_HISTORY) -> List[Dict[str, object]]:
    """Every parseable record in the trail, oldest first.

    Unparseable lines are skipped, not fatal: a run killed mid-append
    leaves a torn last line, and one bad write must not brick every
    future comparison.
    """
    records: List[Dict[str, object]] = []
    try:
        with open(path, "r") as handle:
            lines = handle.readlines()
    except OSError:
        return records
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            parsed = json.loads(line)
        except ValueError:
            continue
        if isinstance(parsed, dict):
            records.append(parsed)
    return records


def _comparable_metrics(record: Dict[str, object]) -> Dict[str, float]:
    """Flatten the tracked throughput metrics of one record into
    ``metric[/backend] -> ips`` (missing/null measurements dropped)."""
    flat: Dict[str, float] = {}
    for metric in COMPARE_METRICS:
        value = record.get(metric)
        if isinstance(value, dict):
            for backend, ips in value.items():
                if isinstance(ips, (int, float)) and ips > 0:
                    flat[f"{metric}/{backend}"] = float(ips)
        elif isinstance(value, (int, float)) and value > 0:
            flat[metric] = float(value)
    return flat


def comparable(record: Dict[str, object], prior: Dict[str, object]) -> bool:
    """Whether *prior* is a like-for-like baseline for *record*: same
    quick/full shape and same active kernel backend — anything else
    measures a different configuration, not a regression."""
    keys = ("quick", "kernel_backend")
    return all(prior.get(key) == record.get(key) for key in keys)


def compare_to_history(
    record: Dict[str, object],
    history: Sequence[Dict[str, object]],
    tolerance: float = COMPARE_TOLERANCE,
    ref: Optional[str] = None,
) -> Dict[str, object]:
    """Compare *record* against the best comparable prior measurements.

    For each tracked metric, the baseline is the **best** value over the
    comparable history records (with *ref*, only records whose
    ``git_rev`` starts with it) — best-of-history damps the noise a
    single slow baseline run would inject.  A metric regresses when it
    lands below ``baseline * (1 - tolerance)``.

    Returns ``{"compared", "baselines", "regressions", "improvements"}``
    where ``regressions`` is a list of human-readable findings (empty =
    pass) and ``compared`` counts the history records consulted.  A
    warn-only CI gate prints the findings without failing the build.
    """
    current = _comparable_metrics(record)
    candidates = [prior for prior in history if comparable(record, prior)]
    if ref:
        candidates = [
            prior for prior in candidates
            if str(prior.get("git_rev") or "").startswith(ref)
        ]
    baselines: Dict[str, Dict[str, object]] = {}
    for prior in candidates:
        for name, ips in _comparable_metrics(prior).items():
            best = baselines.get(name)
            if best is None or ips > best["ips"]:
                baselines[name] = {
                    "ips": ips,
                    "git_rev": prior.get("git_rev"),
                    "timestamp_utc": prior.get("timestamp_utc"),
                }
    regressions: List[str] = []
    improvements: List[str] = []
    for name, baseline in sorted(baselines.items()):
        now = current.get(name)
        if now is None:
            regressions.append(
                f"{name}: measured {baseline['ips']:,.0f} instr/s at "
                f"{baseline['git_rev']}, missing from this record"
            )
            continue
        floor = baseline["ips"] * (1.0 - tolerance)
        if now < floor:
            regressions.append(
                f"{name}: {now:,.0f} instr/s is {1 - now / baseline['ips']:.0%}"
                f" below the best prior {baseline['ips']:,.0f}"
                f" ({baseline['git_rev']} @ {baseline['timestamp_utc']};"
                f" tolerance {tolerance:.0%})"
            )
        elif now > baseline["ips"]:
            improvements.append(
                f"{name}: {now:,.0f} instr/s beats the best prior "
                f"{baseline['ips']:,.0f}"
            )
    return {
        "compared": len(candidates),
        "baselines": baselines,
        "regressions": regressions,
        "improvements": improvements,
    }


def render_compare(result: Dict[str, object]) -> str:
    """Human-readable summary of a :func:`compare_to_history` result."""
    compared = result.get("compared", 0)
    if not compared:
        return "bench compare: no comparable history records (trail starts here)"
    lines = [
        f"bench compare: {compared} comparable history records,"
        f" {len(result['baselines'])} metrics"
    ]
    regressions = result.get("regressions") or []
    improvements = result.get("improvements") or []
    for finding in regressions:
        lines.append(f"  REGRESSION {finding}")
    for finding in improvements:
        lines.append(f"  improved   {finding}")
    if not regressions:
        lines.append("  no regressions beyond tolerance")
    return "\n".join(lines)


def _fmt(value: object, spec: str = "", missing: str = "n/a") -> str:
    """Format *value* with *spec*, or a placeholder when it is ``None``.

    Bench records from interrupted or degenerate runs (zero measured
    seconds, no git checkout) legitimately carry ``None`` fields; the
    renderer must not crash on them.
    """
    if value is None:
        return missing
    return format(value, spec)


def render_bench(record: Dict[str, object]) -> str:
    """Human-readable summary of a bench record (``None``-field safe)."""
    provenance = []
    if record.get("git_rev"):
        provenance.append(str(record["git_rev"]))
    if record.get("timestamp_utc"):
        provenance.append(str(record["timestamp_utc"]))
    lines = [
        f"harness bench ({'quick, ' if record.get('quick') else ''}"
        f"{len(record.get('benchmarks') or [])} benchmarks,"
        f" jobs={_fmt(record.get('jobs'))},"
        f" kernel={_fmt(record.get('kernel_backend'))})",
        f"  cold figure-8 run : {_fmt(record.get('cold_seconds'), '>8.3f')} s",
        f"  warm (cached) run : {_fmt(record.get('warm_seconds'), '>8.3f')} s"
        f"   ({_fmt(record.get('warm_speedup'))}x speedup)",
        f"  pipeline model    : {_fmt(record.get('pipeline_ips'), '>8,')} instr/s"
        f" sustained ({_fmt(record.get('pipeline_instructions'), ',')} instrs"
        f" in {_fmt(record.get('pipeline_seconds'))} s)",
    ]
    by_backend = record.get("pipeline_ips_by_backend")
    sweep_by_backend = record.get("sweep_ips_by_backend") or {}
    if isinstance(by_backend, dict) and by_backend:
        for backend in sorted(by_backend):
            sweep = sweep_by_backend.get(backend)
            lines.append(
                f"    {backend:<8}        : {_fmt(by_backend[backend], '>8,')}"
                f" instr/s sustained,"
                f" {_fmt(sweep, ',')} instr/s variant sweep"
            )
    elif record.get("sweep_ips") is not None:
        lines.append(
            f"  variant sweep     : {_fmt(record.get('sweep_ips'), '>8,')} instr/s"
        )
    if record.get("miss_ips") is not None:
        lines.append(
            f"  miss-heavy model  : {_fmt(record.get('miss_ips'), '>8,')} instr/s"
            f" sustained ({_fmt(record.get('miss_instructions'), ',')} instrs"
            f" in {_fmt(record.get('miss_seconds'))} s)"
        )
        miss_by_backend = record.get("miss_ips_by_backend")
        if isinstance(miss_by_backend, dict) and miss_by_backend:
            for backend in sorted(miss_by_backend):
                lines.append(
                    f"    {backend:<8}        : "
                    f"{_fmt(miss_by_backend[backend], '>8,')} instr/s sustained"
                )
    phases = record.get("miss_phase_seconds")
    if isinstance(phases, dict) and phases:
        split = ", ".join(
            f"{name} {_fmt(seconds, '.3f')} s" for name, seconds in sorted(phases.items())
        )
        lines.append(
            f"  kernel phase split: {split}"
            f" (classify_ips {_fmt(record.get('classify_ips'), ',')})"
        )
    if record.get("sp_ips") is not None:
        descriptor = record.get("sp_trace") or {}
        lines.append(
            f"  speculative model : {_fmt(record.get('sp_ips'), '>8,')} instr/s"
            f" ({_fmt(descriptor.get('benchmark'))}"
            f" SP{_fmt(descriptor.get('ssb_entries'))},"
            f" {_fmt(record.get('sp_instructions'), ',')} instrs"
            f" in {_fmt(record.get('sp_seconds'))} s)"
        )
    if record.get("gen_ips") is not None:
        descriptor = record.get("gen_trace") or {}
        lines.append(
            f"  trace generation  : {_fmt(record.get('gen_ips'), '>8,')} instr/s"
            f" ({'+'.join(descriptor.get('benchmarks') or [])},"
            f" {_fmt(record.get('gen_instructions'), ',')} micro-ops"
            f" in {_fmt(record.get('gen_seconds'))} s)"
        )
    if record.get("system_ips") is not None:
        descriptor = record.get("system_trace") or {}
        lines.append(
            f"  multi-core system : {_fmt(record.get('system_ips'), '>8,')} instr/s"
            f" aggregate ({_fmt(descriptor.get('cores'))} cores,"
            f" p={_fmt(descriptor.get('contention'))})"
        )
    for phase in ("cold", "warm"):
        counters = record.get(f"{phase}_cache")
        if isinstance(counters, dict):
            hits = counters.get("trace_hits", 0) + counters.get("stats_hits", 0)
            misses = (
                counters.get("trace_misses", 0) + counters.get("stats_misses", 0)
            )
            lines.append(
                f"  {phase} cache        : {hits} hits / {misses} misses"
                f" (coordinator process)"
            )
    if provenance:
        lines.append(f"  recorded at       : {' @ '.join(reversed(provenance))}")
    return "\n".join(lines)


def check_floor(
    record: Dict[str, object], floors: Optional[Dict[str, int]] = None
) -> Optional[str]:
    """Return an error message if any measured backend's sustained
    ``pipeline_ips`` is below its floor (or the measurement is missing),
    or ``gen_ips`` is below :data:`GEN_IPS_FLOOR`, or ``sp_ips`` below
    :data:`SP_IPS_FLOOR`, or ``system_ips`` below :data:`SYSTEM_IPS_FLOOR`,
    else ``None``.  CI runs the quick bench with ``--enforce-floor`` so a
    regression — the walker sliding back to per-object dispatch, the NumPy
    kernel silently degrading to walker speed, populate doing persistence
    work again, speculation or the multi-core driver going back to per-op
    stepping — fails the build instead of silently shipping.  Only
    backends actually measured are checked, so the no-NumPy CI leg
    enforces the Python floor alone."""
    floors = PIPELINE_IPS_FLOORS if floors is None else floors
    by_backend = record.get("pipeline_ips_by_backend")
    if not isinstance(by_backend, dict) or not by_backend:
        # pre-v4 records carried one aggregate number
        ips = record.get("pipeline_ips")
        if ips is None:
            return "bench record has no pipeline_ips measurement"
        by_backend = {"python": ips}
    problems = []
    for backend, ips in sorted(by_backend.items()):
        floor = floors.get(backend)
        if floor is not None and ips < floor:
            problems.append(
                f"pipeline throughput regression ({backend} backend): "
                f"{ips:,} instr/s is below the checked-in floor of "
                f"{floor:,} instr/s"
            )
    # the miss-heavy cell has its own floors (absent in pre-v6 records);
    # only enforced when default floors are in effect, so callers passing
    # explicit LL floors keep the old single-cell contract
    miss_by_backend = record.get("miss_ips_by_backend")
    if floors is PIPELINE_IPS_FLOORS and isinstance(miss_by_backend, dict):
        for backend, ips in sorted(miss_by_backend.items()):
            floor = MISS_IPS_FLOORS.get(backend)
            if floor is not None and ips < floor:
                problems.append(
                    f"miss-heavy throughput regression ({backend} backend): "
                    f"{ips:,} instr/s is below the checked-in floor of "
                    f"{floor:,} instr/s"
                )
    # so does the backend-independent generation cell (absent in pre-v8
    # records)
    gen_ips = record.get("gen_ips")
    if floors is PIPELINE_IPS_FLOORS and isinstance(gen_ips, (int, float)):
        if gen_ips < GEN_IPS_FLOOR:
            problems.append(
                f"trace generation regression: {gen_ips:,} instr/s is below "
                f"the checked-in floor of {GEN_IPS_FLOOR:,} instr/s"
            )
    # and the speculative cell (absent in pre-v10 records)
    sp_ips = record.get("sp_ips")
    if floors is PIPELINE_IPS_FLOORS and isinstance(sp_ips, (int, float)):
        if sp_ips < SP_IPS_FLOOR:
            problems.append(
                f"speculative pipeline regression: {sp_ips:,} instr/s is below "
                f"the checked-in floor of {SP_IPS_FLOOR:,} instr/s"
            )
    # and the multi-core driver
    system_ips = record.get("system_ips")
    if floors is PIPELINE_IPS_FLOORS and isinstance(system_ips, (int, float)):
        if system_ips < SYSTEM_IPS_FLOOR:
            problems.append(
                f"multi-core driver regression: {system_ips:,} instr/s is "
                f"below the checked-in floor of {SYSTEM_IPS_FLOOR:,} instr/s"
            )
    return "; ".join(problems) if problems else None
