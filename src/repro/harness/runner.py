"""Trace generation and variant simulation, with two cache layers.

Every lookup goes through an in-process memo first and then the
persistent on-disk store (:mod:`repro.harness.cache`), so repeated runs
of figures, sweeps, and the test suites regenerate nothing that is
already known.  The parallel scheduler (:mod:`repro.harness.parallel`)
shares the same disk store across worker processes.

The trace memo holds one trace per benchmark family, its ``LOG_P_SF``
recording (with its segment index once simulated).  The other modes are
projections of it (:func:`generate_traces`): read from the store or
projected again, they are never kept (:func:`family_traces`).

Traces flow through here in their **columnar form**
(:class:`~repro.isa.columns.TraceColumns`): disk hits deserialise the
RPTR2 column sections straight into a column-backed
:class:`~repro.isa.trace.Trace` without materialising a single
``Instr``, the timing model consumes the packed columns and the memoized
segment list directly, and freshly generated traces are columnarised
once and reuse that form for both serialisation and simulation.

Nothing here imports the timing model or the workloads at module level:
:func:`simulate` and :func:`Workbench` import them at their first call,
so a process whose every lookup hits loads neither (nor NumPy).  The
runner calls both through this module's namespace, where the traced
passes of ``wallbench/`` wrap them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.harness import cache as disk_cache
from repro.obs import metrics as obs_metrics
from repro.obs import telemetry
from repro.stats.run import RunStats
from repro.txn.modes import PersistMode
from repro.uarch.config import MachineConfig
from repro.workloads.registry import PAPER_SPECS, WORKLOADS

if TYPE_CHECKING:
    from repro.isa.trace import Trace
    from repro.workloads import base


def simulate(trace: Trace, config: MachineConfig) -> RunStats:
    """:func:`repro.uarch.pipeline.simulate`.  The timing model, and
    NumPy with it, loads at the first call: a run that finds every cell
    in the store never imports it."""
    from repro.uarch import pipeline

    return pipeline.simulate(trace, config)


def Workbench(**kwargs) -> base.Workbench:
    """A new :class:`repro.workloads.base.Workbench`, imported at the
    first trace this process generates."""
    from repro.workloads import base

    return base.Workbench(**kwargs)


@dataclass(frozen=True)
class TraceKey:
    """Cache key for a generated trace.

    ``cores``/``contention`` identify multi-core cells
    (:func:`run_system`); the defaults keep every single-core key — and
    its digest inputs — distinct from any multi-core cell, so a 2-core
    run can never alias the single-core cache entry.
    """

    abbrev: str
    mode: PersistMode
    seed: int
    init_ops: Optional[int] = None
    sim_ops: Optional[int] = None
    cores: int = 1
    contention: float = 0.0


_TRACE_CACHE: Dict[TraceKey, Trace] = {}
_STATS_CACHE: Dict[Tuple[TraceKey, MachineConfig], RunStats] = {}
#: the per-core traces of the last concurrent run :func:`system_result`
#: generated (one entry): Figure 15 co-simulates each run on two machines
#: back to back.  Only the traces are kept, never the run's heap.
_SYSTEM_TRACES: Dict[TraceKey, List[Trace]] = {}


def clear_trace_cache() -> None:
    """Drop the in-process traces and simulation results (tests use this).

    The persistent on-disk cache is left alone; see
    :func:`repro.harness.cache.clear_cache` for that.
    """
    _TRACE_CACHE.clear()
    _STATS_CACHE.clear()
    _SYSTEM_TRACES.clear()


def trace_families(keys: Iterable[TraceKey]) -> List[List[TraceKey]]:
    """*keys*, each once, grouped by every :class:`TraceKey` field but
    the mode, in order of first appearance: the keys of one family share
    one populated workload and one timed run (:func:`generate_traces`)."""
    families: Dict[TraceKey, List[TraceKey]] = {}
    for key in dict.fromkeys(keys):
        families.setdefault(replace(key, mode=PersistMode.BASE), []).append(key)
    return list(families.values())


def generate_traces(keys: Sequence[TraceKey]) -> List[Trace]:
    """The traces of *keys*, which differ only in their mode, in key
    order (uncached).

    The paper fast-forwards a benchmark's #InitOps once and times only
    its #SimOps.  Populate runs gated as ``BASE``, so the populated state
    is the same in every mode, and each mode's persistence machinery
    wraps the same workload code.  So the workload is built and
    populated once, its timed phase runs once, in ``LOG_P_SF``, and every
    other mode's trace is that recording with what the mode does not
    issue projected out (:func:`repro.txn.persist_ops.project_trace`).
    Each trace is byte-identical to a separate construct, populate and
    run in its mode (counters ``workloads.timed_runs`` and
    ``workloads.projected_traces``).
    """
    from repro.txn.persist_ops import project_trace

    keys = list(keys)
    if len(trace_families(keys)) != 1:
        raise ValueError("generate_traces needs keys that differ only in mode")
    first = keys[0]
    if first.cores != 1:
        raise ValueError("multi-core cells have one trace per core; use run_system")
    spec = PAPER_SPECS[first.abbrev]
    init_ops = spec.scaled_init_ops if first.init_ops is None else first.init_ops
    sim_ops = spec.scaled_sim_ops if first.sim_ops is None else first.sim_ops
    kwargs = {}
    if (init_ops, sim_ops) == (spec.paper_init_ops, spec.paper_sim_ops):
        # the paper tier outgrows the default heap (nodes are never
        # eagerly reclaimed); the size is fixed per workload in the
        # registry, so the trace stays a pure function of the key
        kwargs["heap_size"] = spec.paper_heap_bytes
    bench = Workbench(mode=PersistMode.LOG_P_SF, record=True, seed=first.seed, **kwargs)
    # the constructor's stores are dropped by populate's finish_init
    with bench.untimed():
        workload = spec.build(bench)
    workload.populate(init_ops)
    workload.run(sim_ops)
    telemetry.counter_inc("workloads.timed_runs")
    recorder = bench.recorder
    projected = sum(key.mode is not PersistMode.LOG_P_SF for key in keys)
    if projected:
        telemetry.counter_inc("workloads.projected_traces", projected)
    return [
        project_trace(bench.trace, key.mode, recorder.alu_per_load, recorder.alu_per_store)
        for key in keys
    ]


def generate_trace(key: TraceKey) -> Trace:
    """Run the functional workload for *key* and return its trace (uncached)."""
    return generate_traces([key])[0]


def store_family(keys: List[TraceKey], root=None) -> Dict[TraceKey, Trace]:
    """:func:`generate_traces` of one family's distinct *keys*, stored at
    *root* (default: the cache root) with every other mode of the family
    the store lacks, so asking for the modes one at a time still times
    each benchmark once.  That check counts no miss.  Returns every trace
    generated, by key: those stored, and the family's ``LOG_P_SF``
    recording, which is not stored again when the store holds it."""
    if disk_cache.trace_path(keys[0], root) is not None:
        family = (replace(keys[0], mode=mode) for mode in PersistMode)
        keys = keys + [
            key for key in family
            if key not in keys and not disk_cache.has_trace(key, root, count=False)
        ]
    recording = replace(keys[0], mode=PersistMode.LOG_P_SF)
    generated = list(dict.fromkeys(keys + [recording]))
    traces = dict(zip(generated, generate_traces(generated)))
    for key in keys:
        disk_cache.store_trace(key, traces[key], root=root)
    return traces


def trace_for_key(key: TraceKey) -> Trace:
    """The trace for *key*: :func:`family_traces` of *key* alone."""
    return family_traces([key])[0]


def family_traces(keys: List[TraceKey]) -> List[Trace]:
    """The traces of one family's distinct *keys*, in key order.

    Each is the memoized recording, else the stored trace, else a
    projection of the memoized recording; the keys that all three miss
    are generated with one :func:`store_family` call.  A recording loaded
    or generated here is memoized, asked for or not, so no process runs
    a benchmark's timed phase twice, with or without a store; the other
    modes are never kept.  Disk hits, projections and generations are
    recorded in :mod:`repro.obs.metrics` (memo hits are not); a
    generation's wall time is shared evenly by its keys."""
    recording = replace(keys[0], mode=PersistMode.LOG_P_SF)
    found: Dict[TraceKey, Trace] = {}
    for key in keys:
        trace = _TRACE_CACHE.get(key)
        if trace is None:
            started = time.perf_counter()
            trace = disk_cache.load_cached_trace(key)
            source = "disk"
            if trace is None and recording in _TRACE_CACHE:
                from repro.txn.persist_ops import project_trace

                trace = project_trace(_TRACE_CACHE[recording], key.mode)
                source = "generated"
                telemetry.counter_inc("workloads.projected_traces")
            if trace is None:
                continue
            if key == recording:
                _TRACE_CACHE[key] = trace
            obs_metrics.record_variant(
                "trace", _label(key), source, time.perf_counter() - started
            )
        found[key] = trace
    missing = [key for key in keys if key not in found]
    if missing:
        started = time.perf_counter()
        generated = store_family(missing)
        _TRACE_CACHE[recording] = generated[recording]
        share = (time.perf_counter() - started) / len(missing)
        for key in missing:
            found[key] = generated[key]
            obs_metrics.record_variant("trace", _label(key), "generated", share)
    return [found[key] for key in keys]


def _label(key: TraceKey) -> str:
    return f"{key.abbrev}/{key.mode.value}"


def build_trace(
    abbrev: str,
    mode: PersistMode,
    seed: int = 7,
    init_ops: Optional[int] = None,
    sim_ops: Optional[int] = None,
) -> Trace:
    """Generate (or fetch from cache) the trace for one benchmark variant.

    ``init_ops``/``sim_ops`` default to the registry's scaled counts.
    """
    return trace_for_key(TraceKey(abbrev, mode, seed, init_ops, sim_ops))


def seed_stats_cache(key: TraceKey, config: MachineConfig, stats: RunStats) -> None:
    """Install an externally computed result (parallel workers) in the memo."""
    _STATS_CACHE[(key, config)] = stats


def run_variant(
    abbrev: str,
    mode: PersistMode,
    config: Optional[MachineConfig] = None,
    seed: int = 7,
    init_ops: Optional[int] = None,
    sim_ops: Optional[int] = None,
) -> RunStats:
    """Simulate one benchmark variant on *config* (cached at both layers)."""
    config = config or MachineConfig()
    key = TraceKey(abbrev, mode, seed, init_ops, sim_ops)
    stats = lookup_variant(key, config)
    return stats if stats is not None else simulate_variant(key, config, trace_for_key(key))


def lookup_variant(key: TraceKey, config: MachineConfig) -> Optional[RunStats]:
    """The first half of :func:`run_variant`, and the prescan of
    :func:`repro.harness.parallel.run_variants`: the in-process memo,
    then the disk store (a hit is recorded as a ``disk`` variant and
    promoted into the memo).  ``None`` on a miss."""
    cached = _STATS_CACHE.get((key, config))
    if cached is not None:
        return cached
    started = time.perf_counter()
    stats = disk_cache.load_cached_stats(key, config)
    if stats is not None:
        _STATS_CACHE[(key, config)] = stats
        obs_metrics.record_variant(
            "sim", _label(key), "disk", time.perf_counter() - started
        )
    return stats


def simulate_variant(key: TraceKey, config: MachineConfig, trace: Trace) -> RunStats:
    """The second half of :func:`run_variant`: simulate *key*'s *trace*
    on *config* and store the stats in both layers."""
    started = time.perf_counter()
    stats = simulate(trace, config)
    _STATS_CACHE[(key, config)] = stats
    disk_cache.store_stats(key, config, stats)
    obs_metrics.record_variant(
        "sim", _label(key), "simulated", time.perf_counter() - started
    )
    return stats


def system_result(
    abbrev: str,
    mode: PersistMode,
    config: Optional[MachineConfig] = None,
    seed: int = 7,
    cores: int = 2,
    contention: float = 0.0,
    init_ops: Optional[int] = None,
    sim_ops: Optional[int] = None,
):
    """Generate a concurrent run and co-simulate it (uncached).

    Returns the full :class:`~repro.uarch.system.SystemResult` with
    per-core stats and conflict counters; :func:`run_system` is the
    cached aggregate view.  The last run's per-core traces are reused
    when the next call asks for the same run on another machine.
    """
    from repro.uarch.system import simulate_system
    from repro.workloads.concurrent import generate_concurrent

    config = config or MachineConfig()
    key = TraceKey(abbrev, mode, seed, init_ops, sim_ops, cores, contention)
    traces = _SYSTEM_TRACES.get(key)
    if traces is None:
        _SYSTEM_TRACES.clear()  # free the last run before generating
        traces = _SYSTEM_TRACES[key] = generate_concurrent(
            abbrev, mode, n_cores=cores, contention=contention, seed=seed,
            init_ops=init_ops, sim_ops=sim_ops,
        ).traces
    return simulate_system(traces, config)


def run_system(
    abbrev: str,
    mode: PersistMode,
    config: Optional[MachineConfig] = None,
    seed: int = 7,
    cores: int = 2,
    contention: float = 0.0,
    init_ops: Optional[int] = None,
    sim_ops: Optional[int] = None,
) -> RunStats:
    """Aggregate stats of one multi-core cell (cached at both layers).

    The returned :class:`RunStats` sums the per-core counters, takes the
    system makespan as ``cycles``, and carries the conflict counters and
    per-core cycle breakdown in ``extra`` — everything round-trips
    through the persistent stats cache.  ``cores`` must be >= 2: a
    one-core system is just :func:`run_variant`, and keeping the tiers
    apart keeps their cache keys apart.
    """
    if cores < 2:
        raise ValueError("run_system needs >= 2 cores; use run_variant")
    config = config or MachineConfig()
    key = TraceKey(abbrev, mode, seed, init_ops, sim_ops, cores, contention)
    cached = _STATS_CACHE.get((key, config))
    if cached is not None:
        return cached
    label = f"{abbrev}/{mode.value}@{cores}c/p{contention:g}"
    started = time.perf_counter()
    stats = disk_cache.load_cached_stats(key, config)
    source = "disk"
    if stats is None:
        stats = system_result(
            abbrev, mode, config, seed,
            cores=cores, contention=contention,
            init_ops=init_ops, sim_ops=sim_ops,
        ).aggregate()
        disk_cache.store_stats(key, config, stats)
        source = "simulated"
    _STATS_CACHE[(key, config)] = stats
    obs_metrics.record_variant(
        "sim", label, source, time.perf_counter() - started
    )
    # served cells only, memo hits excluded like the variant records; the
    # conflict totals come from the cell's ``extra`` counters, so a disk
    # hit publishes what a fresh co-simulation would
    telemetry.counter_inc("system.runs")
    for name in ("conflict_aborts", "replayed_instructions", "store_broadcasts"):
        telemetry.counter_inc(f"system.{name}", int(stats.extra.get(name, 0)))
    telemetry.observe("system.cores", cores)
    telemetry.observe("system.contention", contention)
    return stats


def geomean_overhead(ratios: Iterable[float]) -> float:
    """The paper's summary statistic: geometric mean of slowdown ratios,
    minus one."""
    values = list(ratios)
    if not values:
        raise ValueError("no ratios")
    return math.exp(sum(math.log(v) for v in values) / len(values)) - 1.0


def all_benchmarks() -> List[str]:
    return list(WORKLOADS)
