"""Trace generation and variant simulation, with two cache layers.

Every lookup goes through an in-process memo first and then the
persistent on-disk store (:mod:`repro.harness.cache`), so repeated runs
of figures, sweeps, and the test suites regenerate nothing that is
already known.  The parallel scheduler (:mod:`repro.harness.parallel`)
shares the same disk store across worker processes.

Traces flow through here in their **columnar form**
(:class:`~repro.isa.columns.TraceColumns`): disk hits deserialise the
RPTR2 column sections straight into a column-backed
:class:`~repro.isa.trace.Trace` without materialising a single
``Instr``, the timing model consumes the packed columns and the memoized
segment list directly, and freshly generated traces are columnarised
once and reuse that form for both serialisation and simulation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.harness import cache as disk_cache
from repro.obs import metrics as obs_metrics
from repro.obs import telemetry
from repro.isa.trace import Trace
from repro.stats.run import RunStats
from repro.txn.modes import PersistMode
from repro.uarch.config import MachineConfig
from repro.uarch.pipeline import simulate
from repro.workloads.base import PersistentWorkload, Workbench
from repro.workloads.registry import PAPER_SPECS, WORKLOADS


@dataclass(frozen=True)
class TraceKey:
    """Cache key for a generated trace.

    ``cores``/``contention`` identify multi-core cells
    (:func:`run_system`); the defaults keep every single-core key — and
    its digest inputs — distinct from any multi-core cell, so a 2-core
    run can never alias the single-core cache or journal entry.
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
    """*keys* grouped by every :class:`TraceKey` field but the mode, in
    order of first appearance: the keys of one family share a populated
    workload (:func:`generate_traces`)."""
    families: Dict[TraceKey, List[TraceKey]] = {}
    for key in keys:
        families.setdefault(replace(key, mode=PersistMode.BASE), []).append(key)
    return list(families.values())


def generate_traces(keys: Sequence[TraceKey]) -> List[Trace]:
    """The traces of *keys*, which differ only in their mode, in key
    order (uncached).

    The paper fast-forwards a benchmark's #InitOps once and times only
    its #SimOps.  Populate runs gated as ``BASE``, so the populated state
    is the same in every mode: the workload is built and populated once,
    every key but the last runs its timed phase on its own
    :meth:`~repro.workloads.base.PersistentWorkload.fork` of that image,
    switched to the key's mode, and the last key runs on the image
    itself.  At most one fork lives beside the image, and neither
    outlives the call.  Each trace is byte-identical to a separate
    construct, populate and run in its mode.
    """
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
    bench = Workbench(mode=first.mode, record=True, seed=first.seed, **kwargs)
    # the constructor's stores are dropped by populate's finish_init
    with bench.untimed():
        workload = spec.build(bench)
    workload.populate(init_ops)
    traces = [_timed_trace(workload.fork(), key.mode, sim_ops) for key in keys[:-1]]
    traces.append(_timed_trace(workload, keys[-1].mode, sim_ops))
    return traces


def _timed_trace(
    workload: PersistentWorkload, mode: PersistMode, sim_ops: int
) -> Trace:
    """Run the timed phase of a populated *workload* in *mode*."""
    workload.bench.set_mode(mode)
    workload.run(sim_ops)
    return workload.bench.trace


def generate_trace(key: TraceKey) -> Trace:
    """Run the functional workload for *key* and return its trace (uncached)."""
    return generate_traces([key])[0]


def trace_for_key(key: TraceKey) -> Trace:
    """The trace for *key*: in-process memo, then disk, then generation.

    Disk hits and fresh generations are recorded in
    :mod:`repro.obs.metrics` (memo hits are not — they are dict lookups)."""
    cached = _TRACE_CACHE.get(key)
    if cached is not None:
        return cached
    started = time.perf_counter()
    trace = disk_cache.load_cached_trace(key)
    if trace is None:
        _generate([key])
        return _TRACE_CACHE[key]
    obs_metrics.record_variant(
        "trace", _label(key), "disk", time.perf_counter() - started
    )
    _TRACE_CACHE[key] = trace
    return trace


def prepare_traces(keys: Iterable[TraceKey]) -> None:
    """Generate the traces of *keys* that neither the in-process memo
    nor the disk store holds, one :func:`generate_traces` family at a
    time, into both.

    A stored trace is left on disk until :func:`trace_for_key` first
    needs it.  Each generated trace is recorded as one ``generated``
    trace variant; a family's wall time is shared evenly by its
    traces."""
    _generate([
        key for key in dict.fromkeys(keys)
        if key not in _TRACE_CACHE and not disk_cache.has_trace(key)
    ])


def _generate(keys: List[TraceKey]) -> None:
    """Generate *keys* family by family into the memo and the disk store."""
    for family in trace_families(keys):
        started = time.perf_counter()
        traces = generate_traces(family)
        for key, trace in zip(family, traces):
            disk_cache.store_trace(key, trace)
            _TRACE_CACHE[key] = trace
        share = (time.perf_counter() - started) / len(family)
        for key in family:
            obs_metrics.record_variant("trace", _label(key), "generated", share)


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


def peek_cached_stats(
    key: TraceKey, config: MachineConfig, root: Optional[str] = None
) -> Optional[RunStats]:
    """The cached :class:`RunStats` for *(key, config)*, without simulating.

    Checks the in-process memo, then the disk store (promoting hits into
    the memo).  With *root*, a store other than the default cache root —
    the supervisor's campaign or scratch store — is consulted instead of
    the default one.  Returns ``None`` on a miss.
    """
    cached = _STATS_CACHE.get((key, config))
    if cached is not None:
        return cached
    stats = disk_cache.load_cached_stats(key, config, root=root)
    if stats is not None:
        _STATS_CACHE[(key, config)] = stats
    return stats


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
    return stats if stats is not None else simulate_variant(key, config)


def lookup_variant(key: TraceKey, config: MachineConfig) -> Optional[RunStats]:
    """The first half of :func:`run_variant`: the in-process memo, then
    the disk store (a hit is recorded as a ``disk`` variant and promoted
    into the memo).  ``None`` on a miss."""
    cached = _STATS_CACHE.get((key, config))
    if cached is not None:
        return cached
    started = time.perf_counter()
    stats = peek_cached_stats(key, config)
    if stats is not None:
        obs_metrics.record_variant(
            "sim", _label(key), "disk", time.perf_counter() - started
        )
    return stats


def simulate_variant(key: TraceKey, config: MachineConfig) -> RunStats:
    """The second half of :func:`run_variant`: simulate *key*'s trace
    (:func:`trace_for_key`) on *config* and store the stats in both
    layers."""
    trace = trace_for_key(key)
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
