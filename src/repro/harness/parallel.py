"""Variant scheduler: run (benchmark, mode, config, seed) jobs serially
or across a local process pool.

The paper's methodology — one recorded trace replayed on many machine
configurations — is embarrassingly parallel across variants.
:func:`run_variants` looks every cell up in the store first; a campaign
with no miss ends there, without a pool or the simulator.  Otherwise it
runs the misses in process when ``jobs <= 1`` and hands the campaign to
the supervised process pool
(:func:`repro.harness.supervisor.run_supervised` — two-phase trace then
simulation fan-out, watchdog timeouts, bounded retry, pool-death
recovery) when ``jobs > 1``.  Results are ordered by job position,
never by completion order, and simulation is a pure function of
``(trace, config)``, so ``--jobs N`` output is byte-identical to serial
output.  Either way a
benchmark's missing traces are generated as one family, with one
populate and one timed run for all of its modes
(:func:`repro.harness.runner.generate_traces`); in process, one
family at a time.

Pool workers exchange traces through the shared on-disk store in the
columnar RPTR2 format: a worker's load is four ``array.frombytes``
calls into a column-backed trace, so no ``Instr`` objects are
materialised anywhere on the warm path.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.harness import runner
from repro.harness.runner import TraceKey
from repro.stats.run import RunStats
from repro.txn.modes import PersistMode
from repro.uarch.config import MachineConfig


@dataclass(frozen=True)
class VariantJob:
    """One (benchmark, mode, config, seed) simulation request."""

    abbrev: str
    mode: PersistMode
    config: MachineConfig
    seed: int = 7
    init_ops: Optional[int] = None
    sim_ops: Optional[int] = None

    @property
    def trace_key(self) -> TraceKey:
        return TraceKey(self.abbrev, self.mode, self.seed, self.init_ops, self.sim_ops)


_default_jobs: Optional[int] = None


def set_default_jobs(jobs: Optional[int]) -> None:
    """Set the process-wide default worker count (the CLI's ``--jobs``)."""
    global _default_jobs
    _default_jobs = jobs


def default_jobs() -> int:
    """The effective default worker count (``--jobs`` or ``os.cpu_count()``)."""
    if _default_jobs is not None:
        return max(1, _default_jobs)
    return os.cpu_count() or 1


def run_variants(
    jobs_list: Sequence[VariantJob], jobs: Optional[int] = None
) -> List[RunStats]:
    """Run every job and return results in job order (deterministic merge).

    Every cell is looked up first
    (:func:`repro.harness.runner.lookup_variant`: the memo, then the
    store, each read at most once).  A campaign whose every cell is
    stored ends there, with no simulator, workload or pool imported.
    Otherwise, with ``jobs <= 1`` (or a single job), the misses run in
    process one trace family at a time: the family's traces are fetched
    or generated (:func:`repro.harness.runner.family_traces`), its
    misses simulated in job order, and its Base, Log and Log+P traces
    freed.  With more, the supervised process pool runs the campaign.
    Results are identical either way because simulation is a pure
    function of ``(trace, config)``.
    """
    jobs_list = list(jobs_list)
    cells = [(job.trace_key, job.config) for job in jobs_list]
    results = [runner.lookup_variant(key, config) for key, config in cells]
    misses = list(dict.fromkeys(
        cell for cell, stats in zip(cells, results) if stats is None
    ))
    if not misses:
        return results
    n_workers = default_jobs() if jobs is None else max(1, jobs)
    if n_workers > 1 and len(jobs_list) > 1:
        from repro.harness import supervisor

        return supervisor.run_supervised(jobs_list, results, n_workers)
    simulated = {}
    for family in runner.trace_families(key for key, _ in misses):
        traces = dict(zip(family, runner.family_traces(family)))
        for cell in misses:
            if cell[0] in traces:
                simulated[cell] = runner.simulate_variant(*cell, traces[cell[0]])
        # the memo keeps only the recording: the family's other modes and
        # their segment indexes go here, before the next family's are made
        del traces
    return [
        simulated[cell] if stats is None else stats
        for cell, stats in zip(cells, results)
    ]


def prefetch_variants(
    pairs: Iterable[Tuple[str, PersistMode, MachineConfig]],
    seed: int = 7,
    jobs: Optional[int] = None,
) -> List[RunStats]:
    """Warm the caches for *(abbrev, mode, config)* pairs in parallel.

    Figure and sweep functions call this with their full variant
    cross-product before their (serial, order-sensitive) result assembly
    loops; the assembly then hits the in-process memo only.
    """
    # each job once, in order (BASE repeats across series)
    return run_variants(
        list(dict.fromkeys(VariantJob(ab, mode, config, seed) for ab, mode, config in pairs)),
        jobs=jobs,
    )
