"""Harness self-observability: cache effectiveness and variant timing.

The harness runs parallel, cached, fast-pathed simulation jobs; this
module records what actually happened — which cache layer served each
variant, how long the real work took, and which worker did it — so
``run``/``report``/``bench`` can print a one-line accounting and
``--metrics-out`` can dump the machine-readable version.

Recording is in-process and append-only.  The serial path
(:func:`repro.harness.runner.run_variant` / ``trace_for_key``) records
disk hits and fresh work; the supervised process pool
(:mod:`repro.harness.supervisor`) records per-worker wall time and PID
for fanned-out jobs.  In-process memo hits are *not* recorded — they
are dictionary lookups, and recording them would swamp the signal
(figure assembly loops re-read every variant from the memo).

Cache hit/miss/corrupt counters live in :mod:`repro.harness.cache`
(session scope, plus a best-effort lifetime total persisted in the
cache directory); :func:`metrics_snapshot` folds both in.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union


@dataclass
class VariantRecord:
    """One unit of harness work: a trace fetch/generation or a simulation.

    ``kind``   — ``"trace"`` or ``"sim"``;
    ``label``  — ``ABBREV/mode`` of the variant;
    ``source`` — ``"disk"`` (cache hit), ``"generated"``/``"simulated"``
    (real work), as observed at the recording site;
    ``worker`` — ``"main"`` or ``"pid:N"`` for pool workers.
    """

    kind: str
    label: str
    source: str
    wall_s: float
    worker: str = "main"


_RECORDS: List[VariantRecord] = []


@dataclass
class SupervisorCounters:
    """Fault-tolerance accounting of the campaign supervisor
    (:mod:`repro.harness.supervisor`).

    ``retries`` counts re-submissions after a worker failure, ``timeouts``
    watchdog kills of over-deadline jobs, ``quarantined`` jobs pulled from
    the pool after repeated failures (they finish in the serial fallback),
    ``pool_rebuilds`` recoveries from a broken process pool,
    ``serial_degradations`` campaigns that gave up on pools entirely,
    ``resumed`` jobs skipped on ``--resume`` because the campaign journal
    already recorded them, ``resumed_quarantined`` jobs routed straight
    to the serial fallback because the journal recorded their
    quarantine, ``journal_stale`` journaled jobs whose cached
    result had vanished and had to be re-simulated, and
    ``chaos_corrupts`` cache corruptions injected by chaos mode.
    """

    campaigns: int = 0
    jobs: int = 0
    retries: int = 0
    timeouts: int = 0
    quarantined: int = 0
    pool_rebuilds: int = 0
    serial_degradations: int = 0
    resumed: int = 0
    resumed_quarantined: int = 0
    journal_stale: int = 0
    chaos_corrupts: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)

    def any_recovery(self) -> bool:
        """Whether any fault-handling path actually fired."""
        return any(
            value
            for key, value in asdict(self).items()
            if key not in ("campaigns", "jobs")
        )


_SUPERVISOR = SupervisorCounters()


@dataclass
class SystemCounters:
    """Multi-core co-simulation accounting (``run_system`` cells this
    process served, memo hits excluded — same convention as the variant
    records).  Abort/replay/broadcast totals come from the cells'
    ``extra`` counters, so disk-cached cells contribute the same numbers
    a fresh co-simulation would."""

    runs: int = 0
    cores_max: int = 0
    contention_max: float = 0.0
    conflict_aborts: int = 0
    replayed_instructions: int = 0
    store_broadcasts: int = 0

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


_SYSTEM = SystemCounters()


def system_counters() -> SystemCounters:
    """This process's multi-core run accounting (a live object)."""
    return _SYSTEM


def record_system_run(cores: int, contention: float, extra: Dict) -> None:
    """Fold one served multi-core cell into the system accounting.

    *extra* is the cell's ``RunStats.extra`` (carries the system
    conflict counters — see ``SystemResult.aggregate``)."""
    _SYSTEM.runs += 1
    _SYSTEM.cores_max = max(_SYSTEM.cores_max, cores)
    _SYSTEM.contention_max = max(_SYSTEM.contention_max, contention)
    _SYSTEM.conflict_aborts += int(extra.get("conflict_aborts", 0))
    _SYSTEM.replayed_instructions += int(extra.get("replayed_instructions", 0))
    _SYSTEM.store_broadcasts += int(extra.get("store_broadcasts", 0))


def supervisor_counters() -> SupervisorCounters:
    """This process's supervisor accounting (a live object)."""
    return _SUPERVISOR


def record_variant(
    kind: str, label: str, source: str, wall_s: float, worker: str = "main"
) -> None:
    """Append one work record (called by the harness, cheap)."""
    _RECORDS.append(VariantRecord(kind, label, source, round(wall_s, 6), worker))


def variant_records() -> List[VariantRecord]:
    return list(_RECORDS)


def reset_metrics() -> None:
    """Drop all recorded work (tests and bench phases use this)."""
    global _SUPERVISOR, _SYSTEM
    _RECORDS.clear()
    _SUPERVISOR = SupervisorCounters()
    _SYSTEM = SystemCounters()


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def summarize() -> Dict[str, object]:
    """Aggregate the records: counts by source, wall time by worker."""
    by_source: Dict[str, int] = {}
    wall_by_worker: Dict[str, float] = {}
    sim_wall = 0.0
    trace_wall = 0.0
    for record in _RECORDS:
        tag = f"{record.kind}:{record.source}"
        by_source[tag] = by_source.get(tag, 0) + 1
        wall_by_worker[record.worker] = (
            wall_by_worker.get(record.worker, 0.0) + record.wall_s
        )
        if record.kind == "sim":
            sim_wall += record.wall_s
        else:
            trace_wall += record.wall_s
    return {
        "records": len(_RECORDS),
        "by_source": dict(sorted(by_source.items())),
        "wall_by_worker": {
            worker: round(seconds, 3)
            for worker, seconds in sorted(wall_by_worker.items())
        },
        "sim_wall_s": round(sim_wall, 3),
        "trace_wall_s": round(trace_wall, 3),
    }


def metrics_snapshot() -> Dict[str, object]:
    """Everything ``--metrics-out`` writes: cache counters (session and
    lifetime), the per-variant records and their summary, the telemetry
    registry (:mod:`repro.obs.telemetry` — empty unless enabled), and
    the system accounting of any multi-core runs this process made.

    Schema 4 added ``telemetry`` and ``system``; schema 5 added a
    ``transport`` block that schema 6 removed again."""
    from repro.harness import cache as disk_cache
    from repro.obs import telemetry
    from repro.uarch.kernel import resolve_backend

    return {
        "schema": 6,
        "kernel_backend": resolve_backend(None),
        "cache_session": disk_cache.cache_counters().as_dict(),
        "cache_lifetime": disk_cache.lifetime_cache_counters(),
        "supervisor": _SUPERVISOR.as_dict(),
        "system": _SYSTEM.as_dict(),
        "telemetry": telemetry.snapshot(),
        "summary": summarize(),
        "variants": [asdict(record) for record in _RECORDS],
    }


def write_metrics(path: Union[str, Path]) -> Path:
    """Write :func:`metrics_snapshot` as JSON to *path*."""
    path = Path(path)
    with open(path, "w") as handle:
        json.dump(metrics_snapshot(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def render_metrics_line() -> Optional[str]:
    """One human-readable accounting line, or ``None`` with nothing to say."""
    from repro.harness import cache as disk_cache

    from repro.uarch.kernel import resolve_backend

    counters = disk_cache.cache_counters()
    summary = summarize()
    if not _RECORDS and not counters.total():
        return None
    parts = [f"kernel={resolve_backend(None)}"]
    if summary["records"]:
        by_source = summary["by_source"]
        sims = {
            key.split(":", 1)[1]: value
            for key, value in by_source.items()
            if key.startswith("sim:")
        }
        if sims:
            detail = ", ".join(f"{count} {source}" for source, count in sims.items())
            parts.append(f"{sum(sims.values())} variants ({detail})")
        workers = [w for w in summary["wall_by_worker"] if w != "main"]
        wall = summary["sim_wall_s"] + summary["trace_wall_s"]
        if workers:
            parts.append(f"{wall:.2f}s across {len(workers) + 1} workers")
        elif wall >= 0.005:
            parts.append(f"{wall:.2f}s")
    parts.append(
        f"cache {counters.hits()} hits / {counters.misses()} misses"
        + (
            f" / {counters.corrupt_dropped} corrupt dropped"
            if counters.corrupt_dropped
            else ""
        )
    )
    if _SYSTEM.runs:
        parts.append(
            f"{_SYSTEM.runs} system cells (<= {_SYSTEM.cores_max} cores, "
            f"{_SYSTEM.conflict_aborts} aborts)"
        )
    if _SUPERVISOR.any_recovery():
        recovery = ", ".join(
            f"{value} {key}"
            for key, value in _SUPERVISOR.as_dict().items()
            if value and key not in ("campaigns", "jobs")
        )
        parts.append(f"supervisor recovered [{recovery}]")
    return "harness: " + ", ".join(parts)
