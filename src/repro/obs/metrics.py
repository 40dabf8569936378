"""Harness self-observability: variant records and views of the registry.

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

Every count — cache traffic, kernel phases, pipeline runs, multi-core
cells, supervisor recoveries — lives in the telemetry registry
(:mod:`repro.obs.telemetry`); the metrics line, the snapshot's
``counters`` block and the supervisor totals below are read views of
it.  The one thing kept beside it is the cache's best-effort lifetime
total, persisted in the cache directory.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs import telemetry


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


#: The campaign supervisor's session totals, in report order, each
#: published as ``supervisor.<key>`` when a campaign ends
#: (:mod:`repro.harness.supervisor`).  ``retries`` counts re-submissions
#: after a worker failure, ``timeouts`` watchdog kills of over-deadline
#: jobs, ``quarantined`` jobs pulled from the pool after repeated
#: failures (they finish in the serial fallback), ``pool_rebuilds``
#: recoveries from a broken process pool, ``serial_degradations``
#: campaigns that gave up on pools entirely, and ``chaos_corrupts``
#: cache corruptions injected by chaos mode.  Every key after ``jobs``
#: is a recovery path.
SUPERVISOR_TOTALS = (
    "campaigns", "jobs", "retries", "timeouts", "quarantined",
    "pool_rebuilds", "serial_degradations", "chaos_corrupts",
)


def supervisor_totals() -> Dict[str, int]:
    """This process's supervisor totals, read back from the registry."""
    return {
        key: int(telemetry.get(f"supervisor.{key}"))
        for key in SUPERVISOR_TOTALS
    }


def supervisor_recovery() -> Optional[str]:
    """``supervisor recovered [1 retries, ...]`` naming every recovery
    path that fired this session, or ``None`` when none did."""
    totals = supervisor_totals()
    fired = ", ".join(
        f"{totals[key]} {key}" for key in SUPERVISOR_TOTALS[2:] if totals[key]
    )
    return f"supervisor recovered [{fired}]" if fired else None


def record_variant(
    kind: str, label: str, source: str, wall_s: float, worker: str = "main"
) -> None:
    """Append one work record (called by the harness, cheap)."""
    _RECORDS.append(VariantRecord(kind, label, source, round(wall_s, 6), worker))


def variant_records() -> List[VariantRecord]:
    return list(_RECORDS)


def reset_metrics() -> None:
    """The one reset (tests and bench phases): drop the variant records
    and every registry instrument, and with them the cache's
    persisted-totals baseline, which counts against the registry."""
    from repro.harness import cache as disk_cache

    _RECORDS.clear()
    telemetry.reset()
    disk_cache._PERSISTED.clear()


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


def kernel_backend() -> str:
    """The kernel backend this process's simulations run on.

    Once the timing model is loaded, :mod:`repro.uarch.kernel` says.
    A run that simulated nothing never loaded it, and importing it (and
    NumPy) only to print its name would cost more than the run; such a
    run names the backend from whether NumPy is installed."""
    kernel = sys.modules.get("repro.uarch.kernel")
    if kernel is not None:
        return kernel.resolve_backend(None)
    return "numpy" if importlib.util.find_spec("numpy") else "python"


def metrics_snapshot() -> Dict[str, object]:
    """Everything ``--metrics-out`` writes: the telemetry registry
    (``counters``), the cache's persisted lifetime totals, and the
    per-variant records with their summary.

    Schema 7 folded the ``cache_session``, ``supervisor``, ``system``
    and ``telemetry`` blocks into ``counters``."""
    from repro.harness import cache as disk_cache

    return {
        "schema": 7,
        "kernel_backend": kernel_backend(),
        "counters": telemetry.snapshot(),
        "cache_lifetime": disk_cache.lifetime_cache_counters(),
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

    counters = disk_cache.cache_counters()
    summary = summarize()
    if not _RECORDS and not counters.total():
        return None
    parts = [f"kernel={kernel_backend()}"]
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
    system_runs = telemetry.get("system.runs")
    if system_runs:
        parts.append(
            f"{system_runs} system cells "
            f"(<= {telemetry.get('system.cores')['max']} cores, "
            f"{telemetry.get('system.conflict_aborts')} aborts)"
        )
    recovery = supervisor_recovery()
    if recovery:
        parts.append(recovery)
    return "harness: " + ", ".join(parts)
