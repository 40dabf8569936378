"""Process-wide telemetry registry: the one store of host-side counts.

Every host-side measurement the simulator and harness keep lives here,
under a dotted name: cache traffic (``cache.*``), timed runs and
projected traces of trace generation (``workloads.*``), batch counts and
per-phase wall clock from the NumPy kernel (``kernel.*``), run totals
from the pipeline (``pipeline.*``), served multi-core cells
(``system.*``) and campaign-supervisor recoveries (``supervisor.*``).
Every other place that reports a count is a view of this store:
:func:`repro.harness.cache.cache_counters`,
:func:`repro.uarch.kernel.phase_seconds`, the supervisor's failure
report, the stderr metrics line and the ``counters`` block of
``--metrics-out`` (see :mod:`repro.obs.metrics`).

**Always on.**  A publish is one dict update (a few tenths of a
microsecond), and publishers fire per cache lookup, kernel batch,
pipeline run or campaign, never per simulated op, so a whole campaign
pays well under a millisecond.  The registry holds host-side facts
only (call counts, wall clock): simulated results never depend on it.
Counts are per process: a pool worker starts each task from an empty
registry and returns its snapshot with the result, and the supervisor
adds that to the parent's registry (:func:`merge`).

Three instrument kinds share one namespace:

* **counters** — monotone totals (``cache.stats_hits``); float-valued
  increments are allowed (``kernel.classify_seconds``);
* **gauges** — last-write-wins values (no pool task sets one, and
  :func:`merge` would add one up like a counter);
* **histograms** — running ``count/sum/min/max`` summaries
  (``pipeline.run_cycles``, ``system.cores``), no buckets: the
  consumers are regression tracking and the metrics snapshot, not
  percentile dashboards.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["counter_inc", "gauge_set", "observe", "get", "snapshot", "merge", "reset"]

#: Every instrument by name: a number, or a histogram's summary dict.
_values: Dict[str, object] = {}


def counter_inc(name: str, amount: float = 1) -> None:
    _values[name] = _values.get(name, 0) + amount


def gauge_set(name: str, value: float) -> None:
    _values[name] = value


def observe(name: str, value: float) -> None:
    summary = _values.get(name)
    if summary is None:
        _values[name] = {"count": 1, "sum": value, "min": value, "max": value}
        return
    summary["count"] += 1
    summary["sum"] += value
    if value < summary["min"]:
        summary["min"] = value
    if value > summary["max"]:
        summary["max"] = value


def get(name: str, default: object = 0) -> object:
    """One instrument's current value (a histogram's is its summary)."""
    return _values.get(name, default)


def snapshot() -> Dict[str, object]:
    """Every instrument by name, values rounded for JSON; histograms
    gain a derived ``mean``."""

    def _round(value: float) -> float:
        return round(value, 9)

    out: Dict[str, object] = {}
    for name, value in sorted(_values.items()):
        if isinstance(value, dict):
            out[name] = {
                "count": value["count"],
                "sum": _round(value["sum"]),
                "min": _round(value["min"]),
                "max": _round(value["max"]),
                "mean": _round(value["sum"] / value["count"]),
            }
        else:
            out[name] = _round(value)
    return out


def merge(counts: Dict[str, object]) -> None:
    """Add another process's :func:`snapshot` of its counters and
    histograms to this registry."""
    for name, value in counts.items():
        if not isinstance(value, dict):
            counter_inc(name, value)
            continue
        summary = _values.setdefault(
            name, {"count": 0, "sum": 0, "min": value["min"], "max": value["max"]}
        )
        summary["count"] += value["count"]
        summary["sum"] += value["sum"]
        summary["min"] = min(summary["min"], value["min"])
        summary["max"] = max(summary["max"], value["max"])


def reset() -> None:
    """Drop every instrument.  Callers want
    :func:`repro.obs.metrics.reset_metrics`, which also restarts the
    views that count against the registry."""
    _values.clear()
