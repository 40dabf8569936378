"""Process-wide telemetry registry: counters, gauges, histograms.

The simulation and harness layers publish named measurements here —
batch counts and per-phase wall clock from the NumPy kernel, run totals
from the pipeline, cache traffic, supervisor recoveries — and
``--metrics-out`` folds the whole registry into its snapshot (see
:mod:`repro.obs.metrics`).

**Disabled by default, and free when disabled.**  Every publish call
starts with one module-level ``bool`` test and returns immediately, so
instrumented hot paths (the kernel publishes per *batch*, never per op)
cost one branch when telemetry is off.  Enable with
``REPRO_TELEMETRY=1`` in the environment or :func:`set_enabled`; the
``bench``/``--metrics-out`` paths enable it around the work they
measure.  Note the simulated-cycle contract is untouched either way:
telemetry records *host-side* facts (wall clock, call counts),
so enabling it never changes results, only what gets observed.

Three instrument kinds, all process-local and append-cheap:

* **counters** — monotone totals (``cache.stats_hits``); float-valued
  increments are allowed (``kernel.classify_seconds``);
* **gauges** — last-write-wins values (``supervisor.jobs``);
* **histograms** — running ``count/sum/min/max`` summaries
  (``pipeline.run_cycles``), no buckets: the consumers are regression
  tracking and the metrics snapshot, not percentile dashboards.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

__all__ = [
    "enabled", "set_enabled", "counter_inc", "gauge_set", "observe",
    "snapshot", "reset",
]


def _env_enabled() -> bool:
    return os.environ.get("REPRO_TELEMETRY", "").strip().lower() not in (
        "", "0", "false", "off", "no",
    )


_enabled: bool = _env_enabled()
_counters: Dict[str, float] = {}
_gauges: Dict[str, float] = {}
_histograms: Dict[str, Dict[str, float]] = {}


def enabled() -> bool:
    return _enabled


def set_enabled(flag: bool) -> None:
    """Turn the registry on or off (overrides ``REPRO_TELEMETRY``)."""
    global _enabled
    _enabled = bool(flag)


def counter_inc(name: str, amount: float = 1) -> None:
    if not _enabled:
        return
    _counters[name] = _counters.get(name, 0) + amount


def gauge_set(name: str, value: float) -> None:
    if not _enabled:
        return
    _gauges[name] = value


def observe(name: str, value: float) -> None:
    if not _enabled:
        return
    summary = _histograms.get(name)
    if summary is None:
        _histograms[name] = {
            "count": 1, "sum": value, "min": value, "max": value,
        }
        return
    summary["count"] += 1
    summary["sum"] += value
    if value < summary["min"]:
        summary["min"] = value
    if value > summary["max"]:
        summary["max"] = value


def snapshot() -> Dict[str, object]:
    """The registry's current contents (values rounded for JSON).

    Histograms gain a derived ``mean``.  The snapshot is taken even when
    the registry is disabled — it just reports what was collected while
    it was on (typically nothing).
    """

    def _round(value: float) -> float:
        return round(value, 9)

    return {
        "enabled": _enabled,
        "counters": {
            name: _round(value) for name, value in sorted(_counters.items())
        },
        "gauges": {
            name: _round(value) for name, value in sorted(_gauges.items())
        },
        "histograms": {
            name: {
                "count": summary["count"],
                "sum": _round(summary["sum"]),
                "min": _round(summary["min"]),
                "max": _round(summary["max"]),
                "mean": _round(summary["sum"] / summary["count"]),
            }
            for name, summary in sorted(_histograms.items())
        },
    }


def reset(enabled_after: Optional[bool] = None) -> None:
    """Drop everything collected; optionally force the on/off state
    (``None`` re-reads ``REPRO_TELEMETRY``)."""
    global _enabled
    _counters.clear()
    _gauges.clear()
    _histograms.clear()
    _enabled = _env_enabled() if enabled_after is None else bool(enabled_after)
