"""Persistent on-disk cache for generated traces and simulation results.

Trace generation and simulation dominate every figure, sweep, and bench
run, yet both are pure functions of ``(TraceKey, MachineConfig)``.  This
module gives them a content-keyed store under ``.repro-cache/`` so warm
re-runs skip the work entirely:

* traces are stored in the columnar RPTR2 binary format
  (:mod:`repro.isa.serialize`) under ``traces/<digest>.rptr`` — warm
  loads reconstruct the packed column arrays directly and materialise
  zero ``Instr`` objects;
* :class:`~repro.stats.run.RunStats` results are stored as JSON under
  ``stats/<digest>.json``.

Digests are SHA-256 over a canonical JSON encoding of the key — the
:class:`~repro.harness.runner.TraceKey`, the full
:class:`~repro.uarch.config.MachineConfig` (for stats), and
:data:`CACHE_SCHEMA_VERSION`.  Any config change therefore lands on a new
file, and bumping the schema version (done whenever trace generation or
the timing model changes semantics) invalidates every prior entry at once.

Environment overrides:

* ``REPRO_CACHE_DIR`` — cache location (default ``.repro-cache`` in the
  current directory);
* ``REPRO_NO_CACHE`` — any non-empty value disables the cache entirely.

Writes are atomic (temp file + ``os.replace``), so concurrent workers of
the parallel scheduler may share one store without locking: the worst
case is the same key being written twice with identical content.

Robustness (see ``docs/RESILIENCE.md``): every entry carries an
integrity check — RPTR2 traces end in a CRC-32 footer, stats records are
wrapped in a ``{"crc": ..., "record": ...}`` envelope — and anything
that fails to parse *or verify* is deleted and treated as a miss, so a
torn or bit-flipped entry can never resurface as wrong data.  A failed
store (``ENOSPC``, read-only filesystem) degrades the whole cache to off
for the rest of the process with a one-line warning instead of aborting
the run, and ``cache info``/``cache clear`` sweep the ``mkstemp``
staging files a crashed writer may have leaked.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
import tempfile
import time
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

from repro.obs import telemetry
from repro.stats.run import RunStats
from repro.uarch.config import MachineConfig

if TYPE_CHECKING:
    from repro.isa.trace import Trace

#: Bump whenever trace generation, the timing model, or the on-disk
#: payload format changes observable behaviour — every previously cached
#: entry becomes unreachable.  3: columnar RPTR2 trace payloads.
#: 4: trace keys carry core count + contention (multi-core cells).
CACHE_SCHEMA_VERSION = 4

DEFAULT_CACHE_DIR = ".repro-cache"
ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_NO_CACHE = "REPRO_NO_CACHE"

PathLike = Union[str, Path]


# ----------------------------------------------------------------------
# session counters (observability — see repro.obs.metrics)
# ----------------------------------------------------------------------
@dataclasses.dataclass
class CacheCounters:
    """Hit/miss/store accounting for one process's cache traffic.

    A *hit* is a successful disk load; a *miss* is a lookup that found
    nothing (disabled cache lookups count as misses too — the caller did
    the work either way); ``corrupt_dropped`` counts entries that existed
    but failed to parse or verify and were deleted.
    """

    trace_hits: int = 0
    trace_misses: int = 0
    stats_hits: int = 0
    stats_misses: int = 0
    trace_stores: int = 0
    stats_stores: int = 0
    corrupt_dropped: int = 0

    def hits(self) -> int:
        return self.trace_hits + self.stats_hits

    def misses(self) -> int:
        return self.trace_misses + self.stats_misses

    def total(self) -> int:
        return self.hits() + self.misses()

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _bump(name: str) -> None:
    """Count one cache event in the telemetry registry (``cache.<name>``)."""
    telemetry.counter_inc(f"cache.{name}")


def cache_counters() -> CacheCounters:
    """This process's cache traffic so far: a snapshot of the registry's
    ``cache.*`` counters."""
    return CacheCounters(**{
        field_.name: int(telemetry.get(f"cache.{field_.name}"))
        for field_ in dataclasses.fields(CacheCounters)
    })


#: Session totals already folded into ``metrics.json``, so repeated
#: :func:`persist_cache_counters` calls only add the delta.  They count
#: against the registry, so :func:`repro.obs.metrics.reset_metrics`
#: clears them together with it.
_PERSISTED: dict = {}


def _metrics_path(root: Optional[PathLike] = None) -> Optional[Path]:
    resolved = _resolve_root(root)
    if resolved is None:
        return None
    return resolved / "metrics.json"


def lifetime_cache_counters(root: Optional[PathLike] = None) -> Optional[dict]:
    """Lifetime counter totals persisted in the cache directory, or
    ``None`` when the cache is disabled / never written.  ``clear_cache``
    only removes entries, so these survive cache clears."""
    path = _metrics_path(root)
    if path is None or not path.exists():
        return None
    try:
        with open(path, "r") as handle:
            payload = json.load(handle)
        lifetime = payload.get("lifetime")
        return lifetime if isinstance(lifetime, dict) else None
    except (json.JSONDecodeError, OSError):
        return None


def persist_cache_counters(root: Optional[PathLike] = None) -> None:
    """Fold this session's (not-yet-persisted) counters into the lifetime
    totals at ``<root>/metrics.json``.  Best effort and atomic; concurrent
    writers may lose each other's increments, which is acceptable for
    advisory metrics."""
    path = _metrics_path(root)
    if path is None:
        return
    session = cache_counters().as_dict()
    delta = {
        key: max(0, value - _PERSISTED.get(key, 0))
        for key, value in session.items()
    }
    if not any(delta.values()):
        return
    lifetime = lifetime_cache_counters(root) or {}
    for key, value in delta.items():
        lifetime[key] = int(lifetime.get(key, 0)) + value
    blob = json.dumps({"schema": 1, "lifetime": lifetime}, sort_keys=True).encode()
    try:
        _atomic_write(path, lambda handle: handle.write(blob))
    except OSError:
        return
    _PERSISTED.update(session)


#: Reason the cache turned itself off mid-run (``None`` while healthy).
#: Set when a store hits an ``OSError`` — most commonly ``ENOSPC`` on a
#: full disk — so the run degrades to cache-off instead of aborting.
_RUNTIME_DISABLED: Optional[str] = None


def runtime_disabled() -> Optional[str]:
    """Why the cache degraded to off this session, or ``None``."""
    return _RUNTIME_DISABLED


def reset_runtime_disable() -> None:
    """Re-arm the cache after a runtime degrade (tests, new campaigns)."""
    global _RUNTIME_DISABLED
    _RUNTIME_DISABLED = None


def _degrade(exc: OSError) -> None:
    """Turn the cache off for the rest of the process after a failed write."""
    global _RUNTIME_DISABLED
    if _RUNTIME_DISABLED is None:
        _RUNTIME_DISABLED = f"{type(exc).__name__}: {exc}"
        print(
            f"repro: cache write failed ({_RUNTIME_DISABLED}); "
            "continuing with the cache disabled",
            file=sys.stderr,
        )


def _guarded_write(path: Path, writer) -> bool:
    """Atomic write that degrades to cache-off on ``OSError`` (ENOSPC,
    read-only filesystem, ...) instead of propagating; returns success."""
    try:
        _atomic_write(path, writer)
    except OSError as exc:
        _degrade(exc)
        return False
    return True


def cache_enabled() -> bool:
    """Whether the persistent cache is active (``REPRO_NO_CACHE`` unset
    and no runtime degrade has fired)."""
    return not os.environ.get(ENV_NO_CACHE) and _RUNTIME_DISABLED is None


def cache_root() -> Optional[Path]:
    """The resolved cache directory, or ``None`` when caching is disabled.

    Resolved on every call so tests (and long-lived processes) can flip the
    environment variables at any point.
    """
    if not cache_enabled():
        return None
    return Path(os.environ.get(ENV_CACHE_DIR) or DEFAULT_CACHE_DIR)


def _resolve_root(root: Optional[PathLike]) -> Optional[Path]:
    if root is not None:
        return Path(root)
    return cache_root()


# ----------------------------------------------------------------------
# keying
# ----------------------------------------------------------------------
def _trace_key_payload(key) -> dict:
    return {
        "schema": CACHE_SCHEMA_VERSION,
        "kind": "trace",
        "abbrev": key.abbrev,
        "mode": key.mode.value,
        "seed": key.seed,
        "init_ops": key.init_ops,
        "sim_ops": key.sim_ops,
        # multi-core cells (repro.uarch.system): single-core keys carry
        # the defaults, so a 2-core run can never alias the 1-core entry
        "cores": getattr(key, "cores", 1),
        "contention": getattr(key, "contention", 0.0),
    }


def _digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def trace_digest(key) -> str:
    """Content digest of one :class:`~repro.harness.runner.TraceKey`."""
    return _digest(_trace_key_payload(key))


def stats_digest(key, config: MachineConfig) -> str:
    """Content digest of one (trace, machine configuration) pair."""
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "kind": "stats",
        "trace": _trace_key_payload(key),
        "config": dataclasses.asdict(config),
    }
    return _digest(payload)


def trace_path(key, root: Optional[PathLike] = None) -> Optional[Path]:
    """Where *key*'s trace lives on disk (``None`` when caching is off)."""
    resolved = _resolve_root(root)
    if resolved is None:
        return None
    return resolved / "traces" / f"{trace_digest(key)}.rptr"


def stats_path(key, config: MachineConfig, root: Optional[PathLike] = None) -> Optional[Path]:
    """Where the stats for *key* on *config* live on disk."""
    resolved = _resolve_root(root)
    if resolved is None:
        return None
    return resolved / "stats" / f"{stats_digest(key, config)}.json"


# ----------------------------------------------------------------------
# atomic file helpers
# ----------------------------------------------------------------------
def _atomic_write(path: Path, writer) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as handle:
            writer(handle)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _drop_corrupt(path: Path) -> None:
    try:
        path.unlink()
    except OSError:
        pass


# ----------------------------------------------------------------------
# traces
# ----------------------------------------------------------------------
def load_cached_trace(key, root: Optional[PathLike] = None) -> Optional[Trace]:
    """The cached trace for *key*, or ``None`` on a miss / disabled cache."""
    from repro.isa.serialize import TraceFormatError, load_trace

    path = trace_path(key, root)
    if path is None or not path.exists():
        _bump("trace_misses")
        return None
    try:
        trace = load_trace(path)
    except (TraceFormatError, OSError, ValueError):
        _drop_corrupt(path)
        _bump("corrupt_dropped")
        _bump("trace_misses")
        return None
    _bump("trace_hits")
    return trace


def has_trace(key, root: Optional[PathLike] = None, count: bool = True) -> bool:
    """Whether the store holds an entry for *key*, without loading it.

    With *count*, an absent entry counts as a trace miss, as a failed
    load would (the caller generates the trace); a present one counts
    nothing, since the load that follows counts the hit or the corrupt
    drop."""
    path = trace_path(key, root)
    if path is not None and path.exists():
        return True
    if count:
        _bump("trace_misses")
    return False


def store_trace(key, trace: Trace, root: Optional[PathLike] = None) -> Optional[Path]:
    """Persist *trace* under *key*; returns the path (``None`` if disabled)."""
    from repro.isa.serialize import dump_trace

    path = trace_path(key, root)
    if path is None:
        return None
    if not _guarded_write(path, lambda handle: dump_trace(trace, handle)):
        return None
    _bump("trace_stores")
    return path


# ----------------------------------------------------------------------
# stats
# ----------------------------------------------------------------------
def _stats_record(stats: RunStats) -> dict:
    return {
        field_.name: getattr(stats, field_.name)
        for field_ in dataclasses.fields(stats)
    }


def _record_crc(record: dict) -> int:
    """CRC-32 of the canonical JSON encoding of a raw-counter record."""
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(blob.encode())


def stats_record(stats: RunStats) -> dict:
    """The raw-counter storage record of *stats* (field name → value);
    inverse of :meth:`RunStats.from_dict`."""
    return _stats_record(stats)


def load_cached_stats(
    key, config: MachineConfig, root: Optional[PathLike] = None
) -> Optional[RunStats]:
    """The cached :class:`RunStats` for *(key, config)*, or ``None``.

    Every record is a checksummed envelope (``{"crc": ..., "record":
    {...}}``), verified before deserialising — a flipped digit in a
    counter would otherwise load as *plausible but wrong* stats.
    Anything that fails to parse or verify, a bare record without the
    envelope included, is dropped via :func:`_drop_corrupt`.
    """
    path = stats_path(key, config, root)
    if path is None or not path.exists():
        _bump("stats_misses")
        return None
    try:
        with open(path, "r") as handle:
            data = json.load(handle)
        record = data.get("record") if isinstance(data, dict) else None
        if (
            not isinstance(record, dict)
            or "crc" not in data
            or _record_crc(record) != data["crc"]
        ):
            raise ValueError("stats record checksum mismatch")
        stats = RunStats.from_dict(record)
    except (json.JSONDecodeError, TypeError, ValueError, OSError):
        _drop_corrupt(path)
        _bump("corrupt_dropped")
        _bump("stats_misses")
        return None
    _bump("stats_hits")
    return stats


def store_stats(
    key, config: MachineConfig, stats: RunStats, root: Optional[PathLike] = None
) -> Optional[Path]:
    """Persist *stats* for *(key, config)* inside a CRC-32 integrity
    envelope; returns the path."""
    path = stats_path(key, config, root)
    if path is None:
        return None
    record = _stats_record(stats)
    envelope = {"schema": 1, "crc": _record_crc(record), "record": record}
    blob = json.dumps(envelope, sort_keys=True).encode()
    if not _guarded_write(path, lambda handle: handle.write(blob)):
        return None
    _bump("stats_stores")
    return path


# ----------------------------------------------------------------------
# maintenance
# ----------------------------------------------------------------------
def _is_tmp_entry(path: Path) -> bool:
    """Whether *path* is an orphaned ``mkstemp`` leftover of
    :func:`_atomic_write` (``<name>.<random>`` — never a finished entry,
    which always ends in ``.rptr`` or ``.json``)."""
    return path.is_file() and path.suffix not in (".rptr", ".json")


def sweep_stale_tmp(
    root: Optional[PathLike] = None, min_age_s: float = 3600.0
) -> int:
    """Remove the staging files (``<entry>.<random>``) a crashed writer
    left next to cache entries; returns the number removed.

    ``_atomic_write`` stages every entry through ``mkstemp`` in the
    target directory; a worker killed between ``mkstemp`` and
    ``os.replace`` leaks the staging file forever.  Only files older than
    *min_age_s* are touched (0 sweeps everything) so a live writer's
    in-flight staging file survives a concurrent sweep.
    """
    resolved = _resolve_root(root)
    if resolved is None or not resolved.exists():
        return 0
    cutoff = time.time() - max(0.0, min_age_s)
    removed = 0
    for sub in ("traces", "stats"):
        directory = resolved / sub
        if not directory.is_dir():
            continue
        for path in directory.iterdir():
            if not _is_tmp_entry(path):
                continue
            try:
                if path.stat().st_mtime <= cutoff:
                    path.unlink()
                    removed += 1
            except OSError:
                pass
    return removed


def clear_cache(root: Optional[PathLike] = None) -> int:
    """Delete every cache entry (stale tmp files included); returns the
    number of files removed."""
    resolved = _resolve_root(root)
    if resolved is None or not resolved.exists():
        return 0
    removed = sweep_stale_tmp(root, min_age_s=0.0)
    for sub in ("traces", "stats"):
        directory = resolved / sub
        if not directory.is_dir():
            continue
        for path in directory.iterdir():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
    return removed


def cache_info(root: Optional[PathLike] = None) -> dict:
    """Entry counts and sizes of the cache (for ``repro cache info``).

    Beyond the totals, breaks entries down by kind and reports the
    session's and, when persisted, the cache's lifetime hit/miss counters.
    Stale ``mkstemp`` staging files older than an hour (leaked by crashed
    writers) are swept as a side effect and the count reported as
    ``stale_tmp_removed``.
    """
    resolved = _resolve_root(root)
    info = {
        "root": str(resolved) if resolved is not None else None,
        "enabled": resolved is not None,
        "degraded": runtime_disabled(),
        "schema_version": CACHE_SCHEMA_VERSION,
        "traces": 0,
        "stats": 0,
        "bytes": 0,
        "trace_bytes": 0,
        "stats_bytes": 0,
        "stale_tmp_removed": 0,
        "counters_session": cache_counters().as_dict(),
        "counters_lifetime": lifetime_cache_counters(root),
    }
    if resolved is None or not resolved.exists():
        return info
    info["stale_tmp_removed"] = sweep_stale_tmp(root)
    for sub, bytes_key in (
        ("traces", "trace_bytes"),
        ("stats", "stats_bytes"),
    ):
        directory = resolved / sub
        if not directory.is_dir():
            continue
        for path in directory.iterdir():
            if not path.is_file():
                continue
            info[sub] += 1
            size = path.stat().st_size
            info[bytes_key] += size
            info["bytes"] += size
    return info
