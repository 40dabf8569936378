"""One pass of a wallbench workload, run in a fresh interpreter.

``run.py`` starts this file as ``python3 child.py '<json spec>'`` with
``PYTHONPATH=src``, every ``REPRO_*`` variable scrubbed and
``REPRO_CACHE_DIR`` pointing at the pass's own store.  The spec names the
workload, the pass (``fill``, ``cold`` or ``warm``), the seed, the size,
whether to trace, and the file the JSON result is written to.

The workloads drive the public figure and sweep functions in-process with
``jobs=1``.  After the timed campaign every cell is read back through the
public ``run_variant``/``run_system`` (in-process memo hits) and digested,
so the parent can compare passes, repetitions and the pinned answers.

With ``trace`` set, the calls into each layer's public functions are
wrapped at their call sites before the campaign starts (see
:func:`install_ledger`); the wrappers keep a span stack, so every layer's
*self* time excludes the layers it calls and the self times plus the
harness residual add up to the campaign's wall time.

Every pass runs a :class:`SpeedProbe` from its first line to its last, so
the parent can express the pass's host seconds at a reference host speed.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import resource
import signal
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path


# ----------------------------------------------------------------------
# workload definitions
# ----------------------------------------------------------------------
#: Benchmarks per size; ``None`` means all seven.  ``tiny`` is the
#: self-test size, a few seconds per pass.
SIZES = {
    "full": {
        "report": None,
        "sweep": None,
        "system": ("HM", "BT"),
        "cores": (2, 4),
        "contentions": (0.0, 0.5, 0.9),
    },
    "tiny": {
        "report": ("LL", "GH"),
        "sweep": ("LL",),
        "system": ("HM",),
        "cores": (2,),
        "contentions": (0.0, 0.9),
    },
}

NVMM_WRITE_NS = (150, 300, 600, 1200)
CHECKPOINT_COUNTS = (1, 2, 4, 8)


def _names(size, group):
    from repro.harness.runner import all_benchmarks

    return list(SIZES[size][group] or all_benchmarks())


def report_cells(size):
    """The 70 (full) single-core cells of the report figure set."""
    from repro.txn.modes import PersistMode
    from repro.uarch.config import SSB_LATENCY_TABLE, MachineConfig

    base = MachineConfig()
    configs = [("base", mode, base) for mode in PersistMode] + [
        (f"sp{size_}", PersistMode.LOG_P_SF, base.with_sp(size_))
        for size_ in sorted(SSB_LATENCY_TABLE)
    ]
    return _single_core_cells(_names(size, "report"), configs)


def sweep_cells(size):
    """The 112 (full) single-core cells of the two design sweeps."""
    from repro.txn.modes import PersistMode
    from repro.uarch.config import MachineConfig

    base = MachineConfig()
    configs = []
    for write_ns in NVMM_WRITE_NS:
        cfg = replace(base, nvmm_write_cycles=int(315 * (write_ns / 150.0)))
        configs += [
            (f"w{write_ns}", PersistMode.LOG_P, cfg),
            (f"w{write_ns}", PersistMode.LOG_P_SF, cfg),
            (f"w{write_ns}-sp256", PersistMode.LOG_P_SF, cfg.with_sp(256)),
        ]
    configs.append(("base", PersistMode.BASE, base))
    configs += [
        (f"sp256-ck{count}", PersistMode.LOG_P_SF,
         base.with_sp(256, checkpoint_entries=count))
        for count in CHECKPOINT_COUNTS
    ]
    return _single_core_cells(_names(size, "sweep"), configs)


def _single_core_cells(names, configs):
    """``{label: (abbrev, mode, config)}``, one entry per distinct cell
    (the first label wins where two sweeps share a configuration)."""
    cells, seen = {}, set()
    for abbrev in names:
        for label, mode, config in configs:
            if (abbrev, mode, config) not in seen:
                seen.add((abbrev, mode, config))
                cells[f"{abbrev}/{mode.value}/{label}"] = (abbrev, mode, config)
    return cells


def system_cells(size):
    """The 24 (full) multi-core cells of Figure 15."""
    from repro.uarch.config import MachineConfig

    base = MachineConfig()
    sizing = SIZES[size]
    return {
        f"{abbrev}/{label}/{cores}c/p{contention:g}": (abbrev, config, cores, contention)
        for abbrev in sizing["system"]
        for cores in sizing["cores"]
        for contention in sizing["contentions"]
        for label, config in (("base", base), ("sp256", base.with_sp(256)))
    }


def report_campaign(seed, size):
    """The ``report`` figure set (Figures 8-14 and the headline claim)."""
    from repro.harness import figures
    from repro.harness.figures import GEOMEAN, render_bar_table, render_scalar_series

    cols = _names(size, "report")
    parts = [
        render_bar_table(
            "Figure 8: execution-time overhead vs baseline",
            figures.fig8_overheads(cols, seed), columns=cols + [GEOMEAN],
        ),
        render_bar_table(
            "Figure 9: instruction-count ratio to baseline",
            figures.fig9_instruction_counts(cols, seed), fmt="{:7.2f}", columns=cols,
        ),
        render_bar_table(
            "Figure 10: fetch-queue stall cycles / baseline cycles",
            figures.fig10_fetch_stalls(cols, seed), fmt="{:7.2f}", columns=cols,
        ),
        render_scalar_series(
            "Figure 11: maximum in-flight pcommits (Log+P)",
            figures.fig11_inflight_pcommits(cols, seed), fmt="{:8d}",
        ),
        render_scalar_series(
            "Figure 12: avg stores while a pcommit is outstanding (Log+P)",
            figures.fig12_stores_per_pcommit(cols, seed),
        ),
        render_bar_table(
            "Figure 13: SP overhead over baseline vs SSB size",
            {
                f"SSB{entries}": row
                for entries, row in figures.fig13_ssb_sweep(cols, seed=seed).items()
            },
            columns=cols + [GEOMEAN],
        ),
        render_scalar_series(
            "Figure 14: bloom-filter false-positive rate (SP256)",
            figures.fig14_bloom_fp(cols, seed), fmt="{:8.3f}",
        ),
    ]
    headline = figures.headline_claim(cols, seed)
    parts.append(
        "Headline (geomean):\n"
        f"  persist-barrier overhead over Log+P : "
        f"{headline['fence_overhead_vs_logp']:+.1%}  (paper: +20.3%)\n"
        f"  with speculative persistence        : "
        f"{headline['sp_overhead_vs_logp']:+.1%}  (paper: +3.6%)"
    )
    return "\n\n".join(parts), headline


def sweep_campaign(seed, size):
    """The NVMM write-latency and checkpoint-buffer design sweeps."""
    from repro.harness import sweeps
    from repro.harness.figures import GEOMEAN, render_bar_table

    cols = _names(size, "sweep")
    nvmm = sweeps.nvmm_latency_sweep(cols, NVMM_WRITE_NS, seed=seed)
    ckpt = sweeps.checkpoint_sweep(cols, CHECKPOINT_COUNTS, seed=seed)
    return "\n\n".join([
        render_bar_table(
            "NVMM write-latency sweep (geomean over Log+P)",
            {f"{write_ns}ns": row for write_ns, row in nvmm.items()},
        ),
        render_bar_table(
            "Checkpoint-buffer sweep: SP overhead over baseline",
            {f"ckpt{count}": row for count, row in ckpt.items()},
            columns=cols + [GEOMEAN],
        ),
    ]), None


def system_campaign(seed, size):
    """Figure 15 and its contention report (multi-core cells)."""
    from repro.harness import figures
    from repro.harness.figures import render_bar_table

    sizing = SIZES[size]
    grid = dict(core_counts=sizing["cores"], contentions=sizing["contentions"])
    names = list(sizing["system"])
    speedup = figures.fig15_concurrent_speedup(names, seed=seed, **grid)
    report = figures.fig15_contention_report(names, seed=seed, **grid)
    lines = [
        render_bar_table(
            "Figure 15: SP speedup over Log+P+Sf, cores x contention",
            speedup, fmt="{:7.2f}x", columns=list(next(iter(speedup.values()))),
        ),
        "Contention attribution (SP256 legs):",
    ]
    lines += [
        f"  {cell:<14}: {row['aborts']:7.0f} aborts, "
        f"{row['replayed%']:5.1f}% replayed work, {row['skew%']:4.1f}% core skew"
        for cell, row in report.items()
    ]
    return "\n".join(lines), None


CAMPAIGNS = {
    "cold_report": (report_campaign, report_cells),
    "design_sweep": (sweep_campaign, sweep_cells),
    "multicore": (system_campaign, system_cells),
}


def fill_traces(seed, size):
    """design_sweep set-up: generate the 21 (full) traces the sweeps read."""
    from repro.harness.runner import build_trace

    for abbrev, mode in dict.fromkeys((ab, mode) for ab, mode, _ in sweep_cells(size).values()):
        build_trace(abbrev, mode, seed)


def cell_stats(workload, cell, seed):
    """One cell's :class:`RunStats` via the public runner entry points."""
    from repro.harness.runner import run_system, run_variant
    from repro.txn.modes import PersistMode

    if workload == "multicore":
        abbrev, config, cores, contention = cell
        return run_system(abbrev, PersistMode.LOG_P_SF, config, seed,
                          cores=cores, contention=contention)
    abbrev, mode, config = cell
    return run_variant(abbrev, mode, config, seed)


def stats_digest(stats):
    """Digest of a cell's raw counters, stable across the cache round trip."""
    from repro.harness.cache import stats_record

    blob = json.dumps(stats_record(stats), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# host speed probe
# ----------------------------------------------------------------------
class _Node:
    __slots__ = ("value", "next")


class SpeedProbe:
    """Samples how fast this process runs on the host, while it runs.

    The shared host this benchmark was built on changes speed every few
    seconds by up to 2x (other tenants' load), and a calibration run before
    or after a pass misses changes during it.  So a wall-clock timer
    interrupts the pass every ``INTERVAL_S`` and runs a fixed pure-Python
    kernel (a pointer chase over a few MB of objects plus dict updates) in
    the pass's own thread, on its own CPU.  The kernel imports nothing from
    the repository, so no change to the program moves it; the typical
    sample tracks the host's speed over the pass.  ``run.py`` divides by it.
    """

    INTERVAL_S = 0.03
    STEPS = 1000
    NODES = 32768
    #: A sample the hypervisor preempts can take 10x the median, and a warm
    #: pass has only about 15 samples; the host's slow phases are at most
    #: about 2x.  So the typical sample caps each one at this many medians.
    CAP = 3.0

    def __init__(self):
        started = time.perf_counter()
        rng = random.Random(20170624)
        nodes = [_Node() for _ in range(self.NODES)]
        for index, node in enumerate(nodes):
            node.value = index
            node.next = nodes[rng.randrange(self.NODES)]
        self._node = nodes[0]
        self._table = {}
        self.samples = []  # (perf_counter at start, seconds)
        self.build_s = time.perf_counter() - started

    def _tick(self, signum=None, frame=None):
        started = time.perf_counter()
        node, table, acc = self._node, self._table, 0
        for _ in range(self.STEPS):
            node = node.next
            acc += node.value
            key = acc & 4095
            table[key] = table.get(key, 0) + 1
        self._node = node
        self.samples.append((started, time.perf_counter() - started))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:
            self._tick()

    def seconds(self, start=float("-inf"), end=float("inf")):
        """Seconds the samples that started in ``[start, end)`` took."""
        return sum(took for at, took in self.samples if start <= at < end)

    def summary(self, campaign=None):
        """What ``run.py`` needs to rescale this pass's timings."""
        start, end = campaign or (float("inf"), float("inf"))
        took = [took for _, took in self.samples]
        cap = self.CAP * statistics.median(took)
        return {
            "build_s": self.build_s,
            "typical_s": statistics.fmean(min(t, cap) for t in took),
            "seconds": self.seconds(),
            "setup_s": self.seconds(end=start),
            "campaign_s": self.seconds(start, end),
        }


# ----------------------------------------------------------------------
# wall-clock ledger
# ----------------------------------------------------------------------
class Ledger:
    """Span-stack timer around layer calls: total and self seconds per
    layer, plus the counters the per-layer rates are built from."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []

    def wrap(self, layer, func):
        stack = self._stack

        @functools.wraps(func)
        def timed(*args, **kwargs):
            stack.append(0.0)
            started = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                children = stack.pop()
                self.total[layer] += elapsed
                self.self_s[layer] += elapsed - children
                if stack:
                    stack[-1] += elapsed

        return timed


def install_ledger():
    """Wrap each layer's public entry point where its caller looks it up.

    Names the runner imported into its own namespace (``Workbench``,
    ``simulate``) are patched in :mod:`repro.harness.runner`; module
    functions the runner reaches through the module (the cache, the
    concurrent generator, the system driver) are patched on their module;
    methods are patched on their class.  Nothing in
    ``repro.uarch.pipeline._INLINED_METHODS`` and none of the cache-model
    methods the fast path checks is touched (see :func:`pipeline_pristine`).
    """
    from repro.harness import cache, runner
    from repro.isa.trace import Trace
    from repro.uarch import kernel, system
    from repro.workloads import concurrent
    from repro.workloads.base import PersistentWorkload
    from repro.workloads.registry import BenchmarkSpec

    ledger = Ledger()
    for owner, name, layer in (
        (runner, "Workbench", "workloads.construct"),
        (BenchmarkSpec, "build", "workloads.construct"),
        (PersistentWorkload, "populate", "workloads.populate"),
        (PersistentWorkload, "run", "workloads.run"),
        (concurrent, "generate_concurrent", "workloads.concurrent.gen"),
        (Trace, "segments", "isa.segment"),
        (cache, "store_trace", "cache.trace_store"),
        (cache, "store_stats", "cache.stats_store"),
        (cache, "load_cached_trace", "cache.trace_load"),
        (cache, "load_cached_stats", "cache.stats_load"),
    ):
        setattr(owner, name, ledger.wrap(layer, getattr(owner, name)))

    timed_simulate = ledger.wrap("uarch.simulate", runner.simulate)

    def simulate(*args, **kwargs):
        before = kernel.phase_seconds()
        stats = timed_simulate(*args, **kwargs)
        after = kernel.phase_seconds()
        ledger.total["uarch.kernel.classify"] += after["classify"] - before["classify"]
        ledger.total["uarch.kernel.solve"] += after["solve"] - before["solve"]
        ledger.counts["sim_instructions"] += stats.instructions
        return stats

    runner.simulate = simulate

    timed_system = ledger.wrap("uarch.system.run", system.simulate_system)

    def simulate_system(*args, **kwargs):
        result = timed_system(*args, **kwargs)
        ledger.counts["system_instructions"] += sum(
            stats.instructions for stats in result.per_core
        )
        return result

    system.simulate_system = simulate_system
    return ledger


def pipeline_pristine():
    """Whether the simulator's fast path is still eligible: no inlined
    pipeline method or cache-model method was replaced."""
    from repro.uarch import pipeline
    from repro.uarch.config import MachineConfig

    return not pipeline._deoptimized(pipeline.PipelineModel(MachineConfig()))


# ----------------------------------------------------------------------
# one pass
# ----------------------------------------------------------------------
def _store_bytes(root):
    return sum(
        path.stat().st_size
        for sub in ("traces", "stats")
        if (root / sub).is_dir()
        for path in (root / sub).iterdir()
        if path.is_file()
    )


def _ratio(hits, misses):
    return hits / (hits + misses) if hits + misses else 0.0


def run_pass(spec, cache_root):
    from repro.harness import cache, parallel

    parallel.set_default_jobs(1)
    workload, seed, size, phase = spec["workload"], spec["seed"], spec["size"], spec["pass"]
    if phase == "fill":
        fill_traces(seed, size)
        return {}
    campaign, cells_of = CAMPAIGNS[workload]
    cells = cells_of(size)
    ledger = install_ledger() if spec["trace"] else None
    result = {"failures": []}
    before_bytes = _store_bytes(cache_root)
    before = cache.cache_counters().as_dict()
    result["ready_at"] = time.monotonic()
    started = time.perf_counter()
    try:
        text, headline = campaign(seed, size)
    except Exception as exc:  # a broken campaign fails every cell, not the run
        text = headline = None
        result["failures"].append(f"campaign raised {exc!r}")
    result["wall_s"] = time.perf_counter() - started
    result["campaign"] = (started, started + result["wall_s"])
    after = cache.cache_counters().as_dict()
    delta = {key: after[key] - before[key] for key in after}
    result.update(
        text=text,
        headline=headline,
        hit_ratios=[
            _ratio(delta["trace_hits"], delta["trace_misses"]),
            _ratio(delta["stats_hits"], delta["stats_misses"]),
        ],
    )

    digests, instructions, aborts, replayed = {}, 0, 0, 0
    if text is not None:
        for label, cell in cells.items():
            try:
                stats = cell_stats(workload, cell, seed)
            except Exception as exc:
                result["failures"].append(f"{label}: raised {exc!r}")
                continue
            digests[label] = stats_digest(stats)
            instructions += stats.instructions
            aborts += stats.extra.get("conflict_aborts", 0)
            replayed += stats.extra.get("replayed_instructions", 0)
        stores = cache.cache_counters().stats_stores - after["stats_stores"]
        if stores:
            result["failures"].append(f"campaign skipped {stores} cells")
    result["cells"] = digests
    result["counts"] = {
        "cells": len(digests),
        "traces_generated": delta["trace_stores"],
        "sim_instructions": instructions,
        "cache.bytes_written": _store_bytes(cache_root) - before_bytes,
        "uarch.system.aborts": aborts,
    }
    result["replayed_instructions"] = replayed
    if phase == "cold" and text is not None:
        result["counts"]["recorded_ops"] = (
            instructions - replayed if workload == "multicore"
            else _recorded_ops(cells, seed)
        )
    result["failures"] += _setup_check(
        phase, workload, delta["stats_hits"], result["hit_ratios"], len(cells)
    )
    if ledger is not None:
        result["ledger"] = {
            "self": dict(ledger.self_s),
            "total": dict(ledger.total),
            "counts": dict(ledger.counts),
        }
        result["pristine"] = pipeline_pristine()
    return result


def _recorded_ops(cells, seed):
    """Micro-ops in the single-core traces the campaign simulated (read
    back from the in-process memo).  Multi-core cells count their cores'
    committed work minus abort replays, which equals their trace lengths."""
    from repro.harness.runner import build_trace

    keys = {(abbrev, mode) for abbrev, mode, _ in cells.values()}
    return sum(len(build_trace(abbrev, mode, seed)) for abbrev, mode in keys)


def _setup_check(phase, workload, stats_hits, hit_ratios, n_cells):
    """The store must start empty (cold), hold exactly the sweep's traces
    (design_sweep cold) or answer every cell (warm)."""
    want = {
        "warm": [0.0, 1.0],
        "cold": [1.0 if workload == "design_sweep" else 0.0, 0.0],
    }[phase]
    if phase == "warm" and stats_hits != n_cells:
        return [f"warm pass read {stats_hits} of {n_cells} cells from the store"]
    if hit_ratios != want:
        return [f"{phase} pass hit ratios (trace, stats) {hit_ratios}, want {want}"]
    return []


def main():
    spec = json.loads(sys.argv[1])
    probe = SpeedProbe()
    probe.start()
    try:
        started = time.monotonic()
        import repro.cli  # noqa: F401  (the start-up a `python -m repro` user pays)

        import_s = time.monotonic() - started
        from repro.harness import cache

        result = run_pass(spec, cache.cache_root())
    finally:
        probe.stop()
    result["probe"] = probe.summary(result.pop("campaign", None))
    result["import_s"] = import_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(spec["out"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
