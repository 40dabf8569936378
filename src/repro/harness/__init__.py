"""Experiment harness: regenerates every table and figure of the paper.

One function per artefact (``fig8`` ... ``fig14``, ``table1`` ... ``table3``,
``headline``), each returning structured results plus a text renderer so the
benches under ``benchmarks/`` can print the same rows/series the paper
reports.

Results are cached at two layers: an in-process memo per (benchmark, mode,
seed, config), and a persistent content-keyed store under ``.repro-cache/``
(:mod:`repro.harness.cache`) that survives across processes, so warm re-runs
skip trace generation and simulation entirely.  Variant simulation runs
through :mod:`repro.harness.parallel`: serially in process for ``--jobs 1``,
otherwise on the supervised local process pool
(:mod:`repro.harness.supervisor`), with a deterministic merge either way.
"""

from repro.harness.cache import (
    CACHE_SCHEMA_VERSION,
    cache_info,
    cache_root,
    clear_cache,
)
from repro.harness.parallel import (
    VariantJob,
    default_jobs,
    prefetch_variants,
    run_variants,
    set_default_jobs,
)
from repro.harness.runner import (
    TraceKey,
    build_trace,
    clear_trace_cache,
    run_system,
    run_variant,
    system_result,
)
from repro.harness.bench import run_bench
from repro.harness.figures import (
    fig8_overheads,
    fig9_instruction_counts,
    fig10_fetch_stalls,
    fig11_inflight_pcommits,
    fig12_stores_per_pcommit,
    fig13_ssb_sweep,
    fig14_bloom_fp,
    fig15_concurrent_speedup,
    fig15_contention_report,
    headline_claim,
    render_bar_table,
)
from repro.harness.tables import table1_text, table2_text, table3_text

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "TraceKey",
    "VariantJob",
    "build_trace",
    "cache_info",
    "cache_root",
    "clear_cache",
    "clear_trace_cache",
    "default_jobs",
    "prefetch_variants",
    "run_bench",
    "run_system",
    "run_variant",
    "system_result",
    "run_variants",
    "set_default_jobs",
    "fig8_overheads",
    "fig9_instruction_counts",
    "fig10_fetch_stalls",
    "fig11_inflight_pcommits",
    "fig12_stores_per_pcommit",
    "fig13_ssb_sweep",
    "fig14_bloom_fp",
    "fig15_concurrent_speedup",
    "fig15_contention_report",
    "headline_claim",
    "render_bar_table",
    "table1_text",
    "table2_text",
    "table3_text",
]
