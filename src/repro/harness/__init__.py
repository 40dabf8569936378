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
