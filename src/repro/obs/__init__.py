"""Cycle-resolved observability layer (``repro.obs``).

Instrumentation threaded through the pipeline, memory controller, and
harness: cycle-resolved tracing is opt-in, the host-side telemetry
registry is always on.  Its pieces:

* :mod:`repro.obs.tracer` — the :class:`~repro.obs.tracer.Tracer`
  protocol plus the collecting :class:`~repro.obs.tracer.SpanTracer`
  and the inert :class:`~repro.obs.tracer.NullTracer`.  A pipeline is
  traced by constructing it with ``PipelineModel(config, tracer=...)``;
  with ``tracer=None`` (the default) the model stays byte-for-byte on
  the segment-walker fast path — zero overhead when disabled.
* :mod:`repro.obs.attribution` — decomposes ``stats.cycles`` into
  compute / fetch-stall / sfence-drain / checkpoint / ssb-full buckets
  from the traced stall spans, and cross-checks span counts against the
  run's :class:`~repro.stats.run.RunStats` counters.
* :mod:`repro.obs.perfetto` — Chrome trace-event JSON export (loadable
  in Perfetto / ``chrome://tracing``) plus a dependency-free schema
  validator used by CI.
* :mod:`repro.obs.metrics` — harness self-observability: per-variant
  wall-time/worker records plus read views of the telemetry registry
  (supervisor totals, the metrics line), surfaced by
  ``run``/``report``/``bench`` and ``--metrics-out``.
* :mod:`repro.obs.telemetry` — the process-wide counter/gauge/histogram
  registry, always on: the one store of host-side counts, published into
  by the kernel, pipeline, cache, multi-core runner, and supervisor
  (``--metrics-out`` writes it as its ``counters`` block).

Multi-core: :class:`~repro.obs.tracer.SystemTracer` spans every core of
a :class:`~repro.uarch.system.SystemModel` run plus the aggressor→victim
:class:`~repro.obs.tracer.ConflictRecord` trail; ``attribute_system`` /
``system_attribution_errors`` extend the attribution contract per core,
and :mod:`repro.obs.perfetto` exports the whole system as one timeline
(per-core track groups, shared persistence-domain tracks, conflict flow
arrows).

:mod:`repro.obs.capture` glues the pieces together for the ``python -m
repro trace`` CLI and the validation subsystem.  Import each piece from
its own module: this package root imports nothing, so a run that only
counts (every warm run) loads neither the tracer nor the attribution.

See docs/OBSERVABILITY.md for the event taxonomy and a walkthrough.
"""
