"""Differential conformance oracle (validation engine 1).

The paper's central semantic claim: persistency machinery — undo logging,
PMEM instructions, fences, and the entire SP microarchitecture — changes
*when* data becomes durable, never *what* the program computes.  The
oracle checks that claim differentially, at two layers:

**Functional layer.**  Every workload is executed under every
:class:`~repro.txn.modes.PersistMode` with the same seed; the persistent
heap end-state (with the undo-log region masked — its contents are the
one legitimate mode difference) and the reference model must be
bit-identical to the eager fully-fenced WAL baseline (``LOG_P_SF``).
For failure-safe modes the oracle additionally performs the
*recovery-equivalence* check: an instant power failure after the run
followed by WAL recovery must reproduce the same masked heap image —
a fully committed history has nothing to lose and nothing to undo.

**Timing layer.**  The recorded trace of each variant is simulated on a
matrix of machine configurations — the eager baseline, SP, and every SP
ablation (bloom filter off, barrier-checkpoint coalescing off, small
SSB, reduced checkpoint buffer) — on *both* the optimised pipeline and
the preserved reference model (:mod:`repro.uarch.pipeline_ref`).  The
two implementations must agree counter-for-counter, and the retired
instruction count must be invariant across configurations (timing knobs
must never change the architectural work performed).

Each matrix cell is additionally re-simulated with a
:class:`~repro.obs.tracer.SpanTracer` attached (forcing the exact
per-op loop): the traced run must be counter-identical to the fast
path, its span set must agree with the RunStats counters, and the
stall-attribution buckets must decompose ``cycles`` exactly
(:mod:`repro.obs.attribution`) — so the observability layer can never
drift from the model it observes.

Because the optimised pipeline consumes the trace's columnar form and
segment list while the reference model iterates ``Instr`` rows, this
matrix also pins down the dual-representation contract: a trace's
columns, its lazily materialised rows, and its segmentation must all
describe the same instruction stream, or the two models diverge.

Traces come from the persistent content-keyed cache and, for honest
(non-mutated) runs, fast-model results go through the parallel variant
scheduler — the oracle reuses both PR-1 subsystems.  When a fault
injection is active (:mod:`repro.validate.mutations`) everything is
recomputed in-process so the mutation is actually exercised.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Optional, Tuple

from repro.harness.parallel import VariantJob, run_variants
from repro.harness.runner import build_trace, run_variant
from repro.obs.attribution import (
    attribution_errors,
    consistency_errors,
    system_attribution_errors,
)
from repro.obs.tracer import SpanTracer, SystemTracer
from repro.uarch.pipeline import PipelineModel
from repro.txn.modes import PersistMode
from repro.uarch.config import MachineConfig
from repro.uarch.pipeline import simulate
from repro.uarch.pipeline_ref import simulate_reference
from repro.uarch.system import simulate_system
from repro.validate import mutations
from repro.validate.report import EngineReport
from repro.workloads.concurrent import generate_concurrent, serial_oracle_check
from repro.workloads.base import PersistentWorkload, Workbench
from repro.workloads.registry import PAPER_SPECS, WORKLOADS

#: Small structure parameters so conformance runs stay fast; mirrors the
#: test suite's sizing (paper-scale runs live under benchmarks/).
SMALL_PARAMS: Dict[str, dict] = {
    "GH": dict(n_vertices=16),
    "HM": dict(initial_capacity=64),
    "LL": dict(max_nodes=64),
    "SS": dict(n_strings=8),
    "AT": dict(key_space=128),
    "BT": dict(key_space=128),
    "RT": dict(key_space=128),
}

SMALL_HEAP = 1 << 22


def build_small_workload(
    abbrev: str, mode: PersistMode, seed: int, heap_size: int = SMALL_HEAP
) -> PersistentWorkload:
    """A small, persistence-tracked instance of one registered workload."""
    bench = Workbench(
        mode=mode,
        heap_size=heap_size,
        record=False,
        track_persistence=True,
        seed=seed,
    )
    return PAPER_SPECS[abbrev].factory(bench, **SMALL_PARAMS[abbrev])


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------
def masked_heap_digest(workload: PersistentWorkload) -> str:
    """SHA-256 of the heap image with the undo-log region zeroed.

    The log region's contents legitimately differ between modes (``BASE``
    never writes it, ``LOG`` fills it); everything else — structure
    nodes, metadata blocks, string payloads — must be bit-identical for
    the same seed regardless of mode.
    """
    image = bytearray(workload.bench.heap.snapshot())
    log = workload.tx.log
    image[log.base : log.base + log.capacity] = bytes(log.capacity)
    return hashlib.sha256(bytes(image)).hexdigest()


def model_digest(workload: PersistentWorkload) -> str:
    """Canonical digest of the Python-side reference model."""
    model = workload.model
    if isinstance(model, dict):
        canon: List = sorted((repr(k), repr(v)) for k, v in model.items())
    elif isinstance(model, (set, frozenset)):
        canon = sorted(repr(item) for item in model)
    else:  # ordered containers keep their order
        canon = [repr(item) for item in model]
    blob = json.dumps(canon, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def end_state_digests(
    abbrev: str, mode: PersistMode, seed: int, init_ops: int, sim_ops: int
) -> Tuple[str, str, Optional[str]]:
    """Run one variant to completion; returns ``(heap_digest,
    model_digest, invariant_error)``."""
    workload = build_small_workload(abbrev, mode, seed)
    workload.populate(init_ops)
    workload.run(sim_ops)
    return masked_heap_digest(workload), model_digest(workload), workload.check_invariants()


# ----------------------------------------------------------------------
# the configuration matrix for the timing differential
# ----------------------------------------------------------------------
def ablation_matrix() -> List[Tuple[str, MachineConfig]]:
    """Baseline, SP, and every SP ablation the oracle cross-checks."""
    base = MachineConfig()
    return [
        ("eager", base),
        ("sp256", base.with_sp(256)),
        ("sp256-no-bloom", base.with_sp(256, bloom_enabled=False)),
        ("sp256-no-coalesce", base.with_sp(256, coalesce_barrier_checkpoints=False)),
        ("sp32", base.with_sp(32)),
        ("sp256-ckpt2", base.with_sp(256, checkpoint_entries=2)),
    ]


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
def run_conformance(
    seed: int = 0,
    benchmarks: Iterable[str] = WORKLOADS,
    quick: bool = False,
    init_ops: Optional[int] = None,
    sim_ops: Optional[int] = None,
    trace_init_ops: Optional[int] = None,
    trace_sim_ops: Optional[int] = None,
) -> EngineReport:
    """Run the full differential conformance oracle."""
    benchmarks = list(benchmarks)
    init_ops = init_ops if init_ops is not None else (40 if quick else 120)
    sim_ops = sim_ops if sim_ops is not None else (8 if quick else 16)
    trace_init_ops = (
        trace_init_ops if trace_init_ops is not None else (100 if quick else 200)
    )
    trace_sim_ops = (
        trace_sim_ops if trace_sim_ops is not None else (6 if quick else 10)
    )
    report = EngineReport(
        engine="conformance",
        seed=seed,
        params=dict(
            benchmarks=benchmarks,
            init_ops=init_ops,
            sim_ops=sim_ops,
            trace_init_ops=trace_init_ops,
            trace_sim_ops=trace_sim_ops,
        ),
    )

    # ---- functional layer -------------------------------------------
    for abbrev in benchmarks:
        digests: Dict[PersistMode, Tuple[str, str]] = {}
        for mode in PersistMode:
            heap_dig, model_dig, error = end_state_digests(
                abbrev, mode, seed, init_ops, sim_ops
            )
            report.add(
                f"invariants/{abbrev}/{mode.value}",
                error is None,
                detail=error or "",
                abbrev=abbrev,
                mode=mode.value,
            )
            digests[mode] = (heap_dig, model_dig)
        base_heap, base_model = digests[PersistMode.LOG_P_SF]
        for mode in PersistMode:
            heap_dig, model_dig = digests[mode]
            report.add(
                f"end-state/{abbrev}/{mode.value}",
                heap_dig == base_heap and model_dig == base_model,
                detail=(
                    ""
                    if heap_dig == base_heap and model_dig == base_model
                    else f"heap {heap_dig[:12]} vs {base_heap[:12]}, "
                    f"model {model_dig[:12]} vs {base_model[:12]}"
                ),
                abbrev=abbrev,
                mode=mode.value,
                heap_digest=heap_dig,
                model_digest=model_dig,
            )

        # recovery equivalence for the failure-safe baseline
        workload = build_small_workload(abbrev, PersistMode.LOG_P_SF, seed)
        workload.populate(init_ops)
        workload.run(sim_ops)
        pre_heap = masked_heap_digest(workload)
        pre_model = model_digest(workload)
        workload.bench.domain.crash()
        workload.recover()
        post_heap = masked_heap_digest(workload)
        error = workload.check_invariants()
        ok = post_heap == pre_heap and model_digest(workload) == pre_model and error is None
        report.add(
            f"recovery/{abbrev}",
            ok,
            detail=error
            or ("" if post_heap == pre_heap else "post-crash heap image diverged"),
            abbrev=abbrev,
            mode=PersistMode.LOG_P_SF.value,
        )

    # ---- timing layer -----------------------------------------------
    matrix = ablation_matrix()
    mutated = mutations.active_mutation() is not None
    if not mutated:
        # warm the trace + stats caches through the parallel scheduler
        # (supervised by default: worker deaths, hangs, and corrupted
        # cache entries are retried/requeued rather than failing the
        # oracle — see repro.harness.supervisor)
        jobs = [
            VariantJob(ab, PersistMode.BASE, MachineConfig(), seed,
                       trace_init_ops, trace_sim_ops)
            for ab in benchmarks
        ] + [
            VariantJob(ab, PersistMode.LOG_P_SF, config, seed,
                       trace_init_ops, trace_sim_ops)
            for ab in benchmarks
            for _, config in matrix
        ]
        warmed = run_variants(jobs)
        report.add(
            "campaign/warmup-complete",
            all(stats is not None for stats in warmed),
            detail="" if all(s is not None for s in warmed)
            else "scheduler returned incomplete results",
            n_jobs=len(jobs),
        )
    for abbrev in benchmarks:
        for mode, configs in (
            (PersistMode.BASE, matrix[:1]),
            (PersistMode.LOG_P_SF, matrix),
        ):
            trace = build_trace(
                abbrev, mode, seed=seed,
                init_ops=trace_init_ops, sim_ops=trace_sim_ops,
            )
            instruction_counts: Dict[str, int] = {}
            for label, config in configs:
                if mutated:
                    # recompute in-process so the injected fault is
                    # actually exercised (caches hold honest results)
                    fast = simulate(trace, config).as_dict()
                else:
                    fast = run_variant(
                        abbrev, mode, config, seed, trace_init_ops, trace_sim_ops
                    ).as_dict()
                ref = simulate_reference(trace, config).as_dict()
                diverged = {
                    key: (fast[key], ref[key])
                    for key in fast
                    if fast[key] != ref.get(key)
                }
                report.add(
                    f"pipeline-vs-ref/{abbrev}/{mode.value}/{label}",
                    not diverged,
                    detail="" if not diverged else f"diverged counters: {diverged}",
                    abbrev=abbrev,
                    mode=mode.value,
                    config=label,
                )
                # observability cross-check: a traced run must match the
                # fast path bit-for-bit, its spans must agree with the
                # counters, and attribution must sum to cycles exactly
                try:
                    tracer = SpanTracer()
                    traced = PipelineModel(config, tracer=tracer).run(trace)
                    problems: List[str] = []
                    if traced.as_dict() != fast:
                        problems.append("traced run diverged from fast path")
                    problems += consistency_errors(traced, tracer)
                    problems += attribution_errors(traced, tracer)
                except Exception as exc:  # mutations may legally break this
                    problems = [f"traced run raised {exc!r}"]
                report.add(
                    f"observability/{abbrev}/{mode.value}/{label}",
                    not problems,
                    detail="; ".join(problems),
                    abbrev=abbrev,
                    mode=mode.value,
                    config=label,
                )
                if not fast["rollbacks"]:
                    instruction_counts[label] = fast["instructions"]
            if len(set(instruction_counts.values())) > 1:
                report.add(
                    f"instruction-invariance/{abbrev}/{mode.value}",
                    False,
                    detail=f"retired instructions vary by config: {instruction_counts}",
                    abbrev=abbrev,
                    mode=mode.value,
                )
            else:
                report.add(
                    f"instruction-invariance/{abbrev}/{mode.value}",
                    True,
                    abbrev=abbrev,
                    mode=mode.value,
                )

    # ---- system layer (multi-core co-simulation) --------------------
    system_benchmarks = [ab for ab in benchmarks if ab in ("HM", "BT")]
    if quick:
        system_benchmarks = system_benchmarks[:1]
    for abbrev in system_benchmarks:
        _system_checks(report, abbrev, seed)
    return report


def _system_checks(report: EngineReport, abbrev: str, seed: int) -> None:
    """Multi-core conformance cell (see repro.uarch.system).

    Zero contention: a 2-core run over a shared heap must equal two
    independent single-core runs of the same per-core traces,
    counter-for-counter and cycle-for-cycle, with zero conflicts.
    Under contention: every abort must be replayed to commit (each core
    retires at least its trace's micro-op count) and the shared heap
    must match the serial oracle.
    """
    for label, config in (
        ("eager", MachineConfig()),
        ("sp256", MachineConfig().with_sp(256)),
    ):
        run = generate_concurrent(
            abbrev, PersistMode.LOG_P_SF, n_cores=2, contention=0.0,
            seed=seed + 17,
        )
        result = simulate_system(run.traces, config)
        problems: List[str] = []
        if result.conflict_aborts or result.store_broadcasts == 0:
            problems.append(
                f"expected broadcasts and no aborts, got "
                f"{result.store_broadcasts} broadcasts / "
                f"{result.conflict_aborts} aborts"
            )
        for index, trace in enumerate(run.traces):
            solo = simulate(trace, config).as_dict()
            system = result.per_core[index].as_dict()
            diverged = {
                key: (system[key], solo[key])
                for key in system
                if system[key] != solo.get(key)
            }
            if diverged:
                problems.append(f"core {index} diverged: {diverged}")
        report.add(
            f"system/{abbrev}/zero-contention/{label}",
            not problems,
            detail="; ".join(problems),
            abbrev=abbrev,
            cores=2,
            contention=0.0,
            config=label,
        )

    run = generate_concurrent(
        abbrev, PersistMode.LOG_P_SF, n_cores=2, contention=0.8,
        seed=seed + 17,
    )
    result = simulate_system(run.traces, MachineConfig().with_sp(256))
    problems = []
    if not result.conflict_aborts:
        problems.append("contention 0.8 produced no conflict aborts")
    for index, trace in enumerate(run.traces):
        stats = result.per_core[index]
        if stats.instructions < len(trace):
            problems.append(
                f"core {index} retired {stats.instructions} of "
                f"{len(trace)} micro-ops (abort not replayed to commit)"
            )
        if stats.conflict_abort_cycles and not stats.rollbacks:
            problems.append(f"core {index} counted abort cycles without rollbacks")
    error = serial_oracle_check(run)
    if error is not None:
        problems.append(error)
    report.add(
        f"system/{abbrev}/conflict-replay",
        not problems,
        detail="; ".join(problems),
        abbrev=abbrev,
        cores=2,
        contention=0.8,
        config="sp256",
    )

    # ---- system observability: a traced co-simulation must match the
    # untraced one counter-for-counter on every core, its per-core
    # attribution buckets must sum to that core's cycles exactly, and
    # the driver's conflict records must account for every abort
    system_tracer = SystemTracer(2)
    traced = simulate_system(
        run.traces, MachineConfig().with_sp(256), system_tracer=system_tracer,
    )
    problems = []
    for index, (traced_stats, plain_stats) in enumerate(
        zip(traced.per_core, result.per_core)
    ):
        traced_dict, plain_dict = traced_stats.as_dict(), plain_stats.as_dict()
        diverged = {
            key: (traced_dict[key], plain_dict[key])
            for key in traced_dict
            if traced_dict[key] != plain_dict.get(key)
        }
        if diverged:
            problems.append(f"core {index} traced run diverged: {diverged}")
    if traced.conflict_aborts != result.conflict_aborts:
        problems.append(
            f"traced run saw {traced.conflict_aborts} aborts, untraced "
            f"{result.conflict_aborts}"
        )
    problems += system_attribution_errors(traced, system_tracer)
    report.add(
        f"system/{abbrev}/observability",
        not problems,
        detail="; ".join(problems),
        abbrev=abbrev,
        cores=2,
        contention=0.8,
        config="sp256",
    )
