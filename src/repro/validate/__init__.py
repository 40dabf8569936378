"""Differential validation subsystem (``python -m repro validate``).

Three engines, each attacking the reproduction from a different angle
(docs/VALIDATION.md has the full treatment):

``conformance``
    Differential oracle: every workload under every persistency mode and
    every SP ablation must produce bit-identical persistent end-state and
    recovery behaviour, and the optimised pipeline must match the
    preserved reference model counter-for-counter
    (:mod:`repro.validate.conformance`).
``crash``
    Multi-operation randomized crash campaigns plus mid-speculation
    machine probes asserting the SSB/checkpoint crash invariant
    (:mod:`repro.validate.crashfuzz`).
``tracefuzz``
    Random-trace property fuzzing with ddmin shrinking, plus
    component-level bloom/BLT/checkpoint property fuzzes
    (:mod:`repro.validate.tracefuzz`).

:func:`run_validation` orchestrates any subset and returns the
:class:`~repro.validate.report.ValidationReport` the CLI serialises.
Every randomized path is seeded from the single top-level ``--seed``;
the emitted report records each check's effective seed, so any failure
can be replayed exactly.

The subsystem can also deliberately sabotage itself:
:mod:`repro.validate.mutations` injects named faults (a lossy bloom
filter, a truncated undo log, a no-op fence, a skewed pipeline) so the
test suite can prove each engine actually catches the class of bug it
claims to.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.validate.conformance import run_conformance
from repro.validate.crashfuzz import run_crashfuzz
from repro.validate.mutations import MUTATIONS, active_mutation, inject
from repro.validate.report import CheckResult, EngineReport, ValidationReport
from repro.validate.tracefuzz import run_tracefuzz
from repro.workloads.registry import WORKLOADS

#: Engine registry, in the order ``repro validate`` runs them.
ENGINES = ("conformance", "crash", "tracefuzz")


def run_validation(
    seed: int = 0,
    engines: Optional[Sequence[str]] = None,
    benchmarks: Optional[Iterable[str]] = None,
    quick: bool = False,
    injected: Optional[str] = None,
) -> ValidationReport:
    """Run the selected validation *engines* and aggregate their reports.

    When *injected* names a mutation from :data:`MUTATIONS`, the engines
    run with that fault live — the expected outcome is a FAILING report
    (that the checks go red is itself checked by the test suite).
    """
    engine_names = list(engines) if engines else list(ENGINES)
    unknown = set(engine_names) - set(ENGINES)
    if unknown:
        raise ValueError(f"unknown engines {sorted(unknown)}; available: {ENGINES}")
    benchmarks = list(benchmarks) if benchmarks is not None else list(WORKLOADS)

    report = ValidationReport(seed=seed, quick=quick, injected=injected)

    def run_engines() -> None:
        if "conformance" in engine_names:
            report.engines["conformance"] = run_conformance(
                seed=seed, benchmarks=benchmarks, quick=quick
            )
        if "crash" in engine_names:
            report.engines["crash"] = run_crashfuzz(
                seed=seed, benchmarks=benchmarks, quick=quick
            )
        if "tracefuzz" in engine_names:
            report.engines["tracefuzz"] = run_tracefuzz(seed=seed, quick=quick)

    if injected:
        with inject(injected):
            run_engines()
    else:
        run_engines()
    return report


__all__ = [
    "CheckResult",
    "ENGINES",
    "EngineReport",
    "MUTATIONS",
    "ValidationReport",
    "active_mutation",
    "inject",
    "run_conformance",
    "run_crashfuzz",
    "run_tracefuzz",
    "run_validation",
]
