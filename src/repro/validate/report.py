"""Structured results for the validation subsystem.

Every engine reduces to a flat list of :class:`CheckResult` records — one
per asserted property — grouped into an :class:`EngineReport`; the
:class:`ValidationReport` aggregates the engines and serialises to the
JSON document ``python -m repro validate`` emits.  Each record carries the
seed it was derived from, so any reported failure names everything needed
to replay it (see docs/VALIDATION.md).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union


@dataclass
class CheckResult:
    """One asserted property: a name, a verdict, and replay context."""

    name: str
    ok: bool
    detail: str = ""
    seed: Optional[int] = None
    #: free-form replay context (benchmark, mode, crash point, shrunk
    #: trace, ...) — everything needed to reproduce the check.
    context: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {"name": self.name, "ok": self.ok}
        if self.detail:
            data["detail"] = self.detail
        if self.seed is not None:
            data["seed"] = self.seed
        if self.context:
            data["context"] = self.context
        return data


@dataclass
class EngineReport:
    """All checks one engine ran, plus its configuration echo."""

    engine: str
    seed: int
    checks: List[CheckResult] = field(default_factory=list)
    #: the engine's effective parameters (sizes, case counts, ...).
    params: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    @property
    def failures(self) -> List[CheckResult]:
        return [check for check in self.checks if not check.ok]

    def add(
        self,
        name: str,
        ok: bool,
        detail: str = "",
        seed: Optional[int] = None,
        **context: object,
    ) -> CheckResult:
        result = CheckResult(
            name, ok, detail, self.seed if seed is None else seed, context
        )
        self.checks.append(result)
        return result

    def as_dict(self) -> Dict[str, object]:
        return {
            "engine": self.engine,
            "seed": self.seed,
            "ok": self.ok,
            "params": self.params,
            "n_checks": len(self.checks),
            "n_failures": len(self.failures),
            "checks": [check.as_dict() for check in self.checks],
        }


@dataclass
class ValidationReport:
    """The full ``repro validate`` run."""

    seed: int
    quick: bool
    engines: Dict[str, EngineReport] = field(default_factory=dict)
    #: name of the injected mutation, when the run was deliberately broken
    #: (``--inject``); None for honest runs.
    injected: Optional[str] = None

    @property
    def ok(self) -> bool:
        return bool(self.engines) and all(e.ok for e in self.engines.values())

    def as_dict(self) -> Dict[str, object]:
        from repro.obs import metrics as obs_metrics

        return {
            "subsystem": "repro.validate",
            "seed": self.seed,
            "quick": self.quick,
            "injected": self.injected,
            "ok": self.ok,
            # fault-tolerance accounting: campaigns the supervisor ran for
            # the oracle's cache warm-up, and any recovery that fired —
            # a validation verdict obtained through retries/requeues is
            # still trustworthy (results are pure and merge-deterministic),
            # but the report says the run was not failure-free
            "supervisor": obs_metrics.supervisor_totals(),
            "engines": {name: rep.as_dict() for name, rep in self.engines.items()},
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=False)

    def write(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """Human-readable run summary (printed alongside the JSON file)."""
        lines = [
            f"repro validate — seed {self.seed}"
            + (" (quick)" if self.quick else "")
            + (f" [injected: {self.injected}]" if self.injected else "")
        ]
        for name, engine in self.engines.items():
            verdict = "ok" if engine.ok else "FAILED"
            lines.append(
                f"  {name:<12} {len(engine.checks):>4} checks  "
                f"{len(engine.failures):>3} failures  {verdict}"
            )
            for failure in engine.failures[:8]:
                lines.append(f"    ! {failure.name}: {failure.detail}")
        from repro.obs import metrics as obs_metrics

        recovery = obs_metrics.supervisor_recovery()
        if recovery:
            lines.append(f"  {recovery}")
        lines.append("overall: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)
