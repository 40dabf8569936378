"""wallbench: wall-clock benchmark of the reproduction's user workloads.

Run from the root of a checkout::

    python3 wallbench/run.py --workload cold_report --seed 7 --seconds 30 --trace 0

Workloads (see ``wallbench/NOTE.md``): ``cold_report`` (the ``report``
figure set from an empty cache), ``design_sweep`` (the NVMM-latency and
checkpoint sweeps over a pre-filled trace store) and ``multicore``
(Figure 15).  Every pass runs :mod:`child` in a fresh interpreter with
``jobs=1``, every ``REPRO_*`` variable scrubbed and a fresh store under
``.wallbench-tmp/``.  One repetition is a cold pass (timed) followed by
fresh-process warm passes over the store it filled; repetitions continue
while another one fits in ``--seconds``.

``--trace 0`` prints the end-to-end metrics (medians over repetitions;
times in reference seconds, see ``PROBE_REFERENCE_S``);
``--trace 1`` adds one traced repetition and prints the per-layer
wall-clock ledger instead.  Every pass is checked against the first pass,
against the pinned answers in ``wallbench/pinned/`` when the seed has
them, and for identical exact-repeat counts.  The last stdout line is the
JSON result; the exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
PINNED_DIR = HERE / "pinned"

WORKLOADS = ("cold_report", "design_sweep", "multicore")
#: Mean seconds of one :class:`child.SpeedProbe` sample on the reference
#: host (NOTE.md) in its fast phase.  Every timing a pass reports is in
#: reference seconds: its host seconds, less the probe's own samples,
#: times ``PROBE_REFERENCE_S`` / the pass's typical sample.
PROBE_REFERENCE_S = 2.5e-4
#: Fresh-process warm passes per untraced repetition (``warm_s`` median).
WARM_PASSES = 5
#: Every pass must have ended this many seconds after the run started.
RUN_LIMIT_S = 170.0
#: Share of the traced wall time by which the layer self times plus the
#: residual may miss it (the ``wall_s`` bound of BENCHMARK.json).
LEDGER_TOLERANCE = 0.1
#: Self-time layers of the ledger, keyed by the metric that reports them.
LEDGER_LAYERS = {
    "workloads.construct_s": "workloads.construct",
    "workloads.populate_s": "workloads.populate",
    "workloads.run_s": "workloads.run",
    "workloads.concurrent.gen_s": "workloads.concurrent.gen",
    "isa.segment_s": "isa.segment",
    "cache.trace_store_s": "cache.trace_store",
    "cache.stats_store_s": "cache.stats_store",
    "cache.trace_load_s": "cache.trace_load",
    "cache.stats_load_s": "cache.stats_load",
    "uarch.system.run_s": "uarch.system.run",
}
UNITS = {
    "wall_s": "s", "warm_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "workloads.gen_ips": "instr/s", "uarch.sim_ips": "instr/s",
    "uarch.system.ips": "instr/s", "cache.bytes_written": "B",
    "cache.trace_hit_ratio": "ratio", "cache.stats_hit_ratio": "ratio",
    "uarch.system.aborts": "count", "uarch.system.replayed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


class PassError(RuntimeError):
    """A pass exited non-zero or overran the run's time limit."""


def _median(values):
    return statistics.median(values) if values else 0.0


def _env() -> dict:
    """The caller's environment without any ``REPRO_*`` setting (chaos,
    kernel, classify, no-cache, telemetry, transport, workers, timeouts),
    importing the checkout's own ``src``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Bench:
    """One benchmark run: set-up, repetitions, checks and the result."""

    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = _env()
        self.template = None
        self.fill_s = 0.0
        self.n_passes = 0

    # ------------------------------------------------------------------
    # processes
    # ------------------------------------------------------------------
    def _exec(self, argv, store: Path):
        env = dict(self.env, REPRO_CACHE_DIR=str(store))
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise PassError(f"run exceeded {RUN_LIMIT_S:.0f} s")
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise PassError(f"pass overran the {RUN_LIMIT_S:.0f} s run limit") from None
        if proc.returncode != 0:
            raise PassError(f"pass exited {proc.returncode}:\n{proc.stderr[-3000:]}")

    def spawn(self, phase: str, store: Path, trace: bool = False) -> dict:
        """Run one pass in a fresh interpreter; returns its result record."""
        self.n_passes += 1
        out = self.work / f"pass-{self.n_passes}.json"
        spec = {
            "workload": self.args.workload, "seed": self.args.seed,
            "size": self.args.size, "pass": phase, "trace": trace, "out": str(out),
        }
        started = time.monotonic()
        self._exec([sys.executable, str(CHILD), json.dumps(spec)], store)
        result = json.loads(out.read_text())
        process_s = time.monotonic() - started
        probe = result["probe"]
        scale = PROBE_REFERENCE_S / probe["typical_s"]
        result.update(
            phase=phase, scale=scale, host_process_s=process_s,
            process_s=(process_s - probe["build_s"] - probe["seconds"]) * scale,
        )
        if "ready_at" in result:
            result["host_wall_s"] = result["wall_s"]
            result["wall_s"] = (result["wall_s"] - probe["campaign_s"]) * scale
            result["setup_s"] = (
                result["ready_at"] - started - probe["build_s"] - probe["setup_s"]
            ) * scale
        return result

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------
    def prepare(self) -> None:
        """Compile the package's bytecode once (untimed), and for
        design_sweep fill the trace store every repetition copies."""
        self._exec([sys.executable, "-c", "import repro.cli"], self.work)
        if self.args.workload == "design_sweep":
            self.template = self.work / "template"
            self.fill_s = self.spawn("fill", self.template)["process_s"]

    def repetition(self, trace: bool = False) -> dict:
        started = time.monotonic()
        store = Path(tempfile.mkdtemp(prefix="store-", dir=self.work))
        if self.template is not None:
            shutil.copytree(self.template / "traces", store / "traces")
        prep_s = time.monotonic() - started
        cold = self.spawn("cold", store, trace)
        cold["setup_s"] += prep_s * cold["scale"]
        warm = [self.spawn("warm", store, trace) for _ in range(1 if trace else WARM_PASSES)]
        shutil.rmtree(store)
        return {"cold": cold, "warm": warm, "seconds": time.monotonic() - started}

    def measure(self):
        """Untraced repetitions while another fits in ``--seconds`` (at
        least one), then one traced repetition with ``--trace 1``."""
        self.prepare()
        reps = []
        window = time.monotonic()
        while True:
            reps.append(self.repetition())
            now = time.monotonic()
            last = reps[-1]["seconds"]
            if now - window + last > self.args.seconds or now + 2 * last > self.deadline:
                break
        traced = self.repetition(trace=True) if self.args.trace else None
        return reps, traced


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def check(reps, traced, pinned):
    """Compare every pass with the pinned answers (or the first pass).

    Returns ``(attempted, failed, problems)``: one item per cell plus one
    for the rendered text, per pass; ``problems`` lists every failed
    check, including those that are not items (counts, set-up, ledger).
    """
    passes = [p for rep in reps + ([traced] if traced else []) for p in [rep["cold"]] + rep["warm"]]
    first = reps[0]["cold"]
    ref_cells = pinned["cells"] if pinned else first["cells"]
    ref_text = "\n".join(pinned["text"]) if pinned else first["text"]
    labels = set(ref_cells).union(*(p["cells"] for p in passes))
    attempted = failed = 0
    problems = []
    for index, p in enumerate(passes):
        name = f"pass {index} ({p['phase']}{', traced' if 'ledger' in p else ''})"
        problems += [f"{name}: {message}" for message in p["failures"]]
        bad = sorted(
            label for label in labels
            if p["cells"].get(label) is None or p["cells"][label] != ref_cells.get(label)
        )
        if bad:
            problems.append(f"{name}: {len(bad)} cells differ, e.g. {bad[:3]}")
        text_bad = p["text"] is None or p["text"] != ref_text
        if text_bad:
            problems.append(f"{name}: rendered figure text differs")
        attempted += len(labels) + 1
        failed += len(bad) + text_bad
        if "ledger" in p and not p["pristine"]:
            problems.append(f"{name}: tracing touched an inlined pipeline method")

    # exact-repeat counts (cells, traces_generated, recorded_ops,
    # sim_instructions, cache.bytes_written, uarch.system.aborts): a
    # difference means nondeterminism or a silently skipped cell
    for phase in ("cold", "warm"):
        seen = {json.dumps(p["counts"], sort_keys=True) for p in passes if p["phase"] == phase}
        if len(seen) > 1:
            problems.append(f"{phase} passes disagree on exact-repeat counts: {sorted(seen)}")
    if pinned and first["counts"] != pinned["counts"]:
        problems.append(f"counts {first['counts']} differ from pinned {pinned['counts']}")
    return attempted, failed, problems


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def end_to_end(bench: Bench, reps) -> dict:
    cold = [rep["cold"] for rep in reps]
    warm = [p for rep in reps for p in rep["warm"]]
    return {
        "wall_s": _median([p["wall_s"] for p in cold]),
        "warm_s": _median([p["process_s"] for p in warm]),
        "setup_s": bench.fill_s + _median([p["setup_s"] for p in cold + warm]),
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in cold]),
    }


def _merge(passes, key):
    merged = {}
    for p in passes:
        for name, value in p["ledger"][key].items():
            merged[name] = merged.get(name, 0.0) + value
    return merged


def per_layer(reps, traced):
    """The wall-clock ledger of the traced repetition (cold + warm pass),
    in host seconds; only the tracing overhead compares reference seconds."""
    passes = [traced["cold"]] + traced["warm"]
    cold = traced["cold"]
    self_s, total, counts = (_merge(passes, key) for key in ("self", "total", "counts"))
    wall = sum(p["host_wall_s"] for p in passes)
    untraced = _median([rep["cold"]["wall_s"] for rep in reps]) + _median(
        [p["wall_s"] for rep in reps for p in rep["warm"]]
    )
    traced_wall = sum(p["wall_s"] for p in passes)
    metrics = {name: self_s.get(layer, 0.0) for name, layer in LEDGER_LAYERS.items()}
    classify = total.get("uarch.kernel.classify", 0.0)
    solve = total.get("uarch.kernel.solve", 0.0)
    simulate = total.get("uarch.simulate", 0.0)
    gen_s = sum(metrics[f"workloads.{step}_s"] for step in ("construct", "populate", "run"))
    instructions = cold["counts"]["sim_instructions"]
    metrics.update({
        "uarch.kernel.classify_s": classify,
        "uarch.kernel.solve_s": solve,
        "uarch.pipeline_s": self_s.get("uarch.simulate", 0.0) - classify - solve,
    })
    ledger_sum = sum(metrics.values())
    metrics.update({
        "harness.residual_s": wall - sum(self_s.values()),
        "workloads.gen_ips": cold["counts"].get("recorded_ops", 0) / gen_s if gen_s else 0.0,
        "cache.bytes_written": cold["counts"]["cache.bytes_written"],
        "cache.trace_hit_ratio": cold["hit_ratios"][0],
        "cache.stats_hit_ratio": cold["hit_ratios"][1],
        "uarch.simulate_s": simulate,
        "uarch.sim_ips": counts.get("sim_instructions", 0) / simulate if simulate else 0.0,
        "uarch.system.ips": (
            counts.get("system_instructions", 0) / total["uarch.system.run"]
            if total.get("uarch.system.run") else 0.0
        ),
        "uarch.system.aborts": cold["counts"]["uarch.system.aborts"],
        "uarch.system.replayed_frac": (
            cold["replayed_instructions"] / instructions if instructions else 0.0
        ),
        "startup.import_s": _median([p["import_s"] for rep in reps + [traced]
                                     for p in [rep["cold"]] + rep["warm"]]),
        "trace.overhead_frac": (traced_wall - untraced) / untraced,
    })
    problems = []
    residual = metrics["harness.residual_s"]
    if abs(ledger_sum + residual - wall) > LEDGER_TOLERANCE * wall or residual < -LEDGER_TOLERANCE * wall:
        problems.append(
            f"ledger: layers {ledger_sum:.3f} s + residual {residual:.3f} s "
            f"do not add up to the traced wall {wall:.3f} s"
        )
    return metrics, problems


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def provenance() -> dict:
    """Interpreter, numpy, kernel backend, classify mode, cores, git rev."""
    probe = (
        "import json, numpy; from repro.uarch.kernel import resolve_backend;"
        "from repro.uarch.classify import resolve_mode;"
        "print(json.dumps([numpy.__version__, resolve_backend(None), resolve_mode(None)]))"
    )
    env = _env()
    out = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=60)
    numpy_version, backend, classify = json.loads(out.stdout) if out.returncode == 0 else (None,) * 3
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, env=dict(env, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        rev = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        rev = None
    return {
        "python": platform.python_version(), "numpy": numpy_version,
        "kernel_backend": backend, "classify_mode": classify,
        "nproc": os.cpu_count(), "git_rev": rev,
    }


def _pinned_path(args) -> Path:
    return PINNED_DIR / f"{args.size}-seed{args.seed}.json"


def pin(args, first: dict) -> None:
    """Record the first cold pass as the pinned answer for this seed."""
    path = _pinned_path(args)
    data = json.loads(path.read_text()) if path.exists() else {}
    data[args.workload] = {
        "cells": first["cells"], "text": first["text"].split("\n"), "counts": first["counts"],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"pinned {args.workload} answers to {path}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measurement window; whole repetitions, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few benchmarks, for the self-test")
    parser.add_argument("--pin", action="store_true",
                        help="write this run's answers as the pinned ones")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"wallbench: no src/repro under {ROOT}; run it from a checkout", file=sys.stderr)
        return 2
    scratch = ROOT / ".wallbench-tmp"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    bench = Bench(args, work)
    try:
        reps, traced = bench.measure()
    except PassError as exc:
        print(f"wallbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    path = _pinned_path(args)
    pinned = None
    if path.exists() and not args.pin:
        pinned = json.loads(path.read_text()).get(args.workload)
    attempted, failed, problems = check(reps, traced, pinned)
    if traced:
        metrics, ledger_problems = per_layer(reps, traced)
        problems += ledger_problems
    else:
        metrics = end_to_end(bench, reps)

    first = reps[0]["cold"]
    print("provenance:", json.dumps(provenance(), sort_keys=True))
    print(f"passes: {bench.n_passes}, repetitions: {len(reps)}"
          f"{' + 1 traced' if traced else ''}, counts: {json.dumps(first['counts'], sort_keys=True)}")
    print(f"pinned answers: {'checked against ' + path.name if pinned else 'none for this seed; passes checked against the first'}")
    every = [p for rep in reps for p in [rep["cold"]] + rep["warm"]]
    print(
        f"host seconds before rescaling: cold campaign "
        f"{_median([rep['cold']['host_wall_s'] for rep in reps]):.3f}, warm pass "
        f"{_median([p['host_process_s'] for rep in reps for p in rep['warm']]):.3f}; "
        f"reference/host speed per pass {min(p['scale'] for p in every):.3f}"
        f"-{max(p['scale'] for p in every):.3f}"
    )
    if first["headline"]:
        print(
            f"headline (seed {args.seed}): persist-barrier overhead over Log+P "
            f"{first['headline']['fence_overhead_vs_logp']:+.1%} (paper +20.3%), "
            f"with SP {first['headline']['sp_overhead_vs_logp']:+.1%} (paper +3.6%); "
            "the timing model is not validated against hardware"
        )
    print(f"error_rate: {failed / attempted:.4f} ({failed} of {attempted} cell checks failed)")
    for problem in problems:
        print("FAIL", problem)
    if args.pin and not problems:
        pin(args, first)
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": UNITS.get(name, "s")}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
