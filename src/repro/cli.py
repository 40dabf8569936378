"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``tables``
    Print Tables 1-3.
``figure {8,9,10,11,12,13,14}``
    Regenerate one figure of the paper's evaluation.
``headline``
    The abstract's numbers (fence overhead over Log+P, with/without SP).
``run ABBREV``
    Run one benchmark through every variant and print its row.
``crashtest ABBREV``
    Sweep crash injections through one benchmark and report consistency.
``report [PATH]``
    Regenerate everything into a markdown report (default: stdout).
``bench``
    Time cold/warm harness runs and pipeline throughput
    (writes ``BENCH_harness.json``).
``trace WORKLOAD``
    Capture one cycle-resolved traced run and export it as Chrome
    trace-event JSON (loadable in Perfetto / ``chrome://tracing``),
    printing the stall-attribution breakdown.  See docs/OBSERVABILITY.md.
``cache {info,clear}``
    Inspect or empty the persistent ``.repro-cache`` store.
``validate``
    Run the differential validation subsystem (conformance oracle,
    crash-consistency fuzzer, trace property fuzzer) and write a JSON
    report; exits non-zero on any failed check.  See docs/VALIDATION.md.

The simulation kernel is chosen automatically: the NumPy batch kernel
when numpy >= 1.20 imports, the pure-Python segment walker otherwise
(both are cycle-identical — see docs/PERFORMANCE.md).  ``run`` accepts
``--scale paper`` to simulate Table 1's full operation counts instead of
the scaled defaults.

``figure``, ``report``, ``run``, and ``bench`` accept ``--jobs N`` to fan
variant simulation across N worker processes (default: all cores);
results are merged deterministically, so the output is byte-identical
for any job count.  They also accept ``--metrics-out PATH`` to dump the
harness's own metrics (the telemetry registry's counters — cache,
kernel, pipeline, system and supervisor — plus per-variant wall time
and worker attribution) as JSON, and print a one-line summary of the
same after their regular output.

Multi-worker campaigns (``--jobs N`` with N > 1) run on the supervised
local process pool (:mod:`repro.harness.supervisor`; see
``docs/RESILIENCE.md``); ``--jobs 1`` runs serially in process.  The
commands above plus ``validate`` accept ``--resume`` (skip cells an
interrupted campaign already journaled), ``--job-timeout SECONDS`` (the
per-job watchdog deadline), and ``--failures-out PATH`` (structured
report of timeouts/retries/quarantines/pool rebuilds).  A malformed
``REPRO_CHAOS`` setting exits 2 before any work starts.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.harness import (
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
    table1_text,
    table2_text,
    table3_text,
)
from repro.harness import cache as harness_cache
from repro.harness import parallel
from repro.harness.bench import (
    DEFAULT_HISTORY,
    DEFAULT_OUTPUT,
    GEN_IPS_FLOOR,
    PIPELINE_IPS_FLOORS,
    SP_IPS_FLOOR,
    SYSTEM_IPS_FLOOR,
    check_floor,
    compare_to_history,
    load_history,
    render_bench,
    render_compare,
    run_bench,
)
from repro.harness.figures import GEOMEAN, render_scalar_series
from repro.harness.parallel import VariantJob, run_variants
from repro.harness.runner import run_system
from repro.pmem.crash import CrashTester
from repro.txn.modes import PersistMode
from repro.uarch.config import MachineConfig
from repro import validate as validation
from repro.workloads.registry import PAPER_SPECS, WORKLOADS, build_workload


def _figure_text(number: int, benchmarks: Optional[List[str]] = None) -> str:
    columns = list(benchmarks or WORKLOADS)
    if number == 8:
        return render_bar_table(
            "Figure 8: execution-time overhead vs baseline",
            fig8_overheads(columns), columns=columns + [GEOMEAN],
        )
    if number == 9:
        return render_bar_table(
            "Figure 9: instruction-count ratio to baseline",
            fig9_instruction_counts(columns), fmt="{:7.2f}", columns=columns,
        )
    if number == 10:
        return render_bar_table(
            "Figure 10: fetch-queue stall cycles / baseline cycles",
            fig10_fetch_stalls(columns), fmt="{:7.2f}", columns=columns,
        )
    if number == 11:
        return render_scalar_series(
            "Figure 11: maximum in-flight pcommits (Log+P)",
            fig11_inflight_pcommits(columns), fmt="{:8d}",
        )
    if number == 12:
        return render_scalar_series(
            "Figure 12: avg stores while a pcommit is outstanding (Log+P)",
            fig12_stores_per_pcommit(columns),
        )
    if number == 13:
        data = fig13_ssb_sweep(columns)
        return render_bar_table(
            "Figure 13: SP overhead over baseline vs SSB size",
            {f"SSB{size}": row for size, row in data.items()},
            columns=columns + [GEOMEAN],
        )
    if number == 14:
        return render_scalar_series(
            "Figure 14: bloom-filter false-positive rate (SP256)",
            fig14_bloom_fp(columns), fmt="{:8.3f}",
        )
    if number == 15:
        concurrent = [ab for ab in columns if ab in ("HM", "BT")] or None
        data = fig15_concurrent_speedup(concurrent)
        table = render_bar_table(
            "Figure 15 (new): SP speedup over Log+P+Sf, cores x contention",
            data, fmt="{:7.2f}x", columns=list(next(iter(data.values()))),
        )
        report = fig15_contention_report(concurrent)
        lines = ["", "Contention attribution (SP256 legs):"]
        lines += [
            f"  {cell:<14}: {row['aborts']:7.0f} aborts, "
            f"{row['replayed%']:5.1f}% replayed work, "
            f"{row['skew%']:4.1f}% core skew"
            for cell, row in report.items()
        ]
        return table + "\n".join(lines)
    raise ValueError(f"no figure {number} in the paper's evaluation")


def _headline_text() -> str:
    data = headline_claim()
    return (
        "Headline (geomean over the 7 benchmarks):\n"
        f"  persist-barrier overhead over Log+P : "
        f"{data['fence_overhead_vs_logp']:+.1%}  (paper: +20.3%)\n"
        f"  with speculative persistence        : "
        f"{data['sp_overhead_vs_logp']:+.1%}  (paper: +3.6%)"
    )


def _run_text(abbrev: str, scale: str = "scaled") -> str:
    machine = MachineConfig()
    spec = PAPER_SPECS[abbrev]
    init_ops: Optional[int] = None
    sim_ops: Optional[int] = None
    jobs: Optional[int] = None
    if scale == "paper":
        # Table-1 operation counts: traces run to tens of millions of
        # micro-ops, so stay in process (each pool worker would
        # regenerate the same huge trace); the four modes still share
        # one populate, and the simulations run on the batch kernel.
        init_ops, sim_ops, jobs = spec.paper_init_ops, spec.paper_sim_ops, 1
    cells = [(mode, machine) for mode in PersistMode]
    cells.append((PersistMode.LOG_P_SF, machine.with_sp(256)))
    *modes, sp = run_variants(
        [
            VariantJob(abbrev, mode, config, init_ops=init_ops, sim_ops=sim_ops)
            for mode, config in cells
        ],
        jobs=jobs,
    )
    base = modes[0]
    title = f"{spec.name} ({abbrev})"
    if scale == "paper":
        title += (
            f" — paper scale ({spec.paper_init_ops:,} init ops,"
            f" {spec.paper_sim_ops:,} sim ops)"
        )
    lines = [title]
    lines.append(f"{'variant':<12}{'cycles':>14}{'overhead':>10}{'IPC':>7}")
    for mode, stats in zip(PersistMode, modes):
        lines.append(
            f"{mode.label:<12}{stats.cycles:>14,}"
            f"{stats.overhead_vs(base):>10.1%}{stats.ipc:>7.2f}"
        )
    lines.append(
        f"{'SP256':<12}{sp.cycles:>14,}{sp.overhead_vs(base):>10.1%}{sp.ipc:>7.2f}"
    )
    return "\n".join(lines)


def _run_system_text(abbrev: str, cores: int, contention: float) -> str:
    """Multi-core variant table: shared-heap transactions on N cores."""
    machine = MachineConfig()
    spec = PAPER_SPECS[abbrev]
    title = (
        f"{spec.name} ({abbrev}) — {cores} cores over one shared heap, "
        f"contention p={contention:g}"
    )
    lines = [title]
    lines.append(
        f"{'variant':<12}{'makespan':>14}{'overhead':>10}"
        f"{'aborts':>8}{'replayed':>10}"
    )
    base = run_system(
        abbrev, PersistMode.BASE, machine, cores=cores, contention=contention
    )
    rows = [(mode.label, mode, machine) for mode in PersistMode]
    rows.append(("SP256", PersistMode.LOG_P_SF, machine.with_sp(256)))
    for label, mode, config in rows:
        stats = run_system(
            abbrev, mode, config, cores=cores, contention=contention
        )
        lines.append(
            f"{label:<12}{stats.cycles:>14,}"
            f"{stats.overhead_vs(base):>10.1%}"
            f"{int(stats.extra.get('conflict_aborts', 0)):>8}"
            f"{int(stats.extra.get('replayed_instructions', 0)):>10}"
        )
    return "\n".join(lines)


def _crashtest_text(abbrev: str, points: int, seed: int) -> str:
    workload = build_workload(
        abbrev, PersistMode.LOG_P_SF, track_persistence=True, seed=seed
    )
    workload.populate(min(PAPER_SPECS[abbrev].scaled_init_ops, 400))
    keys = iter(range(1_000_000))
    tester = CrashTester(
        workload.bench.domain,
        lambda: workload.operation((next(keys) * 37) % workload._key_space),
        workload.recover,
        workload.check_invariants,
        seed=seed,
    )
    outcomes = tester.sweep(max_points=points)
    bad = [o for o in outcomes if not o.invariants_ok]
    lines = [
        f"{PAPER_SPECS[abbrev].name} ({abbrev}): "
        f"{len(outcomes)} crash points, "
        f"{sum(o.crashed for o in outcomes)} mid-operation"
    ]
    if bad:
        lines.append("INCONSISTENT:")
        lines.extend(f"  point {o.crash_point}: {o.detail}" for o in bad[:10])
    else:
        lines.append("all crash points recovered consistently")
    return "\n".join(lines)


def _report_text() -> str:
    sections = [
        "# Reproduction report",
        "",
        "Generated by `python -m repro report`.",
        "",
        "```", table1_text(), "```", "",
        "```", table2_text(), "```", "",
        "```", table3_text(), "```", "",
    ]
    for number in (8, 9, 10, 11, 12, 13, 14):
        sections += ["```", _figure_text(number), "```", ""]
    sections += ["```", _headline_text(), "```", ""]
    return "\n".join(sections)


def _trace_system_command(args) -> int:
    """Capture one traced multi-core run: per-core attribution, the
    contention report, and a multi-track Perfetto export with flow
    arrows from each aggressor store to its victim's abort."""
    from repro.obs.attribution import attribute_system, system_attribution_errors
    from repro.obs.capture import traced_system_run
    from repro.obs.perfetto import (
        summarize_chrome_trace,
        validate_chrome_trace,
        write_system_chrome_trace,
    )

    try:
        result, system_tracer, info = traced_system_run(
            args.workload,
            mode=args.mode,
            cores=args.cores,
            contention=args.contention,
            seed=args.seed,
            init_ops=args.init_ops,
            sim_ops=args.sim_ops,
        )
    except ValueError as exc:
        print(exc)
        return 2
    path = write_system_chrome_trace(
        args.out, system_tracer, per_core_stats=result.per_core, meta=info,
    )
    n_events = validate_chrome_trace(path)
    print(
        f"{info['workload_name']} ({info['workload']}) on {info['mode']}"
        f" [{info['persist_mode']}], seed {info['seed']}:"
        f" {info['cores']} cores, contention {info['contention']:g},"
        f" {sum(info['trace_lens']):,} trace ops, {result.cycles:,}"
        f" cycles makespan"
    )
    print(attribute_system(result, system_tracer).render())
    problems = system_attribution_errors(result, system_tracer)
    if problems:
        print("OBSERVABILITY INVARIANT VIOLATIONS:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    summary = summarize_chrome_trace(path)
    print(
        f"wrote {n_events} trace events to {path}: "
        f"{summary['processes']} process groups, {summary['tracks']} "
        f"tracks, {summary['flows']} conflict flow arrows "
        f"(open in ui.perfetto.dev)"
    )
    return 0


def _trace_command(args) -> int:
    """Capture one traced run, print its attribution, export Perfetto JSON."""
    from repro.obs import attribution_errors, consistency_errors
    from repro.obs.attribution import attribute
    from repro.obs.capture import traced_run
    from repro.obs.perfetto import validate_chrome_trace, write_chrome_trace

    if getattr(args, "cores", 1) > 1:
        return _trace_system_command(args)
    if getattr(args, "contention", 0.0):
        print("--contention needs --cores >= 2")
        return 2
    try:
        stats, tracer, info = traced_run(
            args.workload,
            mode=args.mode,
            seed=args.seed,
            init_ops=args.init_ops,
            sim_ops=args.sim_ops,
        )
    except ValueError as exc:
        print(exc)
        return 2
    path = write_chrome_trace(args.out, tracer, stats=stats, meta=info)
    n_events = validate_chrome_trace(path)
    print(
        f"{info['workload_name']} ({info['workload']}) on {info['mode']}"
        f" [{info['persist_mode']}], seed {info['seed']}:"
        f" {info['trace_len']:,} trace ops, {stats.cycles:,} cycles"
    )
    print(attribute(stats, tracer).render())
    print(
        f"spans: {tracer.span_count('sfence_drain')} sfence drains,"
        f" {tracer.span_count('pcommit')} pcommits,"
        f" {tracer.span_count('epoch')} epochs,"
        f" {len(tracer.instants('rollback'))} rollbacks"
    )
    problems = consistency_errors(stats, tracer) + attribution_errors(stats, tracer)
    if problems:
        print("OBSERVABILITY INVARIANT VIOLATIONS:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(f"wrote {n_events} trace events to {path} (open in ui.perfetto.dev)")
    return 0


def _print_metrics(args) -> None:
    """The post-command harness-metrics hook (one line + optional JSON).

    Goes to stderr: the command's stdout is the data product and must stay
    byte-identical across serial/parallel and cold/warm runs, while the
    accounting line carries wall-clock times and cache hit counts that
    legitimately differ run to run.
    """
    from repro.obs import metrics as obs_metrics

    if getattr(args, "metrics_out", None):
        path = obs_metrics.write_metrics(args.metrics_out)
        print(f"metrics written to {path}", file=sys.stderr)
    line = obs_metrics.render_metrics_line()
    if line:
        print(line, file=sys.stderr)


def _checked(cast, ok, rule: str):
    """An argparse ``type=`` that casts, then rejects a value unless
    ``ok(value)``; *rule* says what a valid value is."""

    def parse(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = cast.__name__  # argparse names the type in its messages
    return parse


_POSITIVE_INT = _checked(int, lambda value: value >= 1, "at least 1")
_NONNEGATIVE_INT = _checked(int, lambda value: value >= 0, "at least 0")
_FRACTION = _checked(float, lambda value: 0.0 <= value <= 1.0, "in [0, 1]")
_SECONDS = _checked(float, lambda value: value > 0.0, "positive")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Speculative Persistence (ISCA 2017) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_jobs(sub_parser):
        sub_parser.add_argument(
            "--jobs", type=_POSITIVE_INT, default=None, metavar="N",
            help="worker processes for variant simulation "
                 "(default: all cores; 1 = serial)",
        )

    def add_metrics_out(sub_parser):
        sub_parser.add_argument(
            "--metrics-out", default=None, metavar="PATH", dest="metrics_out",
            help="write harness metrics (the telemetry counters, "
                 "per-variant wall time/worker) as JSON to PATH",
        )

    def add_supervise(sub_parser):
        sub_parser.add_argument(
            "--resume", action="store_true",
            help="resume an interrupted campaign: cells recorded in the "
                 "campaign journal are loaded from cache, only the "
                 "missing ones are re-simulated",
        )
        sub_parser.add_argument(
            "--job-timeout", type=_SECONDS, default=None, metavar="SECONDS",
            dest="job_timeout",
            help="wall-clock deadline per pool job before the watchdog "
                 "kills and requeues it (default: 300)",
        )
        sub_parser.add_argument(
            "--failures-out", default=None, metavar="PATH",
            dest="failures_out",
            help="write a structured failure/recovery report (retries, "
                 "timeouts, quarantines, pool rebuilds) as JSON to PATH",
        )

    sub.add_parser("tables", help="print Tables 1-3")

    figure = sub.add_parser("figure", help="regenerate one figure")
    figure.add_argument("number", type=int, choices=range(8, 16))
    figure.add_argument(
        "--benchmarks", nargs="*", choices=WORKLOADS, default=None,
        help="restrict to a subset (default: all seven)",
    )
    add_jobs(figure)
    add_metrics_out(figure)
    add_supervise(figure)

    sub.add_parser("headline", help="the abstract's claim")

    run = sub.add_parser("run", help="run one benchmark across variants")
    run.add_argument("abbrev", choices=WORKLOADS)
    run.add_argument(
        "--scale", choices=("scaled", "paper"), default="scaled",
        help="operation counts: 'scaled' (the registry's reduced "
             "defaults) or 'paper' (Table 1's #InitOps/#SimOps — traces "
             "of tens of millions of micro-ops; needs the numpy kernel "
             "to finish in minutes)",
    )
    run.add_argument(
        "--cores", type=_POSITIVE_INT, default=1,
        help="simulate N cores over a shared heap (repro.uarch.system); "
             "1 = the paper's single-core run",
    )
    run.add_argument(
        "--contention", type=_FRACTION, default=0.0,
        help="per-transaction probability of touching the shared "
             "partition (multi-core runs only)",
    )
    add_jobs(run)
    add_metrics_out(run)
    add_supervise(run)

    trace = sub.add_parser(
        "trace",
        help="capture a cycle-resolved traced run as Chrome trace-event "
             "JSON (Perfetto)",
    )
    trace.add_argument(
        "workload",
        help="benchmark abbrev or name (BT, btree, hash-map, ...)",
    )
    trace.add_argument(
        "--mode", default="sp256", metavar="MODE",
        help="machine setup: base, log, log_p, log_p_sf, sp32, sp256, "
             "sp1024, or sp_unlim (default: sp256)",
    )
    trace.add_argument(
        "--out", default="trace.json", metavar="PATH",
        help="output JSON path (default: trace.json)",
    )
    trace.add_argument("--seed", type=int, default=7)
    trace.add_argument(
        "--init-ops", type=_NONNEGATIVE_INT, default=None, dest="init_ops",
        help="override the workload's populate op count",
    )
    trace.add_argument(
        "--sim-ops", type=_POSITIVE_INT, default=None, dest="sim_ops",
        help="override the workload's measured op count",
    )
    trace.add_argument(
        "--cores", type=_POSITIVE_INT, default=1,
        help="co-simulate this many cores sharing one persistence "
             "domain: one Perfetto track group per core plus the "
             "shared-domain tracks and conflict flow arrows (default: 1)",
    )
    trace.add_argument(
        "--contention", type=_FRACTION, default=0.0,
        help="per-transaction probability of touching the shared "
             "partition (multi-core traces only, default: 0.0)",
    )

    crash = sub.add_parser("crashtest", help="sweep crash injection")
    crash.add_argument("abbrev", choices=WORKLOADS)
    crash.add_argument("--points", type=_POSITIVE_INT, default=32)
    crash.add_argument("--seed", type=int, default=0)

    report = sub.add_parser("report", help="full markdown report")
    report.add_argument("path", nargs="?", default=None)
    add_jobs(report)
    add_metrics_out(report)
    add_supervise(report)

    bench = sub.add_parser(
        "bench", help="time cold/warm harness runs and pipeline throughput"
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="cheap two-benchmark smoke variant (CI)",
    )
    bench.add_argument(
        "--output", default=DEFAULT_OUTPUT, metavar="PATH",
        help=f"where to write the JSON record (default: {DEFAULT_OUTPUT})",
    )
    bench.add_argument(
        "--enforce-floor", action="store_true",
        help="exit non-zero if pipeline_ips falls below the checked-in "
             "regression floor (used by CI)",
    )
    bench.add_argument(
        "--history", default=DEFAULT_HISTORY, metavar="PATH",
        help="append the record to this JSON-lines trail "
             f"(default: {DEFAULT_HISTORY}; pass '' to skip)",
    )
    bench.add_argument(
        "--compare", nargs="?", const="", default=None, metavar="REF",
        help="compare against the best comparable prior record in the "
             "history trail (optionally only records whose git_rev "
             "starts with REF); warn-only — regressions are printed but "
             "never change the exit code",
    )
    add_jobs(bench)
    add_metrics_out(bench)
    add_supervise(bench)

    cache = sub.add_parser("cache", help="persistent result cache maintenance")
    cache.add_argument("action", choices=("info", "clear"))

    validate = sub.add_parser(
        "validate", help="run the differential validation subsystem"
    )
    validate.add_argument(
        "--engine", action="append", choices=validation.ENGINES, default=None,
        metavar="ENGINE", dest="engines",
        help="run only this engine (repeatable; default: all three)",
    )
    validate.add_argument("--seed", type=int, default=0)
    validate.add_argument(
        "--quick", action="store_true",
        help="reduced case counts and sizes (CI smoke variant)",
    )
    validate.add_argument(
        "--benchmarks", nargs="*", choices=WORKLOADS, default=None,
        help="restrict to a subset (default: all seven)",
    )
    validate.add_argument(
        "--inject", choices=sorted(validation.MUTATIONS), default=None,
        metavar="MUTATION",
        help="deliberately inject a named fault (the run SHOULD fail; "
             "used to demonstrate the validators catch real bugs)",
    )
    validate.add_argument(
        "--report", default=validation.DEFAULT_REPORT, metavar="PATH",
        help=f"where to write the JSON report "
             f"(default: {validation.DEFAULT_REPORT}; '-' to skip)",
    )
    add_jobs(validate)
    add_supervise(validate)

    return parser


def _configure_supervisor(args) -> Optional[str]:
    """Check ``REPRO_CHAOS``, then apply the --resume/--job-timeout flags;
    returns an error message, applying nothing, if the chaos setting is
    malformed."""
    from repro.harness import supervisor

    try:
        supervisor.ChaosSpec.from_env()
    except ValueError as exc:
        return f"{supervisor.ENV_CHAOS}: {exc}"
    if getattr(args, "resume", False):
        supervisor.set_resume(True)
    if getattr(args, "job_timeout", None) is not None:
        supervisor.set_job_timeout(args.job_timeout)
    return None


def _write_failures(args) -> None:
    """Write the --failures-out recovery report, if requested."""
    if getattr(args, "failures_out", None):
        from repro.harness import supervisor

        path = supervisor.write_failure_report(args.failures_out)
        print(f"failure report written to {path}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    chaos_error = _configure_supervisor(args)
    if chaos_error:
        print(chaos_error, file=sys.stderr)
        return 2
    if getattr(args, "jobs", None) is not None:
        parallel.set_default_jobs(args.jobs)
    if args.command == "tables":
        print(table1_text())
        print()
        print(table2_text())
        print()
        print(table3_text())
    elif args.command == "figure":
        print(_figure_text(args.number, args.benchmarks))
        _print_metrics(args)
    elif args.command == "headline":
        print(_headline_text())
    elif args.command == "run":
        if args.cores > 1:
            print(_run_system_text(args.abbrev, args.cores, args.contention))
        else:
            if args.contention:
                print("--contention needs --cores >= 2")
                return 2
            print(_run_text(args.abbrev, scale=args.scale))
        _print_metrics(args)
    elif args.command == "trace":
        return _trace_command(args)
    elif args.command == "crashtest":
        print(_crashtest_text(args.abbrev, args.points, args.seed))
    elif args.command == "report":
        text = _report_text()
        if args.path:
            with open(args.path, "w") as handle:
                handle.write(text)
            print(f"report written to {args.path}")
        else:
            print(text)
        _print_metrics(args)
    elif args.command == "bench":
        record = run_bench(
            quick=args.quick, output=args.output,
            history=args.history or None,
        )
        print(render_bench(record))
        if args.output:
            print(f"record written to {args.output}")
        if args.compare is not None:
            # warn-only by design: history baselines come from whatever
            # machines ran before, so a miss is a signal, not a verdict
            history = load_history(args.history or DEFAULT_HISTORY)
            if args.history and history:
                history = history[:-1]  # this run's own appended record
            print(render_compare(
                compare_to_history(record, history, ref=args.compare or None)
            ))
        _print_metrics(args)
        if args.enforce_floor:
            error = check_floor(record)
            if error:
                print(error)
                return 1
            floors = ", ".join(
                f"{backend} >= {floor:,}"
                for backend, floor in sorted(PIPELINE_IPS_FLOORS.items())
            )
            print(f"pipeline_ips floors ok ({floors} instr/s)")
            print(f"gen_ips floor ok (>= {GEN_IPS_FLOOR:,} instr/s)")
            print(f"sp_ips floor ok (>= {SP_IPS_FLOOR:,} instr/s)")
            print(f"system_ips floor ok (>= {SYSTEM_IPS_FLOOR:,} instr/s)")
    elif args.command == "cache":
        if args.action == "clear":
            removed = harness_cache.clear_cache()
            print(f"removed {removed} cached entries")
        else:
            for key, value in harness_cache.cache_info().items():
                if isinstance(value, dict):
                    print(f"{key:>17}:")
                    for sub_key, sub_value in value.items():
                        print(f"{sub_key:>27}: {sub_value}")
                else:
                    print(f"{key:>17}: {value}")
    elif args.command == "validate":
        result = validation.run_validation(
            seed=args.seed,
            engines=args.engines,
            benchmarks=args.benchmarks,
            quick=args.quick,
            injected=args.inject,
        )
        if args.report != "-":
            path = result.write(args.report)
            print(f"report written to {path}")
        print(result.summary())
        _write_failures(args)
        harness_cache.persist_cache_counters()
        return 0 if result.ok else 1
    _write_failures(args)
    harness_cache.persist_cache_counters()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
