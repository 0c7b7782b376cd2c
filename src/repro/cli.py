"""Command-line interface: ``python -m repro <command>``.

Commands
--------
apps
    List the workload catalogue.
run APP [--cc] [--uvm] [--teeio] [--seed N] [--fault-plan P.json]
        [--fault-rate R] [--trace OUT.json]
    Run one app and print its metric/model dissection.
run --figures fig04,fig05,... | --all [--jobs N] [--force]
        [--no-cache] [--assert-cached] [--out DIR] [--cache-dir DIR]
    Run the figure/workload grid through the parallel experiment
    harness (repro.exec): unchanged cells come from the
    content-addressed cache under DIR/.cache, edited figures
    re-simulate across N worker processes.
figures [ID ...] [--out DIR]
    Regenerate paper figures (default: the fast ones) into DIR.
bandwidth [--sizes N ...]
    Print the Fig. 4a bandwidth table.
observations [N ...]
    Evaluate the paper's numbered observations.
attest [--cc]
    Run the SPDM GPU attestation flow and report its cost.
faults APP [--cc] [--uvm] [--fault-plan P.json | --fault-rate R]
    Run one app under a fault plan and print the per-site report.
serve [--rate R] [--duration 2s] [--tenants N] [--policy fcfs|spf]
        [--seed N] [--cc] [--process poisson|gamma] [--preemption
        swap|recompute] [--fault-plan P.json | --fault-rate R]
        [--deadline MS] [--ttft-timeout MS] [--shed-policy
        none|deadline|pushback] [--circuit-breaker] [--max-queue-depth N]
        [--max-restarts N] [--replicas N] [--tp N] [--pp N]
        [--link-policy naive|batched] [--placement round-robin|
        least-loaded|kv-affinity] [--autoscale-max N]
        [--verdict OUT.json] [--trace OUT.json]
        [--requests-out OUT.jsonl|csv] [--telemetry] [--json]
    Simulate a multi-tenant continuous-batching serving scenario
    (repro.serve), optionally under a fault plan with a degradation
    policy, and print its SLO summary; the verdict JSON is
    byte-deterministic for a given flag set.  --trace/--requests-out
    enable request-scoped telemetry (per-request Perfetto tracks,
    per-request CC-tax attribution records) without perturbing the
    verdict.  Any non-trivial topology flag (--replicas/--tp/--pp/
    --autoscale-max) reports the run as serve-cluster: replica engines
    whose TP all-reduces ride the secure peer links and whose
    placement/attestation costs come from the same simulated CC stack.
    Contradictory flag combinations (a --deadline that no shed policy
    enforces, a --circuit-breaker with no faults to trip it, an
    --autoscale-max that cannot exceed --replicas, telemetry outputs
    on a multi-replica cluster) exit 2 instead of being silently
    ignored.
serve report [scenario flags] [--top K] [--by-tenant] [--diff] [--json]
    Tail-latency forensics for one scenario: top-k slowest requests
    with per-request Sec.-V blame (T/E/L/Q/K/D/recovery + queueing),
    global percentiles recomputed from per-request records, optional
    per-tenant rollup, and (--diff, with --cc) a base-vs-CC
    attribution of the TTFT p99 delta.
trace export APP -o OUT.json [--cc] [--uvm] ...
    Run one app and write its full observability record (events,
    spans, metrics) as Perfetto-loadable Chrome-trace JSON.
trace summarize (APP [--cc] ... | --input TRACE.json)
    Per-layer time table, wall-clock attribution, Sec.-V model terms,
    metrics, and the longest spans.
trace diff APP [--uvm] | --base B.json --cc-trace C.json
    CC-on vs CC-off overhead attribution across the model terms, with
    a model-drift cross-check.
trace validate TRACE.json
    Check a trace file against the exporter schema.
check golden [CELLS ...] [--full] [--update]
    Verify figure payloads against the committed golden snapshots in
    results/golden/ (exit 4 = GOLDEN_DRIFT); --update refreshes them.
check accuracy [CELLS ...] [--full]
    Score each figure's reproduction error against the paper's
    reported values (exit 3 = ACCURACY_DRIFT on threshold breach).
check perf [--quick] [--update] [--band F]
    Time the grid (min-of-N wall clock + simulated-ns throughput) and
    gate against BENCH_baseline.json (exit 5 = PERF_REGRESSION).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import List, Optional

from . import units
from .config import SystemConfig, resolve_system_configs
from .core import decompose, kernel_metrics, kernel_to_launch_ratio, launch_metrics
from .cuda import CudaError, Machine, run_app
from .faults import FaultError
from .mem.allocator import OutOfMemoryError
from .sim import SimulationError
from .workloads import CATALOG


def _config(args, cc: Optional[bool] = None) -> SystemConfig:
    """Resolve CLI mode flags through the one shared resolution path
    (:func:`repro.config.resolve_system_configs`) so ``repro run`` and
    ``repro check`` can never disagree on what a flag means.  ``cc``
    overrides ``--cc`` for commands that run both modes."""
    try:
        return resolve_system_configs(
            cc=args.cc if cc is None else cc,
            teeio=getattr(args, "teeio", False),
            seed=getattr(args, "seed", None),
            fault_plan=getattr(args, "fault_plan", ""),
            fault_rate=getattr(args, "fault_rate", None),
        )
    except ValueError as exc:
        raise SystemExit(str(exc))


def cmd_apps(_args) -> int:
    print(f"{'name':<14}{'suite':<12}{'uvm':<5}description")
    for name in sorted(CATALOG):
        info = CATALOG[name]
        print(f"{name:<14}{info.suite:<12}{'yes' if info.supports_uvm else 'no':<5}"
              f"{info.description}")
    return 0


def _cmd_run_grid(args) -> int:
    """``repro run --figures .../--all``: the parallel harness path."""
    from .exec import runner as exec_runner

    tokens = [
        token
        for chunk in (args.figures or [])
        for token in chunk.split(",")
        if token
    ]
    try:
        cells = exec_runner.resolve_cells(tokens)
    except ValueError as exc:
        raise SystemExit(str(exc))
    if args.all:
        cells += [
            cell_id
            for cell_id in exec_runner.default_cells(include_slow=True)
            if cell_id not in cells
        ]
    report = exec_runner.run_grid(
        cells,
        jobs=max(1, args.jobs),
        results_dir=args.out,
        cache_dir=args.cache_dir or None,
        force=args.force,
        use_cache=not args.no_cache,
    )
    print(report.render())
    if args.assert_cached and not report.all_cached():
        print(
            f"error: expected 100% cache hits, got "
            f"{report.stats.hits}/{len(report.outcomes)}",
            file=sys.stderr,
        )
        return 1
    return 0 if report.ok else 1


def cmd_run(args) -> int:
    if args.figures or args.all:
        if args.app:
            raise SystemExit(
                "repro run takes either APP or --figures/--all, not both"
            )
        return _cmd_run_grid(args)
    if not args.app:
        raise SystemExit(
            "repro run needs an APP (see `repro apps`), or "
            "--figures/--all for the experiment grid"
        )
    info = CATALOG[args.app]
    config = _config(args)
    machine = Machine(config, label=args.app)
    machine.run(info.app(args.uvm))
    trace = machine.trace
    launches = launch_metrics(trace)
    kernels = kernel_metrics(trace)
    mode = "cc" if args.cc else "base"
    if getattr(args, "teeio", False):
        mode += "+teeio"
    print(f"{args.app} [{mode}{' uvm' if args.uvm else ''}]  "
          f"span {units.to_ms(trace.span_ns()):.3f} ms")
    print(f"  launches {launches.count}  "
          f"KLO mean {units.to_us(launches.klo_stats().mean):.2f} us  "
          f"LQT mean {units.to_us(launches.lqt_stats().mean):.2f} us")
    print(f"  kernels  {kernels.count}  "
          f"KET mean {units.to_us(kernels.ket_stats().mean):.2f} us  "
          f"KQT mean {units.to_us(kernels.kqt_stats().mean):.2f} us")
    print(f"  KLR {kernel_to_launch_ratio(trace):.2f}")
    if config.faults.active:
        ledger = machine.guest.faults
        print(f"  faults   injected {ledger.total_injected}  "
              f"recovery {units.to_ms(trace.recovery_ns()):.3f} ms")
    print(decompose(trace).summary())
    if args.trace:
        with open(args.trace, "w") as handle:
            handle.write(trace.to_chrome_trace())
        print(f"chrome trace -> {args.trace}")
    return 0


def cmd_figures(args) -> int:
    """``repro figures``: run grid cells serially, in process.  Ids
    resolve through the experiment grid (``fig04`` -> ``fig04a``,
    ``fig04b``; ``ext`` -> every extension), and a bare extension name
    ``X`` names the cell ``ext_X``."""
    import importlib

    from .exec import runner as exec_runner
    from .figures.common import RunConfig

    grid = exec_runner.GRID
    tokens = [
        f"ext_{token}" if f"ext_{token}" in grid else token
        for token in args.ids
    ]
    try:
        cells = (exec_runner.resolve_cells(tokens) if tokens
                 else exec_runner.default_cells())
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    for cell_id in cells:
        spec = grid[cell_id]
        module = importlib.import_module(spec.entry_module())
        result = module.run(
            RunConfig(variant=spec.variant, params=dict(spec.params))
        )
        print(result.to_text())
        print(f"[saved] {result.save(args.out)}\n")
    return 0


def cmd_tune(args) -> int:
    """``repro tune``: Pareto auto-tuner over CC-mitigation pipelines.

    Enumerates a deterministic pass x config grid, runs every point
    through the content-addressed exec cache (resumable; parallel via
    ``--jobs``) and prints the Pareto frontier over (goodput, TTFT
    p99, CC overhead ratio) with claw-back attribution.
    """
    from .serve import parse_duration_ns
    from .tune import (
        FAMILY_ORDER,
        TuneError,
        TuneSpec,
        render_pareto_table,
        run_tune,
        tune_verdict_json,
    )

    families = tuple(
        token.strip() for token in args.passes.split(",") if token.strip()
    ) if args.passes else FAMILY_ORDER
    try:
        duration_s = parse_duration_ns(args.duration) / units.NS_PER_SEC
        spec = TuneSpec(
            families=families,
            grid=args.grid,
            rate=args.rate,
            duration_s=duration_s,
            tenants=args.tenants,
            seed=args.seed,
        )
        report = run_tune(
            spec,
            jobs=args.jobs,
            results_dir=args.out,
            cache_dir=args.cache_dir or None,
            force=args.force,
            use_cache=not args.no_cache,
        )
    except (TuneError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    grid_report = report.grid_report
    print(
        f"tune[{spec.grid}] rate={spec.rate:g} rps, "
        f"{len(report.points)} pipelines over {'+'.join(spec.families)} "
        f"({grid_report.stats.hits} cached, "
        f"{len(grid_report.executed)} simulated)"
    )
    print(render_pareto_table(report))
    payload = tune_verdict_json(report)
    if args.verdict:
        with open(args.verdict, "w") as handle:
            handle.write(payload + "\n")
        print(f"verdict -> {args.verdict}")
    if args.pareto_out:
        with open(args.pareto_out, "w") as handle:
            handle.write(render_pareto_table(report) + "\n")
        print(f"pareto table -> {args.pareto_out}")
    if args.json:
        print(payload)
    return 0


def cmd_bandwidth(args) -> int:
    from .figures.fig04_bandwidth import generate_4a

    sizes = [int(s) for s in args.sizes] if args.sizes else None
    print(generate_4a(sizes=sizes).to_text())
    return 0


def cmd_observations(args) -> int:
    from .figures.observations import ALL_OBSERVATIONS

    numbers = [int(n) for n in args.numbers] or sorted(ALL_OBSERVATIONS)
    failures = 0
    for number in numbers:
        result = ALL_OBSERVATIONS[number]()
        status = "HOLDS" if result.holds else "FAILS"
        print(f"Observation {number}: {status}")
        print(f"  claim:  {result.claim}")
        print(f"  detail: {result.detail}")
        failures += 0 if result.holds else 1
    return 1 if failures else 0


def _apply_overrides(config: SystemConfig, settings: List[str]) -> SystemConfig:
    """Apply dotted-path overrides like ``tdx.td_hypercall_ns=3000``.

    Values parse as int, then float, then bool, then string.  Time
    fields take raw nanoseconds.
    """
    for setting in settings:
        if "=" not in setting:
            raise SystemExit(f"--set needs key=value, got {setting!r}")
        path, _, raw = setting.partition("=")
        parts = path.split(".")
        value: object
        for parser in (int, float):
            try:
                value = parser(raw)
                break
            except ValueError:
                continue
        else:
            value = {"true": True, "false": False}.get(raw.lower(), raw)
        if len(parts) == 1:
            try:
                config = config.replace(**{parts[0]: value})
            except (TypeError, ValueError) as exc:
                raise SystemExit(f"--set {setting!r}: {exc}")
            continue
        if len(parts) != 2:
            raise SystemExit(f"--set supports section.field paths, got {path!r}")
        section_name, field_name = parts
        section = getattr(config, section_name, None)
        if section is None or not hasattr(section, field_name):
            raise SystemExit(f"unknown config field {path!r}")
        try:
            config = config.replace(
                **{section_name: dataclasses.replace(section, **{field_name: value})}
            )
        except (TypeError, ValueError) as exc:
            # e.g. --set retry.backoff_factor=0.5: validated dataclasses
            # (RetryPolicy & co) raise in __post_init__; surface that as
            # a CLI argument error instead of a traceback.
            raise SystemExit(f"--set {setting!r}: {exc}")
    return config


def cmd_whatif(args) -> int:
    """Run one app under default CC and under CC with overrides."""
    info = CATALOG[args.app]
    baseline_cfg = SystemConfig.base()
    cc_cfg = SystemConfig.confidential()
    modified_cfg = _apply_overrides(cc_cfg, args.set or [])
    rows = []
    for label, config in (
        ("base", baseline_cfg),
        ("cc", cc_cfg),
        ("cc+overrides", modified_cfg),
    ):
        trace, _ = run_app(info.app(args.uvm), config, label=label)
        rows.append((label, trace.span_ns()))
    base_span = rows[0][1]
    print(f"what-if on {args.app}: {', '.join(args.set or [])}")
    for label, span in rows:
        print(f"  {label:<14}{units.to_ms(span):10.3f} ms   "
              f"{span / base_span:6.2f}x of base")
    default_cc = rows[1][1]
    modified = rows[2][1]
    direction = "faster" if modified < default_cc else "slower"
    print(f"  overrides make CC {abs(1 - modified / default_cc) * 100:.1f}% "
          f"{direction}")
    return 0


def cmd_analyze(args) -> int:
    """Apply the paper's model to an external chrome-trace capture."""
    from .profiler import load_chrome_trace

    trace = load_chrome_trace(args.trace)
    launches = launch_metrics(trace)
    kernels = kernel_metrics(trace)
    print(f"{args.trace}: {len(trace)} events, "
          f"span {units.to_ms(trace.span_ns()):.3f} ms")
    if launches.count:
        print(f"  launches {launches.count}  "
              f"KLO mean {units.to_us(launches.klo_stats().mean):.2f} us  "
              f"LQT mean {units.to_us(launches.lqt_stats().mean):.2f} us")
    if kernels.count:
        print(f"  kernels  {kernels.count}  "
              f"KET mean {units.to_us(kernels.ket_stats().mean):.2f} us  "
              f"KQT mean {units.to_us(kernels.kqt_stats().mean):.2f} us")
        print(f"  KLR {kernel_to_launch_ratio(trace):.2f}")
    print(decompose(trace).summary())
    return 0


def cmd_report(args) -> int:
    from .figures.report import render

    print(render(args.dir))
    return 0


def _write_check_outputs(args, gate: str, report) -> None:
    """Persist a gate's verdict JSON (always) and text report (opt-in)."""
    from .check.gate import write_verdict

    verdict_path = args.verdict or os.path.join(
        args.out if hasattr(args, "out") else "results",
        "check", f"{gate}_verdict.json",
    )
    write_verdict(verdict_path, gate, report.verdict, report.details())
    if getattr(args, "report", ""):
        with open(args.report, "w") as handle:
            handle.write(report.render() + "\n")


def cmd_check(args) -> int:
    """``repro check golden|accuracy|perf``: the regression gates."""
    from .check import gate as check_gate

    if args.check_command == "golden":
        from .check.golden import check_golden

        cells = check_gate.gate_cells(args.cells, full=args.full)
        report = check_golden(
            cells,
            results_dir=args.out,
            golden_dir=args.golden_dir or None,
            jobs=max(1, args.jobs),
            update=args.update,
            use_cache=not args.no_cache,
        )
        print(report.render())
        _write_check_outputs(args, "golden", report)
        return report.exit_code

    if args.check_command == "accuracy":
        from .check.accuracy import check_accuracy

        cells = check_gate.gate_cells(args.cells, full=args.full)
        report = check_accuracy(
            cells,
            results_dir=args.out,
            jobs=max(1, args.jobs),
            use_cache=not args.no_cache,
        )
        print(report.render())
        _write_check_outputs(args, "accuracy", report)
        return report.exit_code

    if args.check_command == "perf":
        from .check import perf as check_perf

        baseline_path = args.baseline or check_perf.default_baseline_path()
        baseline = None
        if not args.update:
            # Fail fast on a missing/bad baseline before timing anything.
            try:
                baseline = check_perf.load_baseline(baseline_path)
            except FileNotFoundError:
                print(
                    f"error: no perf baseline at {baseline_path}; record one "
                    f"with `repro check perf --update`",
                    file=sys.stderr,
                )
                return 1
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
        entries = check_perf.measure(
            check_perf.perf_cells(quick=args.quick), repeats=args.repeats
        )
        if args.update:
            path = check_perf.save_baseline(entries, baseline_path, args.repeats)
            print(f"perf baseline written -> {path}")
            return 0
        report = check_perf.compare(
            baseline, entries, band=args.band, baseline_path=baseline_path
        )
        print(report.render())
        _write_check_outputs(args, "perf", report)
        return report.exit_code

    raise SystemExit(f"unknown check subcommand {args.check_command!r}")


def cmd_attest(args) -> int:
    from .sim import Simulator
    from .tdx import GuestContext, attest_gpu

    config = _config(args)
    sim = Simulator()
    guest = GuestContext(sim, config)
    session = sim.run(until=sim.process(attest_gpu(sim, guest, config)))
    print(f"SPDM session established ({'TD' if args.cc else 'VM'})")
    print(f"  messages:        {session.messages}")
    print(f"  elapsed:         {units.to_ms(session.elapsed_ns):.3f} ms")
    print(f"  session key:     {session.session_key.hex()}")
    print(f"  transcript hash: {session.transcript_hash.hex()}")
    print(f"  measurement:     {session.measurement.hex()[:32]}...")
    return 0


def cmd_faults(args) -> int:
    """Run one app under a fault plan and print the per-site report."""
    info = CATALOG[args.app]
    if not args.fault_plan and args.fault_rate is None:
        args.fault_rate = 0.01  # a visible default for the report
    config = _config(args)
    machine = Machine(config, label=args.app)
    machine.run(info.app(args.uvm))
    trace, ledger = machine.trace, machine.guest.faults
    span = trace.span_ns()
    mode = "cc" if args.cc else "base"
    print(f"fault report: {args.app} [{mode}{' uvm' if args.uvm else ''}] "
          f"seed={config.seed}")
    print(f"  {'site':<18}{'visits':>8}{'injected':>10}{'retried':>9}"
          f"{'fatal':>7}{'recovery_ms':>13}")
    for site, visits, injected, retried, fatal, rec_ns in ledger.report_rows():
        print(f"  {site:<18}{visits:>8}{injected:>10}{retried:>9}{fatal:>7}"
              f"{units.to_ms(rec_ns):>13.3f}")
    recovery = trace.recovery_ns()
    share = 100.0 * recovery / span if span else 0.0
    print(f"  injected {ledger.total_injected} total; recovery "
          f"{units.to_ms(recovery):.3f} ms = {share:.2f}% of "
          f"{units.to_ms(span):.3f} ms span")
    return 0


def _run_traced(args, cc: bool, label_suffix: str = ""):
    """Run one catalogue app with observability on; returns the trace."""
    info = CATALOG[args.app]
    machine = Machine(_config(args, cc), label=f"{args.app}{label_suffix}")
    machine.run(info.app(getattr(args, "uvm", False)))
    return machine.trace


def _write_requests(attributions, path: str) -> None:
    """Per-request export: CSV by extension, JSONL otherwise."""
    from .serve import requests_csv, requests_jsonl

    payload = (
        requests_csv(attributions)
        if path.endswith(".csv")
        else requests_jsonl(attributions)
    )
    with open(path, "w") as handle:
        handle.write(payload)
    print(f"per-request records -> {path}")


def _validate_serve_args(args):
    """The validated cluster spec of the shared serve/`serve report`
    flag set (its ``scenario`` is the serve spec); contradictory flags
    are rejected at parse time.

    Each of these combos used to parse cleanly and then be silently
    ignored (a --deadline under shed_policy="none" never sheds
    anything; a --circuit-breaker with no fault plan never trips).
    Contradictions exit 2 with the usage line, the same contract as
    the argparse-level value validators.  The library specs reject
    every contradiction that does not depend on the fault flags.
    """
    from .serve import ClusterSpec, ScenarioSpec, parse_duration_ns

    error = args._serve_parser.error
    faults = bool(args.fault_plan) or args.fault_rate is not None
    if args.circuit_breaker and not faults:
        error("--circuit-breaker never trips without "
              "--fault-plan/--fault-rate")
    if (args.shed_policy == "pushback" and not args.max_queue_depth
            and not faults):
        error("--shed-policy pushback with no --max-queue-depth and no "
              "fault flags never sheds anything")
    try:
        duration_ns = parse_duration_ns(args.duration)
    except ValueError as exc:
        raise SystemExit(str(exc))
    # Cluster topology (serve only; `serve report` has no cluster flags).
    cluster = ClusterSpec(
        scenario=ScenarioSpec(
            rate_rps=args.rate,
            duration_ns=duration_ns,
            tenants=args.tenants,
            policy=args.policy,
            seed=args.seed if args.seed is not None else 42,
            process=args.process,
            max_num_seqs=args.max_num_seqs,
            max_batch_tokens=args.max_batch_tokens,
            preemption=args.preemption,
            kv_budget_bytes=args.kv_budget_mib * units.MiB,
            deadline_ms=args.deadline,
            ttft_timeout_ms=args.ttft_timeout,
            shed_policy=args.shed_policy,
            circuit_breaker=args.circuit_breaker,
            max_queue_depth=args.max_queue_depth,
            max_engine_restarts=args.max_restarts,
        ),
        replicas=getattr(args, "replicas", 1),
        tp=getattr(args, "tp", 1),
        pp=getattr(args, "pp", 1),
        link_policy=getattr(args, "link_policy", "naive"),
        placement=getattr(args, "placement", "round-robin"),
        autoscale_max=getattr(args, "autoscale_max", 0),
    )
    try:
        cluster.validate()
    except ValueError as exc:
        error(str(exc))
    return cluster


def cmd_serve(args) -> int:
    """``repro serve``: one serving run (one engine, or replicas behind
    the router) + its verdict."""
    from .serve import (
        ClusterError,
        cluster_verdict_json,
        run_cluster,
        verdict_json,
    )

    if getattr(args, "serve_command", None) == "report":
        return cmd_serve_report(args)

    spec = _validate_serve_args(args)
    # Telemetry is pure bookkeeping (the verdict is byte-identical
    # either way); enable it whenever an output wants the per-request
    # records.
    telemetry = bool(args.trace or args.requests_out or args.telemetry)
    try:
        traces, result = run_cluster(
            spec, _config(args), telemetry=telemetry
        )
    except ClusterError as exc:
        args._serve_parser.error(str(exc))
    except ValueError as exc:
        raise SystemExit(str(exc))
    scenario, report = spec.scenario, result.report
    if spec.clustered:
        command, payload = "serve-cluster", cluster_verdict_json(result)
    else:
        command, payload = "serve", verdict_json(result)
    mode = "cc" if result.cc else "base"

    def total(stat: str) -> int:
        return sum(r.engine.stats[stat] for r in result.replicas)

    print(
        f"{command}[{mode}] policy={scenario.policy} "
        f"rate={scenario.rate_rps:g} rps x {scenario.tenants} tenants "
        f"({scenario.process}), seed {scenario.seed}"
    )
    print(
        f"  requests {result.requests}  completed {report['completed']}  "
        f"rejected {report['rejected']}  "
        f"preemptions {total('preemptions')}"
    )
    if result.faults["active"]:
        print(
            f"  faults   injected {total('faults_injected')}  "
            f"shed {total('shed')}  failed {total('failed')}  "
            f"restarts {total('restarts')}  "
            f"breaker trips {total('breaker_trips')}"
        )
    print(
        f"  goodput {report['goodput_rps']:.2f} rps  "
        f"throughput {report['throughput_tok_s']:.0f} tok/s  "
        f"elapsed {units.to_ms(result.elapsed_ns):.1f} ms"
    )
    print(
        f"  ttft p50/p99 {report['ttft_ms']['p50']:.2f}/"
        f"{report['ttft_ms']['p99']:.2f} ms  "
        f"tpot p50/p99 {report['tpot_ms']['p50']:.2f}/"
        f"{report['tpot_ms']['p99']:.2f} ms"
    )
    if spec.clustered:
        router = result.router
        ups = [e for e in router["autoscale_events"]
               if e["action"] == "scale-up"]
        print(
            f"  cluster  tp={spec.tp} pp={spec.pp} "
            f"replicas={router['replicas_started']}->"
            f"{router['replicas_final']} placement={spec.placement}"
        )
        print(
            f"  router   ingress {router['ingress_ns'] / 1e3:.1f} us  "
            f"attest {router['attest_ms']:.2f} ms  "
            f"spills {router['affinity_spills']}  scale-ups {len(ups)}"
        )
        for outcome in result.replicas:
            stats = outcome.engine.stats
            comm = ""
            if "tp_comm_ns" in stats or "pp_comm_ns" in stats:
                comm = (
                    f"  tp_comm {units.to_ms(stats.get('tp_comm_ns', 0)):.1f}"
                    f" ms  pp_comm "
                    f"{units.to_ms(stats.get('pp_comm_ns', 0)):.1f} ms"
                )
            print(
                f"  replica {outcome.replica_id}: {outcome.requests} reqs  "
                f"goodput {outcome.report['goodput_rps']:.2f} rps{comm}"
            )
    if args.verdict:
        with open(args.verdict, "w") as handle:
            handle.write(payload + "\n")
        print(f"verdict -> {args.verdict}")
    if args.trace:
        with open(args.trace, "w") as handle:
            handle.write(traces[0].to_chrome_trace())
        print(f"chrome trace -> {args.trace}")
    if args.requests_out:
        _write_requests(result.attributions, args.requests_out)
    if args.json:
        print(payload)
    return 0


def cmd_serve_report(args) -> int:
    """``repro serve report``: tail-latency forensics for a scenario.

    Runs the scenario with telemetry, prints the top-k slowest
    requests with per-request Sec.-V blame, the global percentiles
    recomputed from the per-request records, and (with ``--diff``) a
    base-vs-CC attribution of the TTFT p99 delta.
    """
    import json as json_mod

    from .serve import (
        forensics_diff,
        render_forensics_diff,
        render_tail_report,
        run_scenario,
        tail_report,
        tenant_rollup,
    )

    spec = _validate_serve_args(args).scenario
    try:
        trace, result = run_scenario(spec, _config(args), telemetry=True)
    except ValueError as exc:
        raise SystemExit(str(exc))
    attributions = result.attributions
    report = tail_report(attributions, top=args.top)
    rollup = tenant_rollup(attributions) if args.by_tenant else None
    mode = "cc" if result.cc else "base"
    print(
        f"serve report[{mode}] policy={spec.policy} "
        f"rate={spec.rate_rps:g} rps x {spec.tenants} tenants, "
        f"seed {spec.seed}"
    )
    print(render_tail_report(report, rollup))
    if args.diff:
        if not result.cc:
            raise SystemExit(
                "serve report --diff compares base vs CC: add --cc"
            )
        try:
            _, base_result = run_scenario(
                spec, _config(args, cc=False), telemetry=True
            )
        except ValueError as exc:
            raise SystemExit(str(exc))
        print()
        print(render_forensics_diff(
            forensics_diff(base_result.attributions, attributions)
        ))
    if args.requests_out:
        _write_requests(attributions, args.requests_out)
    if args.trace:
        with open(args.trace, "w") as handle:
            handle.write(trace.to_chrome_trace())
        print(f"chrome trace -> {args.trace}")
    if args.json:
        print(json_mod.dumps(report, indent=1, sort_keys=True))
    return 0


def cmd_trace(args) -> int:
    from .obs import summary
    from .profiler import load_chrome_trace, validate_chrome_trace

    if args.trace_command == "export":
        trace = _run_traced(args, args.cc, label_suffix="|cc" if args.cc else "|base")
        with open(args.output, "w") as handle:
            handle.write(trace.to_chrome_trace())
        print(f"{trace.label}: {len(trace)} events, {len(trace.spans)} spans, "
              f"{len(trace.metrics)} metrics -> {args.output}")
        return 0

    if args.trace_command == "summarize":
        if args.input:
            trace = load_chrome_trace(args.input, label=args.input)
        else:
            if not args.app:
                raise SystemExit("trace summarize needs APP or --input")
            trace = _run_traced(args, args.cc)
        print(summary.summarize(trace, top=args.top))
        return 0

    if args.trace_command == "diff":
        if args.base or args.cc_trace:
            if not (args.base and args.cc_trace):
                raise SystemExit("--base and --cc-trace must be given together")
            base_trace = load_chrome_trace(args.base)
            cc_trace = load_chrome_trace(args.cc_trace)
        else:
            if not args.app:
                raise SystemExit("trace diff needs APP or --base/--cc-trace")
            base_trace = _run_traced(args, cc=False, label_suffix="|base")
            cc_trace = _run_traced(args, cc=True, label_suffix="|cc")
        result = summary.diff(base_trace, cc_trace, tolerance=args.tolerance)
        print(summary.render_diff(result))
        # Serving traces with per-request telemetry additionally get
        # the tail-forensics diff (which component moved the TTFT p99).
        if summary.serve_attributions(base_trace) and \
                summary.serve_attributions(cc_trace):
            from .serve import render_forensics_diff

            print()
            print(render_forensics_diff(
                summary.serve_tail_diff(base_trace, cc_trace)
            ))
        return 1 if result.flagged else 0

    if args.trace_command == "validate":
        with open(args.input) as handle:
            errors = validate_chrome_trace(handle.read())
        if errors:
            for error in errors:
                print(error, file=sys.stderr)
            print(f"{args.input}: {len(errors)} schema violation(s)",
                  file=sys.stderr)
            return 1
        print(f"{args.input}: valid")
        return 0

    raise SystemExit(f"unknown trace subcommand {args.trace_command!r}")


def _add_fault_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None,
                        help="override SystemConfig.seed")
    parser.add_argument("--fault-plan", default="", metavar="PLAN.json",
                        help="JSON fault plan (see examples/fault_plan.json)")
    parser.add_argument("--fault-rate", type=float, default=None, metavar="R",
                        help="uniform per-occurrence fault rate at all sites")


# Argparse-level validators: a bad value dies inside argument parsing
# with the standard usage message and exit code 2, before any simulator
# state exists.

def _bounded(cast, minimum, strict: bool):
    """An argparse type: ``cast`` the text, then require it to be
    ``> minimum`` (``strict``) or ``>= minimum``."""
    noun = "a number" if cast is float else "an integer"
    bound = f"> {minimum}" if strict else f">= {minimum}"

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not {noun}")
        # Written as a negation so a float NaN fails either bound.
        if not (value > minimum if strict else value >= minimum):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    return parse


_positive_float = _bounded(float, 0, strict=True)
_positive_int = _bounded(int, 1, strict=False)
_nonneg_int = _bounded(int, 0, strict=False)
_nonneg_float = _bounded(float, 0, strict=False)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("apps", help="list the workload catalogue")

    run_p = sub.add_parser(
        "run", help="run one app and dissect it, or run the figure grid"
    )
    run_p.add_argument("app", nargs="?", choices=sorted(CATALOG))
    run_p.add_argument("--cc", action="store_true")
    run_p.add_argument("--uvm", action="store_true")
    run_p.add_argument("--teeio", action="store_true",
                       help="enable the TEE-IO what-if (with --cc)")
    run_p.add_argument("--trace", default="", help="chrome-trace output path")
    _add_fault_args(run_p)
    grid_group = run_p.add_argument_group(
        "experiment grid (repro.exec)",
        "fan figure cells out over worker processes with result caching",
    )
    grid_group.add_argument(
        "--figures", action="append", metavar="ID[,ID...]", default=None,
        help="grid cells to run (prefixes expand: fig04 -> fig04a,fig04b)",
    )
    grid_group.add_argument(
        "--all", action="store_true",
        help="run every grid cell, slow figures and extensions included",
    )
    grid_group.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for cache misses (default 1 = in-process)",
    )
    grid_group.add_argument(
        "--force", action="store_true",
        help="re-simulate every cell, refreshing its cache entry",
    )
    grid_group.add_argument(
        "--no-cache", action="store_true",
        help="bypass the result cache entirely (no reads, no writes)",
    )
    grid_group.add_argument(
        "--assert-cached", action="store_true",
        help="exit nonzero unless every cell was a cache hit",
    )
    grid_group.add_argument(
        "--out", default="results", metavar="DIR",
        help="results directory (default: results)",
    )
    grid_group.add_argument(
        "--cache-dir", default="", metavar="DIR",
        help="cache location (default: DIR_OUT/.cache)",
    )

    fig_p = sub.add_parser("figures", help="regenerate paper figures")
    fig_p.add_argument("ids", nargs="*",
                       help="figure ids (default: all fast figures)")
    fig_p.add_argument("--out", default="results")

    bw_p = sub.add_parser("bandwidth", help="Fig. 4a bandwidth table")
    bw_p.add_argument("--sizes", nargs="*", default=None)

    obs_p = sub.add_parser("observations", help="evaluate Observations 1-9")
    obs_p.add_argument("numbers", nargs="*", default=[])

    att_p = sub.add_parser("attest", help="run SPDM GPU attestation")
    att_p.add_argument("--cc", action="store_true")

    faults_p = sub.add_parser(
        "faults", help="run an app under a fault plan and report recovery"
    )
    faults_p.add_argument("app", choices=sorted(CATALOG))
    faults_p.add_argument("--cc", action="store_true")
    faults_p.add_argument("--uvm", action="store_true")
    _add_fault_args(faults_p)

    def _add_serve_scenario_args(parser: argparse.ArgumentParser) -> None:
        """Scenario flags shared by ``serve`` and ``serve report``."""
        parser.add_argument(
            "--rate", type=_positive_float, default=8.0,
            help="total offered arrival rate, req/s (default 8)")
        parser.add_argument(
            "--duration", default="2s", metavar="DUR",
            help="arrival window, e.g. 2s or 500ms (default 2s)")
        parser.add_argument(
            "--tenants", type=_positive_int, default=2,
            help="number of tenants sharing the rate (default 2)")
        parser.add_argument(
            "--policy", choices=("fcfs", "spf"), default="fcfs",
            help="admission order (default fcfs)")
        parser.add_argument(
            "--process", choices=("poisson", "gamma"), default="poisson",
            help="arrival process (gamma = bursty)")
        parser.add_argument("--cc", action="store_true")
        parser.add_argument(
            "--seed", type=_nonneg_int, default=None,
            help="arrival + platform seed (default 42)")
        parser.add_argument("--max-num-seqs", type=int, default=16)
        parser.add_argument("--max-batch-tokens", type=int, default=2048)
        parser.add_argument(
            "--preemption", choices=("swap", "recompute"), default="swap",
            help="KV-exhaustion policy (default swap)")
        parser.add_argument(
            "--kv-budget-mib", type=int, default=96,
            help="KV-cache HBM budget in MiB (default 96)")
        parser.add_argument(
            "--fault-plan", default="", metavar="PLAN.json",
            help="JSON fault plan (see examples/serve_fault_plan.json)")
        parser.add_argument(
            "--fault-rate", type=float, default=None, metavar="R",
            help="uniform per-occurrence fault rate at all sites")
        parser.add_argument(
            "--trace", default="", metavar="OUT.json",
            help="write the chrome trace here (enables telemetry: "
                 "per-request tracks + tagged engine ops)")
        parser.add_argument(
            "--requests-out", default="", metavar="OUT.jsonl|csv",
            help="write byte-deterministic per-request attribution "
                 "records (JSONL, or CSV by extension)")
        degrade_group = parser.add_argument_group(
            "degradation policy (repro.serve.lifecycle)",
            "how the engine degrades under faults instead of collapsing",
        )
        degrade_group.add_argument(
            "--deadline", type=_nonneg_float, default=0.0, metavar="MS",
            help="end-to-end deadline per request, ms (0 = none)")
        degrade_group.add_argument(
            "--ttft-timeout", type=_nonneg_float, default=0.0, metavar="MS",
            help="shed a queued request waiting longer than MS (0 = none)")
        degrade_group.add_argument(
            "--shed-policy", choices=("none", "deadline", "pushback"),
            default="none",
            help="load-shedding aggressiveness (default none)")
        degrade_group.add_argument(
            "--circuit-breaker", action="store_true",
            help="pause admission and drain during SPDM storms")
        degrade_group.add_argument(
            "--max-queue-depth", type=_nonneg_int, default=0, metavar="N",
            help="admission pushback threshold (0 = unbounded)")
        degrade_group.add_argument(
            "--max-restarts", type=_nonneg_int, default=2, metavar="N",
            help="engine crash-and-restart budget (default 2)")

    serve_p = sub.add_parser(
        "serve",
        help="simulate a multi-tenant serving scenario (repro.serve)",
    )
    serve_sub = serve_p.add_subparsers(dest="serve_command")
    serve_p.set_defaults(serve_command=None)
    _add_serve_scenario_args(serve_p)
    serve_p.add_argument("--verdict", default="", metavar="OUT.json",
                         help="write the deterministic verdict JSON here")
    serve_p.add_argument("--telemetry", action="store_true",
                         help="collect per-request telemetry even "
                              "without an output (zero perturbation)")
    serve_p.add_argument("--json", action="store_true",
                         help="print the verdict JSON to stdout")
    cluster_group = serve_p.add_argument_group(
        "cluster topology (repro.serve.cluster)",
        "replicated engines behind the tenant-aware router; any "
        "non-trivial value routes the scenario through the cluster path",
    )
    cluster_group.add_argument(
        "--replicas", type=_positive_int, default=1, metavar="N",
        help="fixed replica engines behind the router (default 1)")
    cluster_group.add_argument(
        "--tp", type=_positive_int, default=1, metavar="N",
        help="tensor-parallel degree per replica: 1, 2, 4 or 8")
    cluster_group.add_argument(
        "--pp", type=_positive_int, default=1, metavar="N",
        help="pipeline stages per replica (default 1)")
    cluster_group.add_argument(
        "--link-policy", choices=("naive", "batched"), default="naive",
        help="secure peer-link mode for tp>1 under --cc (default naive)")
    cluster_group.add_argument(
        "--placement",
        choices=("round-robin", "least-loaded", "kv-affinity"),
        default="round-robin",
        help="router placement policy (default round-robin)")
    cluster_group.add_argument(
        "--autoscale-max", type=_nonneg_int, default=0, metavar="N",
        help="autoscaler replica ceiling, above --replicas (0 = off); "
             "each scale-up pays a full SPDM attestation before serving")
    serve_p.set_defaults(_serve_parser=serve_p)

    sreport_p = serve_sub.add_parser(
        "report",
        help="tail-latency forensics: top-k slowest requests with "
             "per-request CC-tax blame",
    )
    _add_serve_scenario_args(sreport_p)
    sreport_p.add_argument("--top", type=_positive_int, default=5,
                           metavar="K",
                           help="slowest requests to show (default 5)")
    sreport_p.add_argument("--by-tenant", action="store_true",
                           help="append the per-tenant rollup")
    sreport_p.add_argument("--diff", action="store_true",
                           help="also run the base-mode scenario and "
                                "attribute the TTFT p99 delta "
                                "(requires --cc)")
    sreport_p.add_argument("--json", action="store_true",
                           help="print the forensics report as JSON")
    sreport_p.set_defaults(_serve_parser=sreport_p)

    tune_p = sub.add_parser(
        "tune",
        help="auto-tune CC-mitigation pipelines (Pareto search)",
    )
    tune_p.add_argument(
        "--passes", default="", metavar="FAMILIES",
        help="comma-separated pass families to search "
             "(default: fusion,overlap,batch,staging,quant)",
    )
    tune_p.add_argument(
        "--grid", choices=("small", "full"), default="small",
        help="config candidates per family (small: one each; "
             "full: widened numeric knobs)",
    )
    tune_p.add_argument(
        "--figure", choices=("ext_recovered_serving",),
        default="ext_recovered_serving",
        help="figure family providing the sweep cells",
    )
    tune_p.add_argument(
        "--rate", type=_positive_float, default=24.0, metavar="RPS",
        help="offered arrival rate to tune at (default 24)",
    )
    tune_p.add_argument(
        "--duration", default="2s", metavar="DUR",
        help="scenario duration, e.g. 2s or 500ms (default 2s)",
    )
    tune_p.add_argument(
        "--tenants", type=_positive_int, default=2, metavar="N",
    )
    tune_p.add_argument(
        "--seed", type=_nonneg_int, default=42, metavar="N",
    )
    tune_p.add_argument("--jobs", type=_positive_int, default=1, metavar="N")
    tune_p.add_argument(
        "--out", default=os.path.join("results", "tune"), metavar="DIR",
        help="per-point output dir (default results/tune)",
    )
    tune_p.add_argument(
        "--cache-dir", default="", metavar="DIR",
        help="content-addressed cache (default results/.cache, shared "
             "with 'repro run')",
    )
    tune_p.add_argument(
        "--force", action="store_true",
        help="recompute every point, refreshing cache entries",
    )
    tune_p.add_argument(
        "--no-cache", action="store_true",
        help="bypass the cache entirely (no reads, no writes)",
    )
    tune_p.add_argument(
        "--pareto-out", default="", metavar="PATH",
        help="also write the Pareto table to PATH (CI artifact)",
    )
    tune_p.add_argument(
        "--verdict", default="", metavar="PATH",
        help="write the byte-deterministic tune verdict JSON to PATH",
    )
    tune_p.add_argument("--json", action="store_true",
                        help="print the verdict JSON to stdout")

    trace_p = sub.add_parser(
        "trace", help="export / summarize / diff observability traces"
    )
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)

    texp_p = trace_sub.add_parser(
        "export", help="run an app and write a Perfetto-loadable trace"
    )
    texp_p.add_argument("app", choices=sorted(CATALOG))
    texp_p.add_argument("-o", "--output", required=True,
                        help="chrome-trace JSON output path")
    texp_p.add_argument("--cc", action="store_true")
    texp_p.add_argument("--uvm", action="store_true")
    texp_p.add_argument("--teeio", action="store_true")
    _add_fault_args(texp_p)

    tsum_p = trace_sub.add_parser(
        "summarize", help="per-layer table, model terms, top spans"
    )
    tsum_p.add_argument("app", nargs="?", choices=sorted(CATALOG))
    tsum_p.add_argument("--input", default="",
                        help="summarize an exported trace file instead")
    tsum_p.add_argument("--top", type=int, default=10,
                        help="number of top spans to list")
    tsum_p.add_argument("--cc", action="store_true")
    tsum_p.add_argument("--uvm", action="store_true")
    tsum_p.add_argument("--teeio", action="store_true")
    _add_fault_args(tsum_p)

    tdiff_p = trace_sub.add_parser(
        "diff", help="CC-on vs CC-off overhead attribution"
    )
    tdiff_p.add_argument("app", nargs="?", choices=sorted(CATALOG))
    tdiff_p.add_argument("--base", default="",
                         help="CC-off trace file (with --cc-trace)")
    tdiff_p.add_argument("--cc-trace", default="",
                         help="CC-on trace file (with --base)")
    tdiff_p.add_argument("--tolerance", type=float, default=0.01,
                         help="model drift tolerance (default 1%%)")
    tdiff_p.add_argument("--uvm", action="store_true")
    tdiff_p.add_argument("--teeio", action="store_true")
    _add_fault_args(tdiff_p)

    tval_p = trace_sub.add_parser(
        "validate", help="check a trace file against the exporter schema"
    )
    tval_p.add_argument("input", help="chrome-trace JSON path")

    rep_p = sub.add_parser(
        "report", help="aggregate paper-vs-measured from results/"
    )
    rep_p.add_argument("--dir", default="results")

    check_p = sub.add_parser(
        "check",
        help="regression gates: golden snapshots, paper accuracy, perf budgets",
    )
    check_sub = check_p.add_subparsers(dest="check_command", required=True)

    def _add_gate_args(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "cells", nargs="*",
            help="grid cells to gate (default: the fast grid)",
        )
        parser.add_argument(
            "--full", action="store_true",
            help="gate the full grid, slow figures and extensions included",
        )
        parser.add_argument("--jobs", type=int, default=1, metavar="N")
        parser.add_argument("--out", default="results", metavar="DIR")
        parser.add_argument(
            "--no-cache", action="store_true",
            help="re-simulate every cell instead of serving cached payloads",
        )
        parser.add_argument(
            "--verdict", default="", metavar="PATH",
            help="verdict JSON path (default: OUT/check/<gate>_verdict.json)",
        )
        parser.add_argument(
            "--report", default="", metavar="PATH",
            help="also write the text report to PATH (CI artifact)",
        )

    cgold_p = check_sub.add_parser(
        "golden", help="verify results against results/golden/ snapshots"
    )
    _add_gate_args(cgold_p)
    cgold_p.add_argument(
        "--update", action="store_true",
        help="refresh the golden snapshots from the current run",
    )
    cgold_p.add_argument(
        "--golden-dir", default="", metavar="DIR",
        help="snapshot directory (default: results/golden next to the package)",
    )

    cacc_p = check_sub.add_parser(
        "accuracy", help="score reproduction error against the paper targets"
    )
    _add_gate_args(cacc_p)

    cperf_p = check_sub.add_parser(
        "perf", help="time the grid and gate against BENCH_baseline.json"
    )
    cperf_p.add_argument(
        "--quick", action="store_true",
        help="time only the quick smoke subset",
    )
    cperf_p.add_argument(
        "--update", action="store_true",
        help="record the current timings as the new baseline",
    )
    cperf_p.add_argument(
        "--baseline", default="", metavar="PATH",
        help="baseline file (default: BENCH_baseline.json at the repo root)",
    )
    cperf_p.add_argument(
        "--repeats", type=int, default=3, metavar="N",
        help="repeats per bench; min wall time is kept (default 3)",
    )
    cperf_p.add_argument(
        "--band", type=float, default=0.75, metavar="F",
        help="allowed slowdown fraction over baseline (default 0.75 = +75%%)",
    )
    cperf_p.add_argument("--out", default="results", metavar="DIR")
    cperf_p.add_argument("--verdict", default="", metavar="PATH")
    cperf_p.add_argument("--report", default="", metavar="PATH")

    ana_p = sub.add_parser(
        "analyze", help="apply the Sec.-V model to a chrome-trace file"
    )
    ana_p.add_argument("trace", help="chrome-trace JSON path")

    what_p = sub.add_parser(
        "whatif", help="run an app under CC with config overrides"
    )
    what_p.add_argument("app", choices=sorted(CATALOG))
    what_p.add_argument("--uvm", action="store_true")
    what_p.add_argument(
        "--set", action="append", metavar="SECTION.FIELD=VALUE",
        help="e.g. --set tdx.td_hypercall_ns=1300 --set tdx.teeio=true",
    )

    return parser


_COMMANDS = {
    "apps": cmd_apps,
    "run": cmd_run,
    "figures": cmd_figures,
    "bandwidth": cmd_bandwidth,
    "observations": cmd_observations,
    "attest": cmd_attest,
    "faults": cmd_faults,
    "report": cmd_report,
    "check": cmd_check,
    "serve": cmd_serve,
    "tune": cmd_tune,
    "trace": cmd_trace,
    "analyze": cmd_analyze,
    "whatif": cmd_whatif,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OutOfMemoryError, CudaError, FaultError, SimulationError) as exc:
        # One-line diagnostic, nonzero exit — no traceback spam for
        # well-understood runtime failures.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
