"""Pass runner and metric extraction for the simulator benchmark.

End-to-end metrics come from untraced passes; per-layer metrics from a
separate set of traced passes (see :mod:`perfbench.ledger`).  Every
pass's digest is checked: at the default seed against the committed
reference, at any other seed against the run's first pass.

Pass times are corrected for host-speed drift.  On a shared host the
interpreter's speed changes by up to 2x, for seconds or for a whole
run (measured on a 2-vCPU Xeon VM), which moved run medians by 30-50%.
A fixed pure-Python loop, timed between passes, slows down with it, so
each pass time is scaled by :data:`PROBE_NOMINAL_S` over the probe
taken around it: times read as host seconds on that VM at full speed.
The probe does not touch ``repro``, so a simulator change moves the
corrected time as much as the raw one.

Set-up time is the least CPU time of the set-up over several fresh
interpreters.  A probe in the parent tracks a child badly (on two vCPUs
the two run on either core): corrected medians spread 18-28% run to
run.  Contention only ever adds time to a start, so the fastest start
is the steadiest figure.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.profiler import EventKind
from repro.sim.engine import SimTimeCollector

from .ledger import LAYERS, OTHER, Ledger, PassLedger
from .workloads import DEFAULT_SEED, WORKLOADS, PassOutput, paper_copy_err_pct

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE_FILE = HERE / "reference.json"

#: Fresh interpreters timed for ``setup_s`` (after one warm-up start).
SETUP_REPEATS = 15
#: Timed passes per run, at least, whatever ``--seconds`` says.
MIN_PASSES = 3
#: Host-speed probe size, and the probe's time at full speed on the VM
#: above: the speed every pass time is scaled to.
PROBE_ITERATIONS = 300_000
PROBE_NOMINAL_S = 0.045
#: How pass time scales with probe time when the host slows down: a
#: probe 2x slower means a pass 2**0.8 = 1.74x slower.  Log-log fits of
#: pass time on probe time gave 0.81 (``serve_faults``) and 0.64
#: (``paper_apps``) over 150 s of back-to-back passes; scaling by the
#: full ratio over-corrected.
PROBE_ELASTICITY = 0.8

#: Simulated layers reported as ``simt.<layer>_ms``
#: (:meth:`repro.obs.SpanRecorder.layer_busy_ns` names).
SIM_LAYERS = (
    "td", "tdx_module", "hypervisor", "driver",
    "dma", "gpu.copy", "gpu.compute", "recovery",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_ns_per_wall_s": "ns/s",
    "peak_rss_mb": "MB",
    "paper_copy_err_pct": "%",
}

# Boots the platform the way every workload does, in a fresh
# interpreter, and prints the CPU seconds it took; argv[1] is the
# source tree.
_SETUP_CODE = """
import sys, time
start = time.process_time()
sys.path.insert(0, sys.argv[1])
import repro
from repro.config import SystemConfig
from repro.cuda import Machine
base, cc = SystemConfig.base(), SystemConfig.confidential()
Machine(cc)
print(time.process_time() - start)
"""


def probe_s() -> float:
    """Seconds a fixed pure-Python loop takes now: the host's speed."""
    start = time.perf_counter()
    table: Dict[int, int] = {}
    acc = 0
    for i in range(PROBE_ITERATIONS):
        table[i & 1023] = i
        acc += table.get((i >> 3) & 1023, 0) % 7
    return time.perf_counter() - start


def probed(seconds: float, probe: float) -> float:
    """Host seconds scaled to the speed at which the probe takes
    :data:`PROBE_NOMINAL_S`."""
    return seconds * (PROBE_NOMINAL_S / probe) ** PROBE_ELASTICITY


class DigestCheck:
    """Pass-output correctness: the reference digest at the default
    seed, otherwise agreement with the first pass of the run."""

    def __init__(self, workload: str, seed: int) -> None:
        self.expected: Optional[str] = None
        if seed == DEFAULT_SEED:
            self.expected = json.loads(REFERENCE_FILE.read_text())[workload]

    def __call__(self, digest: str) -> bool:
        if self.expected is None:
            self.expected = digest
        return digest == self.expected


@dataclass
class PassResult:
    wall_ns: int
    sim_ns: int
    ok: bool
    digest: Optional[str] = None
    ledger: Optional[PassLedger] = None
    counts: Optional[Dict[str, float]] = None
    #: Host-speed probe around the pass (mean of the probes before and
    #: after it); 0.0 for a pass run outside :func:`run_for`.
    probe_s: float = 0.0


def run_pass(
    workload: str,
    seed: int,
    check: DigestCheck,
    ledger: Optional[Ledger] = None,
) -> PassResult:
    """One pass of ``workload``; failed if it raises or its digest
    differs.  A traced pass also reads its work counts."""
    gc.collect()
    output = None
    with SimTimeCollector() as collector:
        if ledger is not None:
            ledger.begin()
        start = time.perf_counter_ns()
        try:
            output = WORKLOADS[workload](seed)
        except Exception:
            traceback.print_exc()
        wall_ns = time.perf_counter_ns() - start
        snapshot = ledger.end() if ledger is not None else None
    if output is None:
        return PassResult(wall_ns, collector.total_sim_ns, ok=False)
    ok = check(output.digest)
    if not ok:
        print(f"digest mismatch: {output.digest}", file=sys.stderr)
    counts = None
    if snapshot is not None:
        counts = layer_counts(snapshot, output, collector.total_sim_ns)
        snapshot.instances.clear()
    return PassResult(
        wall_ns, collector.total_sim_ns, ok, output.digest, snapshot, counts
    )


def run_for(
    workload: str,
    seed: int,
    seconds: float,
    check: DigestCheck,
    ledger: Optional[Ledger] = None,
    min_passes: int = MIN_PASSES,
) -> List[PassResult]:
    """Back-to-back passes (a closed loop) for ``seconds``, with a
    host-speed probe between consecutive passes."""
    deadline = time.perf_counter() + seconds
    results: List[PassResult] = []
    before = probe_s()
    while len(results) < min_passes or time.perf_counter() < deadline:
        result = run_pass(workload, seed, check, ledger)
        after = probe_s()
        result.probe_s = (before + after) / 2
        before = after
        results.append(result)
    return results


def measure_setup_s() -> List[float]:
    """CPU seconds of import + config + one Machine boot, each in a
    fresh interpreter.  The first start only warms the bytecode and
    file caches."""
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return samples[1:]


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


@dataclass
class RunSummary:
    """Metrics of one run plus the pass accounting behind them."""

    metrics: Dict[str, Tuple[float, str]]
    notes: Dict[str, str]
    attempted: int
    failed: int


def end_to_end(workload: str, seed: int, seconds: float) -> RunSummary:
    setup = measure_setup_s()
    check = DigestCheck(workload, seed)
    warmup = run_pass(workload, seed, check)
    timed = run_for(workload, seed, seconds, check)
    rss = peak_rss_mb()
    passes = [warmup] + timed
    failed = sum(not p.ok for p in passes)
    good = [p for p in timed if p.ok]
    if not good:
        raise RuntimeError(f"{workload}: no pass succeeded")
    walls = [probed(p.wall_ns / 1e9, p.probe_s) for p in good]
    rates = [p.sim_ns / wall for p, wall in zip(good, walls)]
    raw = [p.wall_ns / 1e9 for p in good]
    metrics = {
        "setup_s": min(setup),
        "wall_s": statistics.median(walls),
        "sim_ns_per_wall_s": statistics.median(rates),
        "peak_rss_mb": rss,
        "paper_copy_err_pct": paper_copy_err_pct(seed),
    }
    notes = {
        "setup_s": f"least CPU time of {len(setup)} fresh interpreters;"
        f" median {statistics.median(setup):.6g}",
        "wall_s": _spread_note(walls, "passes")
        + f"; uncorrected median {statistics.median(raw):.6g}",
        "sim_ns_per_wall_s": _spread_note(rates, "passes")
        + f", {good[0].sim_ns} simulated ns per pass",
        "peak_rss_mb": "process high-water mark after the timed passes",
        "paper_copy_err_pct": "vs the paper's 5.80x mean CC/base copy slowdown",
        "error_rate": f"{failed} failed of {len(passes)} passes",
        "digest": good[0].digest,
    }
    return RunSummary(
        metrics={k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
        notes=notes,
        attempted=len(passes),
        failed=failed,
    )


def _spread_note(values: List[float], what: str) -> str:
    q1, _, q3 = quartiles(values)
    return f"median of {len(values)} {what}, quartiles {q1:.6g}..{q3:.6g}"


# -- per-layer ledger ------------------------------------------------------


def _counter_totals(traces) -> Dict[str, float]:
    totals: Dict[str, float] = defaultdict(int)
    for trace in traces:
        for metric in trace.metrics.sampled():
            if metric.kind == "counter":
                totals[metric.name] += metric.value
    return totals


def layer_counts(snapshot: PassLedger, output: PassOutput, sim_ns: int) -> Dict[str, float]:
    """Deterministic work counts and simulated busy time of one traced
    pass (every value must repeat exactly across passes)."""
    traces = output.traces
    counters = _counter_totals(traces)
    calls = snapshot.calls
    copies = [
        e for t in traces for e in t.of_kind(EventKind.MEMCPY)
        if not e.attrs.get("staging")
    ]
    stats = output.engine_stats
    injectors = snapshot.instances["FaultInjector"]
    offered = sum(r["offered"] for r in output.reports)
    counts: Dict[str, float] = {
        "sim.events": calls["Event.__init__"] + calls["Timeout.__init__"],
        "sim.processes": calls["Process.__init__"],
        "cuda.launches": sum(len(t.launches()) for t in traces),
        "cuda.copies": len(copies),
        "cuda.copy_bytes": sum(e.attrs["bytes"] for e in copies),
        "tdx.hypercalls": counters["tdx.hypercalls"],
        "tdx.seamcalls": counters["tdx.seamcalls"],
        "tdx.pages_converted": counters["tdx.pages_converted"],
        "crypto.encrypted_bytes": counters["crypto.encrypted_bytes"],
        "spdm.messages": calls["SpdmResponder.handle"],
        "gpu.kernels": sum(len(t.kernels()) for t in traces),
        "uvm.migrated_bytes": counters["uvm.migrated_bytes"],
        "obs.spans": sum(len(t.spans) for t in traces),
        "profiler.events": calls["Trace.add"],
        "serve.iterations": sum(s["iterations"] for s in stats),
        "serve.preemptions": sum(s["preemptions"] for s in stats),
        "serve.swap_bytes": sum(
            s["swap_out_bytes"] + s["swap_in_bytes"] for s in stats
        ),
        "telemetry.ops": sum(
            len(t.ops) for t in snapshot.instances["ServeTelemetry"]
        ),
        "faults.injected": sum(i.total_injected for i in injectors),
        "multigpu.collectives": counters["multigpu.collectives"],
        "multigpu.encrypted_bytes": counters["multigpu.encrypted_bytes"],
        "serve.slo_attained_ratio": (
            sum(r["slo_attained"] for r in output.reports) / offered
            if offered else 0.0
        ),
        "faults.recovery_share": (
            sum(i.total_recovery_ns for i in injectors) / sim_ns
            if sim_ns else 0.0
        ),
    }
    for layer in LAYERS:
        counts[f"{layer}.calls"] = snapshot.layer_calls[layer]
    busy: Dict[str, int] = defaultdict(int)
    for trace in traces:
        for layer, ns in trace.spans.layer_busy_ns().items():
            busy[layer] += ns
    for layer in SIM_LAYERS:
        counts[f"simt.{layer}_ms"] = busy[layer] / 1e6
    return counts


def count_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def per_layer(workload: str, seed: int, seconds: float) -> RunSummary:
    """Untraced passes for half the time, traced passes for the rest."""
    check = DigestCheck(workload, seed)
    warmup = run_pass(workload, seed, check)
    untraced = run_for(workload, seed, seconds / 2, check)
    with Ledger() as ledger:
        traced = run_for(workload, seed, seconds / 2, check, ledger, min_passes=2)
    passes = [warmup] + untraced + traced
    good_untraced = [p for p in untraced if p.ok]
    good_traced = [p for p in traced if p.ok]
    if not good_untraced or not good_traced:
        raise RuntimeError(f"{workload}: no pass succeeded")
    counts = [p.counts for p in good_traced]
    # A count that differs between two traced passes means the pass is
    # not deterministic: fail every pass after the first.
    failed = sum(not p.ok for p in passes) + sum(c != counts[0] for c in counts)
    def median_s(results: List[PassResult], ns: Callable[[PassResult], int]) -> float:
        return statistics.median(probed(ns(p) / 1e9, p.probe_s) for p in results)

    untraced_s = median_s(good_untraced, lambda p: p.wall_ns)
    traced_s = median_s(good_traced, lambda p: p.ledger.wall_ns)
    metrics: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS + (OTHER,):
        metrics[f"{layer}.self_s"] = (
            median_s(good_traced, lambda p: p.ledger.self_ns[layer]), "s",
        )
    events = counts[0]["sim.events"]
    metrics["sim.host_ns_per_event"] = (
        untraced_s * 1e9 / events if events else 0.0, "ns"
    )
    metrics["trace_overhead_ratio"] = (traced_s / untraced_s, "ratio")
    for name, value in counts[0].items():
        metrics[name] = (value, count_unit(name))
    notes = {
        "self_s": f"median of {len(good_traced)} traced passes",
        "trace_overhead_ratio": (
            f"traced {traced_s:.6g} s / untraced {untraced_s:.6g} s"
            f" (median of {len(good_untraced)})"
        ),
        "error_rate": f"{failed} failed of {len(passes)} passes",
        "digest": good_traced[0].digest,
    }
    return RunSummary(metrics, notes, attempted=len(passes), failed=failed)
