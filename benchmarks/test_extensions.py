"""Extension experiments: the paper's flagged future-work directions,
answered on the simulator (see repro.figures.extensions)."""

import contextlib

from repro import units
from repro.config import SystemConfig
from repro.cuda import Machine
from repro.figures import extensions
from repro.gpu import nanosleep_kernel
from repro.obs import Counter, Gauge, Histogram, SpanRecorder


def _obs_probe_app(rt):
    """Touches every instrumented path: mgmt, copies, launches, UVM."""
    dev = yield from rt.malloc(8 * units.MiB)
    host = yield from rt.host_alloc(8 * units.MiB)
    managed = yield from rt.malloc_managed(4 * units.MiB)
    yield from rt.memcpy(dev, host)
    for _ in range(3):
        kernel = nanosleep_kernel(units.us(40), name="probe")
        yield from rt.launch(
            kernel, managed_touches=[(managed, 4 * units.MiB)]
        )
        yield from rt.synchronize()
    yield from rt.memcpy(host, dev)
    yield from rt.free(managed)
    yield from rt.free(dev)
    yield from rt.free(host)


def _probe(config):
    machine = Machine(config)
    machine.run(_obs_probe_app)
    return machine


def _timeline(trace):
    return [(e.kind, e.name, e.start_ns, e.duration_ns) for e in trace.events]


def test_observability_is_zero_overhead(monkeypatch):
    """Recording vs recorders stubbed out: identical simulated timings,
    event for event.

    Spans and metrics are pure bookkeeping — they must never touch the
    simulation clock, in either security mode.  The stubs are a
    test-only fake: the simulator itself has one, always-recording mode.
    """
    factories = (SystemConfig.base, SystemConfig.confidential)
    recorded = [_probe(factory()) for factory in factories]
    monkeypatch.setattr(
        SpanRecorder, "span", lambda self, *a, **kw: contextlib.nullcontext()
    )
    monkeypatch.setattr(SpanRecorder, "record", lambda self, *a, **kw: None)
    monkeypatch.setattr(Counter, "inc", lambda self, delta=1: None)
    monkeypatch.setattr(Gauge, "set", lambda self, value: None)
    monkeypatch.setattr(Histogram, "observe", lambda self, value: None)
    for factory, on in zip(factories, recorded):
        off = _probe(factory())
        assert len(on.trace.spans) > 0
        assert any(m.series for m in on.trace.metrics.sampled())
        assert len(off.trace.spans) == 0
        assert not any(m.series for m in off.trace.metrics.sampled())
        assert off.trace.span_ns() == on.trace.span_ns()
        assert _timeline(off.trace) == _timeline(on.trace)
        assert off.sim.scheduled == on.sim.scheduled


def test_ext_teeio(figure_runner):
    result = figure_runner(extensions.generate_teeio)
    checks = {c["metric"]: c["measured"] for c in result.comparisons}
    # TEE-IO restores near-native transfer bandwidth...
    assert checks["teeio recovers transfer bandwidth (teeio/base, ~0.9+)"] > 0.9
    # ...but leaves a substantial non-transfer CC tax in place.
    removed = checks["teeio end-to-end vs cc (fraction of CC slowdown removed)"]
    assert 0.4 < removed < 0.9


def test_ext_crypto_scaling(figure_runner):
    result = figure_runner(extensions.generate_crypto_scaling)
    checks = {c["metric"]: c["measured"] for c in result.comparisons}
    assert checks["2-thread speedup over 1 thread"] > 1.5
    assert checks["8-thread CC bandwidth / base bandwidth (still < 1)"] < 0.9
    # Bandwidth is monotone in thread count.
    bw = [row[1] for row in result.rows]
    assert all(b >= a for a, b in zip(bw, bw[1:]))


def test_ext_graph_fusion_cc(figure_runner):
    result = figure_runner(extensions.generate_graph_fusion_cc)
    checks = {c["metric"]: c["measured"] for c in result.comparisons}
    # Answer to the paper's open question: the optimum does not move
    # toward smaller batches under CC.
    assert checks["CC optimal batch >= base optimal batch"] == 1.0
    # CC benefits more from batching than base does.
    times = {(row[0], row[1]): row[2] for row in result.rows}
    gain_base = times[("base", 1)] / times[("base", 64)]
    gain_cc = times[("cc", 1)] / times[("cc", 64)]
    assert gain_cc > gain_base


def test_ext_oversubscription(figure_runner):
    result = figure_runner(extensions.generate_oversubscription)
    checks = {c["metric"]: c["measured"] for c in result.comparisons}
    assert checks["CC thrash blowup at 1.8x oversubscription (vs in-budget CC)"] > 100
    assert checks["CC/base steady-state ratio while thrashing"] > 10
    # Within budget, CC and base UVM kernels run at the same speed
    # (data resident, Observation 5's non-UVM result recovered).
    kets = {(row[0], row[1]): row[2] for row in result.rows}
    assert abs(kets[(0.5, "cc")] - kets[(0.5, "base")]) / kets[(0.5, "base")] < 0.02


def test_ext_multigpu(figure_runner):
    result = figure_runner(extensions.generate_multigpu)
    checks = {c["metric"]: c["measured"] for c in result.comparisons}
    assert checks["batched / plaintext all-reduce bandwidth (8 GPUs, 1 GB)"] > 0.9
    assert checks["naive / plaintext all-reduce bandwidth (8 GPUs, 1 GB)"] < 0.75
    # Ordering holds at every homogeneous (gpus, size) point.
    cells = {(row[0], row[1], row[2]): row[4] for row in result.rows}
    for (gpus, size, security), bw in cells.items():
        if gpus == "2x2-hier" or security != "none":
            continue
        assert bw >= cells[(gpus, size, "batched")] >= cells[(gpus, size, "naive")]
    # Hierarchical NVL topology: the CC PCIe bridge dominates.
    assert checks["CC tax on cross-island (hier cc/base, 2x2 NVL pairs)"] > 3


def test_ext_distributed_training(figure_runner):
    result = figure_runner(extensions.generate_distributed_training)
    checks = {c["metric"]: c["measured"] for c in result.comparisons}
    assert checks["CC scaling efficiency, 4 GPUs on NVLink fabric"] > 0.95
    assert checks["CC scaling efficiency, 4 GPUs on NVL pairs"] < 0.75
    # Efficiency degrades monotonically with GPU count on CC NVL pairs.
    eff = {
        (row[0], row[1], row[2]): row[6] for row in result.rows
    }
    assert eff[("nvl-pairs", "cc", 8)] <= eff[("nvl-pairs", "cc", 4)] <= eff[
        ("nvl-pairs", "cc", 2)
    ]


def test_ext_model_load(figure_runner):
    result = figure_runner(extensions.generate_model_load)
    times = {row[0]: row[1] for row in result.rows}
    # CC turns a sub-second model load into multiple seconds; pipelined
    # encryption and TEE-IO each recover most of it.
    assert times["cc"] > 7 * times["base"]
    assert times["cc+pipelined-4t"] < 0.5 * times["cc"]
    assert times["cc+teeio"] < 1.2 * times["base"]


def test_ext_sensitivity(figure_runner):
    result = figure_runner(extensions.generate_sensitivity)
    checks = {c["metric"]: c["measured"] for c in result.comparisons}
    assert checks["copy ratios are seed-stable (max CoV, %)"] < 1.0
    # Every reported CoV is small: the headline ratios are not
    # artifacts of one lucky seed.
    for row in result.rows:
        assert row[5] < 5.0  # cov_pct


def test_ext_attestation(figure_runner):
    result = figure_runner(extensions.generate_attestation)
    rows = {row[0]: row for row in result.rows}
    # Seven SPDM messages either way; TD setup strictly slower.
    assert rows["base"][1] == rows["cc"][1] == 7
    assert rows["cc"][2] > rows["base"][2]
    # Attestation dominates time-to-first-kernel at CC bring-up.
    assert rows["cc"][2] * 1000 > rows["cc"][3]


def test_ext_fault_recovery(figure_runner):
    result = figure_runner(extensions.generate_fault_recovery)
    checks = {c["metric"]: c["measured"] for c in result.comparisons}
    # Zero-overhead guarantee: an empty plan changes nothing at all.
    assert checks["rate-0 span / no-plan span (zero-overhead guarantee)"] == 1.0
    rows = {row[0]: row for row in result.rows}
    assert rows[0.0][1] == 0 and rows[0.0][3] == 0  # no injections, no recovery
    # Injected faults and recovery time are monotone in the rate, and at
    # the top rate recovery is a visible share of the run.
    rates = sorted(rows)
    injected = [rows[r][1] for r in rates]
    recovery = [rows[r][3] for r in rates]
    assert all(b >= a for a, b in zip(injected, injected[1:]))
    assert all(b >= a for a, b in zip(recovery, recovery[1:]))
    assert rows[rates[-1]][4] > 1.0  # recovery_pct at the top rate
    # Transparent recovery: the end-to-end span grows with the rate but
    # every run still completes (no fatal faults surfaced).
    spans = [rows[r][5] for r in rates]
    assert all(b >= a for a, b in zip(spans, spans[1:]))
