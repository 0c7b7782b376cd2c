"""Tests for the Sec.-V performance model and Fig.-1 breakdown."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.config import SystemConfig, resolve_system_configs
from repro.core import breakdown, decompose, kernel_to_launch_ratio
from repro.core.breakdown import CATEGORIES
from repro.core.metrics import copy_time_by_kind, launch_metrics, mgmt_time_by_api
from repro.config import CopyKind
from repro.cuda import Machine, run_app
from repro.figures.ext_fault_serving import fault_plan_for
from repro.gpu import nanosleep_kernel
from repro.profiler import EventKind, Trace, TraceEvent
from repro.workloads import CATALOG


def sequential_app(rt):
    """Copy-then-execute with sync between launches (no overlap)."""
    dev = yield from rt.malloc(16 * units.MiB)
    host = yield from rt.host_alloc(16 * units.MiB)
    yield from rt.memcpy(dev, host)
    kernel = nanosleep_kernel(units.us(200), name="work")
    for _ in range(8):
        yield from rt.launch(kernel)
        yield from rt.synchronize()
    yield from rt.memcpy(host, dev)
    yield from rt.free(dev)
    yield from rt.free(host)


def overlap_app(rt):
    """Streams: copies overlapped with long kernels."""
    streams = [rt.create_stream() for _ in range(4)]
    dev = yield from rt.malloc(64 * units.MiB)
    host = yield from rt.malloc_host(64 * units.MiB)
    kernel = nanosleep_kernel(units.ms(5), name="long")
    for stream in streams:
        yield from rt.launch(kernel, stream=stream)
    copy_stream = rt.create_stream()
    yield from rt.memcpy_async(dev, host, stream=copy_stream)
    yield from rt.synchronize()


def test_model_prediction_close_to_observed():
    trace, _ = run_app(sequential_app, SystemConfig.base())
    model = decompose(trace)
    assert abs(model.prediction_error) < 0.05


def test_model_prediction_close_under_cc():
    trace, _ = run_app(sequential_app, SystemConfig.confidential())
    model = decompose(trace)
    assert abs(model.prediction_error) < 0.05


def test_alpha_zero_without_streams():
    trace, _ = run_app(sequential_app, SystemConfig.base())
    model = decompose(trace)
    assert model.alpha < 0.05


def test_alpha_positive_with_streams():
    trace, _ = run_app(overlap_app, SystemConfig.base())
    model = decompose(trace)
    assert model.alpha > 0.5


def test_part_totals_are_nonnegative():
    trace, _ = run_app(sequential_app, SystemConfig.base())
    model = decompose(trace)
    assert model.part_a_ns >= 0
    assert model.part_b_ns >= 0
    assert model.part_c_ns >= 0
    assert model.t_other_ns >= 0
    assert 0.0 <= model.alpha <= 1.0
    assert all(0.0 <= b <= 1.0 for b in model.betas)


def test_summary_renders():
    trace, _ = run_app(sequential_app, SystemConfig.base())
    text = decompose(trace).summary()
    assert "predicted" in text
    assert "alpha" in text


def test_klr_finite_and_positive():
    trace, _ = run_app(sequential_app, SystemConfig.base())
    klr = kernel_to_launch_ratio(trace)
    assert klr > 0


def test_launch_metrics_counts():
    trace, _ = run_app(sequential_app, SystemConfig.base())
    metrics = launch_metrics(trace)
    assert metrics.count == 8
    assert metrics.total_klo_ns > 0


def test_copy_time_by_kind_base():
    trace, _ = run_app(sequential_app, SystemConfig.base())
    by_kind = copy_time_by_kind(trace)
    assert by_kind[CopyKind.H2D] > 0
    assert by_kind[CopyKind.D2H] > 0
    assert by_kind[CopyKind.D2D] == 0


def test_cc_pinned_copies_reclassified_d2d():
    def pinned_copy(rt):
        dev = yield from rt.malloc(8 * units.MiB)
        host = yield from rt.malloc_host(8 * units.MiB)
        yield from rt.memcpy(dev, host)

    trace, _ = run_app(pinned_copy, SystemConfig.confidential())
    by_kind = copy_time_by_kind(trace)
    # The Nsight-visible view: the pinned copy shows up as Managed D2D.
    assert by_kind[CopyKind.D2D] > 0
    assert by_kind[CopyKind.H2D] == 0


def test_mgmt_time_by_api_names():
    trace, _ = run_app(sequential_app, SystemConfig.base())
    mgmt = mgmt_time_by_api(trace)
    assert "cudaMalloc" in mgmt
    assert "cudaFree" in mgmt


def test_breakdown_covers_span():
    trace, _ = run_app(sequential_app, SystemConfig.base())
    result = breakdown(trace)
    assert result.span_ns == trace.span_ns()
    assert sum(result.by_category_ns.values()) == result.span_ns
    assert all(v >= 0 for v in result.by_category_ns.values())


def test_breakdown_kernel_share_dominates_sequential_app():
    trace, _ = run_app(sequential_app, SystemConfig.base())
    result = breakdown(trace)
    assert result.share("kernel") > 0.2


def test_breakdown_empty_trace():
    result = breakdown(Trace())
    assert result.span_ns == 0
    assert result.share("kernel") == 0.0


def test_breakdown_clips_queue_windows_to_the_span():
    # A kernel queued 50 ns before the first event: the queue window
    # starts outside the 10 ns span and must not be claimed there.
    trace = Trace()
    trace.add(TraceEvent(EventKind.KERNEL, "k", 100, 10, queue_ns=50))
    result = breakdown(trace)
    assert result.span_ns == 10
    assert result.by_category_ns["kernel"] == 10
    assert result.by_category_ns["kernel_queue"] == 0
    assert result.by_category_ns["idle"] == 0


#: Event kind -> (category, queue category) as breakdown reads them.
_EVENT_CATEGORIES = {
    EventKind.KERNEL: ("kernel", "kernel_queue"),
    EventKind.LAUNCH: ("launch", "launch_queue"),
    EventKind.MEMCPY: ("copy", None),
    EventKind.ALLOC: ("mgmt", None),
    EventKind.FREE: ("mgmt", None),
    EventKind.SYNC: ("sync", None),
    EventKind.RECOVERY: ("recovery", None),
}

_recorded_event = st.builds(
    lambda kind, start, duration, queue: TraceEvent(
        kind, kind.value, start, duration, queue_ns=queue
    ),
    st.sampled_from(sorted(_EVENT_CATEGORIES, key=lambda k: k.value)),
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=30),
)


#: The Fig.-1 priority: each category claims time on its own.
_BREAKDOWN_PRIORITY = tuple((c, (c,)) for c in CATEGORIES[:-1])

#: The Sec.-V priority: parts B > C > A > D over the same categories.
_MODEL_PRIORITY = (
    ("B", ("launch", "launch_queue")),
    ("C", ("kernel", "kernel_queue")),
    ("A", ("copy",)),
    ("D", ("mgmt", "sync", "recovery")),
)


def _paint_categories(events, priority=_BREAKDOWN_PRIORITY):
    """Per-nanosecond reference: each instant of the span goes to the
    first ``(label, categories)`` of ``priority`` whose raw intervals
    cover it, and to ``idle`` when none does."""
    raw = {category: [] for category in CATEGORIES}
    for event in events:
        category, queue_category = _EVENT_CATEGORIES[event.kind]
        raw[category].append((event.start_ns, event.end_ns))
        if queue_category:
            raw[queue_category].append(
                (event.start_ns - event.queue_ns, event.start_ns)
            )
    span_start = min(e.start_ns for e in events)
    span_end = max(e.end_ns for e in events)
    painted = Counter({label: 0 for label, _ in priority})
    painted["idle"] = 0
    for t in range(span_start, span_end):
        painted[next(
            (
                label for label, categories in priority
                if any(s <= t < e for c in categories for s, e in raw[c])
            ),
            "idle",
        )] += 1
    return dict(painted)


def _trace_of(events):
    trace = Trace()
    for event in events:
        trace.add(event)
    return trace


@settings(max_examples=150, deadline=None)
@given(events=st.lists(_recorded_event, min_size=1, max_size=12))
def test_property_breakdown_matches_per_nanosecond_painter(events):
    trace = _trace_of(events)
    result = breakdown(trace)
    assert result.span_ns == trace.span_ns()
    assert all(v >= 0 for v in result.by_category_ns.values())
    assert sum(result.by_category_ns.values()) == result.span_ns
    assert result.by_category_ns == _paint_categories(events)


@settings(max_examples=150, deadline=None)
@given(events=st.lists(_recorded_event, min_size=1, max_size=12))
def test_property_decompose_matches_per_nanosecond_painter(events):
    trace = _trace_of(events)
    deco = decompose(trace)
    painted = _paint_categories(events, _MODEL_PRIORITY)
    assert deco.span_ns == trace.span_ns()
    assert (deco.part_b_ns, deco.part_c_ns, deco.t_other_ns) == (
        painted["B"], painted["C"], painted["D"],
    )
    # alpha is the share of T_mem that B or C claims.
    assert deco.t_mem_ns - round(deco.alpha * deco.t_mem_ns) == painted["A"]
    assert deco.part_a_ns == int((1 - deco.alpha) * deco.t_mem_ns)
    # A + B + C + D + idle is the span, less the 1 ns part A may round off.
    assert deco.span_ns - deco.predicted_ns - painted["idle"] in (0, 1)


def test_model_parts_and_idle_partition_every_catalogue_span():
    # The Sec.-V parts and the Fig.-1 idle time are two carves of one
    # read: P + idle is the span, less the 1 ns part A may round off.
    recovered = 0
    for plan in (None, fault_plan_for(0.05)):
        for name, info in CATALOG.items():
            for cc in (False, True):
                config = resolve_system_configs(cc=cc, seed=42)
                if plan is not None:
                    config = config.replace(faults=plan)
                for uvm in (False, True):
                    machine = Machine(config, label=name)
                    machine.run(info.app(uvm))
                    deco = decompose(machine.trace)
                    idle = breakdown(machine.trace).by_category_ns["idle"]
                    gap = deco.span_ns - deco.predicted_ns - idle
                    assert gap in (0, 1), (name, cc, uvm, plan, gap)
                    if plan is not None and deco.t_recovery_ns > 0:
                        recovered += 1
    assert recovered > 0
