"""Tests for request-scoped serving telemetry: zero perturbation,
exact per-request CC-tax conservation, forensics consistency with the
verdict, per-request trace tracks, and byte-deterministic exports."""

import dataclasses
import hashlib
import json
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.config import SystemConfig
from repro.core.intervals import intersect, merge, subtract
from repro.faults import FaultPlan
from repro.figures.ext_fault_serving import fault_plan_for
from repro.figures.ext_fault_serving import spec_for as fault_spec_for
from repro.obs import summary
from repro.optim import parse_pipeline
from repro.profiler.importers import from_chrome_trace
from repro.serve import (
    ATTRIBUTION_COMPONENTS,
    ClusterSpec,
    EngineOp,
    RequestOutcome,
    ScenarioSpec,
    ServeTelemetry,
    TelemetryError,
    attribute_requests,
    cluster_verdict_json,
    component_timeline,
    forensics_diff,
    latency_percentiles,
    pick_percentile_request,
    requests_csv,
    requests_jsonl,
    run_cluster,
    run_scenario,
    tail_report,
    tenant_rollup,
    verdict_json,
)
from repro.serve import telemetry
from repro.serve.telemetry import (
    OP_BASE_COMPONENT,
    _cumulative_index,
    _window_components,
)

QUICK = ScenarioSpec(rate_rps=16.0, duration_ns=units.NS_PER_SEC // 2)

# Forces paging (KV swaps) so swap_out/swap_in ops appear.
PAGING = ScenarioSpec(
    rate_rps=32.0,
    duration_ns=units.NS_PER_SEC // 2,
    max_num_seqs=8,
    kv_budget_bytes=24 * units.MiB,
)

# Fault pressure + shedding so terminal states beyond "completed" and
# recovery attribution both appear.
FAULTY = ScenarioSpec(
    rate_rps=24.0,
    duration_ns=units.NS_PER_SEC // 2,
    ttft_timeout_ms=120.0,
    shed_policy="pushback",
    max_queue_depth=4,
    circuit_breaker=True,
)


def _faulty_config():
    return SystemConfig.confidential().replace(
        faults=FaultPlan.uniform(0.05, max_faults=12)
    )


@pytest.fixture(scope="module")
def cc_run():
    return run_scenario(QUICK, SystemConfig.confidential(), telemetry=True)


@pytest.fixture(scope="module")
def base_run():
    return run_scenario(QUICK, SystemConfig.base(), telemetry=True)


# -- interval algebra ------------------------------------------------------


def test_interval_helpers():
    # The attribution's interval algebra is repro.core.intervals.
    assert merge([(5, 9), (0, 3), (2, 4), (7, 7)]) == [(0, 4), (5, 9)]
    assert intersect([(2, 7)], [(0, 4), (5, 9)]) == [(2, 4), (5, 7)]
    assert intersect([(4, 9)], [(0, 4)]) == []
    assert subtract([(0, 10)], [(2, 4), (6, 8)]) == [
        (0, 2), (4, 6), (8, 10),
    ]
    assert subtract([(0, 10)], [(0, 10)]) == []


def test_component_timeline_gap_fill_and_overlap_rejection():
    class EmptyTrace:
        spans = ()

        def recoveries(self):
            return []

        def kernels(self):
            return []

    ops = [EngineOp("sched", 10, 20), EngineOp("prefill", 30, 40)]
    timeline = component_timeline(ops, EmptyTrace(), 50)
    assert timeline == [
        (0, 10, "other"),
        (10, 20, "D"),
        (20, 30, "other"),
        (30, 40, "Q"),
        (40, 50, "other"),
    ]
    with pytest.raises(TelemetryError, match="overlapping"):
        component_timeline(
            [EngineOp("sched", 0, 20), EngineOp("sched", 10, 30)],
            EmptyTrace(), 30,
        )


def test_unknown_op_kind_rejected():
    tel = ServeTelemetry()
    tel.bind_clock(lambda: 0)
    with pytest.raises(TelemetryError, match="unknown engine op"):
        with tel.op("warp_drive"):
            pass


# -- linear attribution against a brute-force reference -------------------

#: Refinement priority inside an op, highest first.
REFINEMENTS = ("recovery", "K", "E", "L")
HORIZON = 48


def _event(interval):
    return SimpleNamespace(start_ns=interval[0], end_ns=interval[1])


def _fake_trace(refinements):
    """The four refinement streams, plus a span neither crypto nor a
    launch that the attribution must ignore."""
    spans = [SimpleNamespace(start_ns=0, end_ns=HORIZON, name="cudaMemcpy",
                             attrs={})]
    spans += [SimpleNamespace(start_ns=s, end_ns=e, name="aes_gcm",
                              attrs={"crypto": True})
              for s, e in refinements["E"]]
    spans += [SimpleNamespace(start_ns=s, end_ns=e, name="cudaLaunchKernel",
                              attrs={})
              for s, e in refinements["L"]]
    return SimpleNamespace(
        recoveries=lambda: [_event(iv) for iv in refinements["recovery"]],
        kernels=lambda: [_event(iv) for iv in refinements["K"]],
        spans=spans,
    )


def _paint(ops, refinements):
    """Per-nanosecond reference: recovery > K > E > L > op base > other."""
    painted = ["other"] * HORIZON
    for op in ops:
        for t in range(op.start_ns, op.end_ns):
            painted[t] = next(
                (c for c in REFINEMENTS
                 if any(s <= t < e for s, e in refinements[c])),
                OP_BASE_COMPONENT[op.kind],
            )
    return painted


_point = st.integers(min_value=0, max_value=HORIZON)
_interval = st.tuples(_point, _point).map(lambda t: (min(t), max(t)))


@st.composite
def _attribution_case(draw):
    # Consecutive pairs of sorted cut points: non-overlapping ops, some
    # touching, some empty.
    cuts = sorted(draw(st.lists(_point, max_size=16)))
    ops = [
        EngineOp(draw(st.sampled_from(sorted(OP_BASE_COMPONENT))), s, e)
        for s, e in zip(cuts[::2], cuts[1::2])
    ]
    refinements = {
        c: draw(st.lists(_interval, max_size=5)) for c in REFINEMENTS
    }
    windows = draw(st.lists(_interval, max_size=6))
    return draw(st.permutations(ops)), refinements, windows


@settings(max_examples=150, deadline=None)
@given(case=_attribution_case())
def test_attribution_matches_per_nanosecond_painter(case):
    ops, refinements, windows = case
    timeline = component_timeline(ops, _fake_trace(refinements), HORIZON)
    cursor = 0
    for start, end, _ in timeline:
        assert start == cursor < end
        cursor = end
    assert cursor == HORIZON
    expected = _paint(ops, refinements)
    assert [c for s, e, c in timeline for _ in range(s, e)] == expected
    index = _cumulative_index(timeline)
    for lo, hi in windows:
        totals = _window_components(index, lo, hi)
        assert totals == dict(Counter(expected[lo:hi]))
        assert sum(totals.values()) == hi - lo


class _BisectCounter:
    """Counts the attribution's bisections and the distinct key lists
    they search; a key list rebuilt per call trips the bound at once."""

    MAX_KEY_LISTS = 32

    def __init__(self, monkeypatch):
        self.calls = 0
        self.key_lists = {}
        for name in ("bisect_left", "bisect_right"):
            monkeypatch.setattr(
                telemetry, name, self._counted(getattr(telemetry, name))
            )

    def _counted(self, real):
        def counted(keys, x):
            self.calls += 1
            # Holding each list keeps its id unique.
            self.key_lists[id(keys)] = keys
            assert len(self.key_lists) <= self.MAX_KEY_LISTS, (
                "bisect keys rebuilt per call"
            )
            return real(keys, x)

        return counted


def _synthetic_attribution(ops_count, monkeypatch):
    """Attribute a trace of ``ops_count`` ops and as many kernels."""
    kinds = sorted(OP_BASE_COMPONENT)
    tel = ServeTelemetry()
    tel.ops = [
        EngineOp(kinds[i % len(kinds)], 10 * i, 10 * i + 8)
        for i in range(ops_count)
    ]
    trace = SimpleNamespace(
        recoveries=lambda: [_event((10 * i, 10 * i + 1))
                            for i in range(0, ops_count, 50)],
        kernels=lambda: [_event((10 * i + 2, 10 * i + 5))
                         for i in range(ops_count)],
        spans=[SimpleNamespace(start_ns=10 * i + 4, end_ns=10 * i + 7,
                               name="cudaLaunchKernel", attrs={})
               for i in range(0, ops_count, 3)],
    )
    outcomes = []
    for req_id in range(ops_count // 100):
        arrival = 1000 * req_id
        tel.admitted(req_id, arrival + 3)
        outcomes.append(RequestOutcome(
            req_id=req_id, tenant="t", arrival_ns=arrival,
            first_token_ns=arrival + 2000, finish_ns=arrival + 7000,
            prompt_tokens=1, gen_tokens=2,
        ))
    counter = _BisectCounter(monkeypatch)
    attributions = attribute_requests(outcomes, tel, trace)
    assert len(attributions) == len(outcomes)
    for a in attributions:
        assert sum(a.components.values()) == a.e2e_ns
    monkeypatch.undo()
    return counter


def test_attribution_work_grows_linearly(monkeypatch):
    small = _synthetic_attribution(10_000, monkeypatch)
    big = _synthetic_attribution(20_000, monkeypatch)
    # Keys are built once per refinement list and per component, not
    # per op; the number of bisections is linear in ops + requests.
    assert len(big.key_lists) == len(small.key_lists)
    assert big.calls <= 2 * small.calls
    assert big.calls <= 16 * (20_000 + 20_000 // 100)


@pytest.mark.parametrize("faulty", [False, True], ids=["clean", "faults"])
@pytest.mark.parametrize(
    "pipeline", ["fusion", "fusion+overlap:2+batch:4+staging"]
)
def test_fused_step_attribution(pipeline, faulty):
    spec, tuning = parse_pipeline(pipeline).apply(QUICK)
    config = SystemConfig.confidential()
    if faulty:
        config = config.replace(faults=fault_plan_for(0.05))
    _, plain = run_scenario(spec, config, tuning=tuning)
    trace, result = run_scenario(spec, config, telemetry=True, tuning=tuning)
    assert verdict_json(plain) == verdict_json(result)
    assert any(
        s.layer == "serve.op" and s.name == "fused_step" for s in trace.spans
    )
    for a in result.attributions:
        assert sum(a.components.values()) == a.e2e_ns
        if a.ttft_ns is not None:
            assert sum(a.ttft_components.values()) == a.ttft_ns


# -- the tentpole invariants ----------------------------------------------


def test_zero_perturbation_verdict_bytes(cc_run):
    _, with_tel = cc_run
    _, without = run_scenario(
        QUICK, SystemConfig.confidential(), telemetry=False
    )
    assert verdict_json(with_tel) == verdict_json(without)
    assert without.attributions is None
    assert with_tel.attributions


def test_attribution_conserves_exactly(cc_run):
    _, result = cc_run
    for a in result.attributions:
        assert sum(a.components.values()) == a.e2e_ns
        if a.ttft_ns is not None:
            assert sum(a.ttft_components.values()) == a.ttft_ns
            # The TTFT window is a prefix of the request: no component
            # can have more TTFT-window time than total time.
            for component, value in a.ttft_components.items():
                assert value <= a.components.get(component, 0)
        assert set(a.components) <= set(ATTRIBUTION_COMPONENTS)


def test_attribution_conserves_under_paging_and_faults():
    for spec, config in (
        (PAGING, SystemConfig.confidential()),
        (FAULTY, _faulty_config()),
    ):
        _, result = run_scenario(spec, config, telemetry=True)
        assert result.attributions
        statuses = {a.status for a in result.attributions}
        for a in result.attributions:
            assert sum(a.components.values()) == a.e2e_ns
        if spec is PAGING:
            assert any(a.preemptions for a in result.attributions)
        else:
            # fault pressure must produce non-completed terminals
            assert statuses - {"completed"}


def test_engine_give_up_fails_unarrived_requests_at_arrival():
    # An engine that gives up early fails every request that has not
    # arrived yet; each must end no earlier than it arrived, so its
    # (empty) attribution still conserves.
    _, result = run_scenario(
        fault_spec_for("none", 42, 1.0),
        SystemConfig.base(seed=1).replace(faults=fault_plan_for(0.2)),
        telemetry=True,
    )
    down = [a for a in result.attributions if a.cause == "engine_down"]
    assert down, "expected requests failed after the engine gave up"
    give_up_ns = min(a.finish_ns for a in down)
    assert any(a.arrival_ns > give_up_ns for a in down)
    for a in result.attributions:
        assert a.finish_ns >= a.arrival_ns
        assert sum(a.components.values()) == a.e2e_ns


def test_forensics_percentiles_reproduce_verdict(cc_run):
    _, result = cc_run
    recomputed = latency_percentiles(result.attributions)
    for metric in ("ttft_ms", "tpot_ms", "e2e_ms"):
        for key in ("p50", "p95", "p99"):
            assert recomputed[metric][key] == result.report[metric][key]


def test_p99_pick_is_the_reported_percentile(cc_run):
    _, result = cc_run
    p99 = pick_percentile_request(result.attributions, 99)
    assert units.to_ms(p99.ttft_ns) == result.report["ttft_ms"]["p99"]


def test_tail_report_shape_and_order(cc_run):
    _, result = cc_run
    report = tail_report(result.attributions, top=3)
    slowest = report["slowest"]
    assert len(slowest) == 3
    e2es = [r["e2e_ns"] for r in slowest]
    assert e2es == sorted(e2es, reverse=True)
    assert report["ttft_p99"]["ttft_ms"] == result.report["ttft_ms"]["p99"]
    # every record's flattened components conserve too
    for record in slowest:
        total = sum(record[f"c_{c}"] for c in ATTRIBUTION_COMPONENTS)
        assert total == record["e2e_ns"]


def test_tenant_rollup_partitions_requests(cc_run):
    _, result = cc_run
    rollup = tenant_rollup(result.attributions)
    assert sum(r["requests"] for r in rollup.values()) == len(
        result.attributions
    )
    for tenant, row in rollup.items():
        mine = [a for a in result.attributions if a.tenant == tenant]
        assert row["completed"] == sum(
            1 for a in mine if a.status == "completed"
        )
        assert sum(row["components_ns"].values()) == sum(
            a.e2e_ns for a in mine
        )


def test_forensics_diff_sums_exactly(base_run, cc_run):
    _, base = base_run
    _, cc = cc_run
    diff = forensics_diff(base.attributions, cc.attributions)
    assert sum(diff["components_delta_ns"].values()) == diff["delta_ns"]
    assert diff["dominant"] in ATTRIBUTION_COMPONENTS


def test_engine_ops_tag_owning_requests(cc_run):
    trace, result = cc_run
    op_spans = [s for s in trace.spans if s.layer == "serve.op"]
    assert op_spans
    kinds = {s.name for s in op_spans}
    assert {"prompt_upload", "prefill", "decode", "token_d2h",
            "sched"} <= kinds
    completed = {
        str(a.req_id)
        for a in result.attributions
        if a.status == "completed"
    }
    tagged = set()
    for span in op_spans:
        if span.attrs.get("reqs"):
            tagged |= set(span.attrs["reqs"].split(","))
    # every completed request shows up as an owner of some engine op
    assert completed <= tagged


def test_per_request_spans_and_chrome_tracks(cc_run):
    trace, result = cc_run
    roots = [
        s for s in trace.spans
        if s.layer == "serve.req" and s.name == "request"
    ]
    assert len(roots) == len(result.attributions)
    payload = json.loads(trace.to_chrome_trace())
    names = {
        row["args"]["name"]
        for row in payload["traceEvents"]
        if row.get("ph") == "M" and row["name"] == "thread_name"
    }
    for a in result.attributions:
        assert f"req:{a.req_id}" in names
    # one tid per request, all distinct
    req_tids = {
        row["tid"]
        for row in payload["traceEvents"]
        if row.get("ph") == "M" and row["name"] == "thread_name"
        and row["args"]["name"].startswith("req:")
    }
    assert len(req_tids) == len(result.attributions)


def test_trace_roundtrip_preserves_attributions(cc_run):
    trace, result = cc_run
    text = trace.to_chrome_trace()
    clone = from_chrome_trace(text)
    assert clone.to_chrome_trace() == text
    reimported = summary.serve_attributions(clone)
    assert reimported == sorted(
        result.attributions, key=lambda a: a.req_id
    )


def test_exports_byte_deterministic(cc_run):
    _, first = cc_run
    _, second = run_scenario(
        QUICK, SystemConfig.confidential(), telemetry=True
    )
    assert requests_jsonl(first.attributions) == requests_jsonl(
        second.attributions
    )
    assert requests_csv(first.attributions) == requests_csv(
        second.attributions
    )
    lines = requests_jsonl(first.attributions).strip().splitlines()
    assert len(lines) == len(first.attributions)
    record = json.loads(lines[0])
    assert record["e2e_ns"] == sum(
        record[f"c_{c}"] for c in ATTRIBUTION_COMPONENTS
    )
    header = requests_csv(first.attributions).splitlines()[0]
    assert header.split(",")[0] == "req_id"


#: A short paging run: preemptions and restores reorder the running
#: batch, so a decode plan is not in request-id order.
PINNED = dataclasses.replace(PAGING, duration_ns=units.NS_PER_SEC // 4)

#: SHA-256 of the three exports of the untuned CC ``PINNED`` telemetry
#: run.  The trace digest also pins op tags such as the plan-order
#: request list of each ``token_d2h`` op, which no verdict or golden
#: covers.  Do NOT update without a golden-gate review.
_EXPORT_DIGESTS = {
    "verdict": (
        "5104764d89edd963ddb0dfd2b27594b643c83da9d9436d0f09594a5d40f84853"
    ),
    "requests_jsonl": (
        "c597e5f2d32915088e83ba32257422d15f019acbac84150baf70549e535e28b4"
    ),
    "chrome_trace": (
        "aa55ee08dd2dc69e8a4684d37715eee86e6bacdbb3c7f67c4cdb84cafd7e4a0e"
    ),
}


def test_untuned_cc_export_digests_pinned():
    trace, result = run_scenario(
        PINNED, SystemConfig.confidential(), telemetry=True
    )
    assert result.engine.stats["preemptions"] > 0
    exports = {
        "verdict": verdict_json(result),
        "requests_jsonl": requests_jsonl(result.attributions),
        "chrome_trace": trace.to_chrome_trace(),
    }
    digests = {
        name: hashlib.sha256(text.encode()).hexdigest()
        for name, text in exports.items()
    }
    assert digests == _EXPORT_DIGESTS


def _tuned_faulty_exports():
    _, tuning = parse_pipeline("fusion+overlap:2+batch:4+staging").apply(
        FAULTY
    )
    trace, result = run_scenario(
        FAULTY, _faulty_config(), telemetry=True, tuning=tuning
    )
    assert result.engine.stats["tuning_fused_launches"] > 0
    return (
        verdict_json(result),
        requests_jsonl(result.attributions),
        trace.to_chrome_trace(),
    )


def _parallel_cc_exports():
    spec = ClusterSpec(
        scenario=ScenarioSpec(
            rate_rps=24.0, duration_ns=units.NS_PER_SEC // 4
        ),
        tp=2,
        pp=2,
    )
    traces, result = run_cluster(
        spec, SystemConfig.confidential(), telemetry=True
    )
    assert result.replicas[0].engine.stats["pp_comm_ns"] > 0
    return (
        cluster_verdict_json(result),
        requests_jsonl(result.attributions),
        traces[0].to_chrome_trace(),
    )


#: SHA-256 of (verdict, request JSONL, Chrome trace) for a tuned CC run
#: under fault pressure and for one tp=2/pp=2 CC replica: the exports
#: the flush/overlap/fusion/staging and TP/PP comm paths write.  Do NOT
#: update without a golden-gate review.
@pytest.mark.parametrize("run, digests", [
    pytest.param(_tuned_faulty_exports, (
        "a42a37215bff00a5a417d12eafc54e4649e7feadc05f5c370b29b68f52a8573f",
        "35ccf33d49f60a68ed15b88d3f0a3174216cfcc45058328330f90d06116ebe4f",
        "9b2244792bcd8d3b4dd86d167eeddbc12700e4c0f37d058fe66fc62359e317fe",
    ), id="tuned-faults"),
    pytest.param(_parallel_cc_exports, (
        "038e11da2ed104b793498532ff1a4043c15f8bf435f9d58b3d7b9e49cf2966df",
        "4a15bf43ef36f28ee46052b853bb292c20e84a325f2fd9559baf6022df3a9614",
        "1eebfb97d79ff0b5e796c4975645f1b3029c98f8f2fb6e906e856dc2eca542d7",
    ), id="tp2-pp2"),
])
def test_tuned_and_parallel_export_digests_pinned(run, digests):
    assert tuple(
        hashlib.sha256(text.encode()).hexdigest() for text in run()
    ) == digests


#: SHA-256 of the cluster verdict of two routed CC runs: two fixed
#: least-loaded replicas (the CI cluster smoke), and one replica that
#: the autoscaler grows under overload.  These pin the router summary,
#: the per-replica split and the merged report, which the
#: ``ext_cluster_serving`` golden keeps only as rounded figures.  Do
#: NOT update without a golden-gate review.
@pytest.mark.parametrize("replicas, autoscale_max, rate_rps, seconds, digest", [
    pytest.param(
        2, 0, 24.0, 1,
        "524e6620fc7a88e516d0595d648b4791807dbfd32cf19edfee4e27b970347b18",
        id="two-least-loaded",
    ),
    pytest.param(
        1, 3, 32.0, 2,
        "a71e25998e9c1779ec08aa1bae35c47dd3ac923e8d78d9b0239f6a9f3706e574",
        id="autoscale-up",
    ),
])
def test_routed_cluster_verdict_digests_pinned(
    replicas, autoscale_max, rate_rps, seconds, digest
):
    spec = ClusterSpec(
        scenario=ScenarioSpec(
            rate_rps=rate_rps, duration_ns=seconds * units.NS_PER_SEC
        ),
        replicas=replicas,
        autoscale_max=autoscale_max,
        placement="least-loaded",
    )
    _, result = run_cluster(spec, SystemConfig.confidential())
    payload = cluster_verdict_json(result)
    assert hashlib.sha256(payload.encode()).hexdigest() == digest


def test_queue_attribution_never_admitted():
    # Aggressive pushback: some requests are shed before admission —
    # their whole lifetime must be queue time and nothing else.
    _, result = run_scenario(
        FAULTY, _faulty_config(), telemetry=True
    )
    shed = [a for a in result.attributions if a.admitted_ns is None]
    assert shed, "expected never-admitted requests under pushback"
    for a in shed:
        assert a.first_token_ns is None
        assert set(a.components) <= {"queue"}
        assert a.components.get("queue", 0) == a.e2e_ns
