"""Tests for the serving engine and scenario runner: CC ordering,
preemption cost paths, SLO reporting, and verdict determinism."""

import pytest

from repro import units
from repro.config import SystemConfig
from repro.serve import (
    ClusterSpec,
    EngineTuning,
    ScenarioSpec,
    SLOTargets,
    build_report,
    parse_duration_ns,
    predicted_step_cc_overhead_ns,
    run_cluster,
    run_scenario,
    scenario_verdict,
    verdict_json,
)

# Small but non-trivial: ~8 requests over 2 tenants in half a second.
QUICK = ScenarioSpec(rate_rps=16.0, duration_ns=units.NS_PER_SEC // 2)

# High enough pressure on a small pool to force paging.
PAGING = ScenarioSpec(
    rate_rps=32.0,
    duration_ns=units.NS_PER_SEC // 2,
    max_num_seqs=8,
    kv_budget_bytes=24 * units.MiB,
)


def test_scenario_completes_and_reports():
    trace, result = run_scenario(QUICK, SystemConfig.base())
    assert result.requests > 0
    report = result.report
    assert report["completed"] == result.requests - report["rejected"]
    assert report["goodput_rps"] <= report["completed_rps"]
    assert report["ttft_ms"]["p50"] <= report["ttft_ms"]["p99"]
    assert set(report["tenants"]) == {"tenant0", "tenant1"}
    # The engine exported its SLO histograms and occupancy tracks.
    names = trace.metrics.names()
    assert "serve.ttft_ms" in names
    assert "serve.kv_used_blocks" in names
    assert "serve.queue_depth" in names


def test_cc_run_is_slower_and_pays_the_step_tax():
    _, base = run_scenario(QUICK, SystemConfig.base())
    _, cc = run_scenario(QUICK, SystemConfig.confidential())
    assert cc.cc and not base.cc
    assert base.arrival_digest == cc.arrival_digest  # same offered stream
    assert cc.engine.elapsed_ns > base.engine.elapsed_ns
    predicted_ns = predicted_step_cc_overhead_ns(
        SystemConfig.base(), SystemConfig.confidential()
    )
    assert predicted_ns > 0
    # Mean TTFT inflates by at least the model's fixed per-step tax.
    assert (
        cc.report["ttft_ms"]["mean"] - base.report["ttft_ms"]["mean"]
        >= units.to_ms(predicted_ns)
    )


def test_swap_preemption_rides_the_pcie_path():
    trace, result = run_scenario(PAGING, SystemConfig.confidential())
    stats = result.engine.stats
    assert stats["preemptions"] > 0
    assert stats["swap_out_bytes"] > 0
    assert stats["swap_in_bytes"] > 0
    assert trace.metrics.counter("serve.swap_bytes").value == (
        stats["swap_out_bytes"] + stats["swap_in_bytes"]
    )
    assert result.report["total_preemptions"] > 0


def test_recompute_preemption_pays_compute_not_bytes():
    spec = ScenarioSpec(
        rate_rps=PAGING.rate_rps,
        duration_ns=PAGING.duration_ns,
        max_num_seqs=PAGING.max_num_seqs,
        kv_budget_bytes=PAGING.kv_budget_bytes,
        preemption="recompute",
    )
    _, result = run_scenario(spec, SystemConfig.base())
    stats = result.engine.stats
    assert stats["preemptions"] > 0
    assert stats["recompute_tokens"] > 0
    assert stats["swap_out_bytes"] == stats["swap_in_bytes"] == 0


def test_verdict_json_is_deterministic():
    first = verdict_json(run_scenario(QUICK, SystemConfig.confidential())[1])
    second = verdict_json(run_scenario(QUICK, SystemConfig.confidential())[1])
    assert first == second
    payload = scenario_verdict(run_scenario(QUICK, SystemConfig.base())[1])
    assert payload["command"] == "serve"
    assert payload["spec"]["seed"] == 42


def test_different_seeds_change_the_verdict():
    spec43 = ScenarioSpec(rate_rps=QUICK.rate_rps,
                          duration_ns=QUICK.duration_ns, seed=43)
    a = verdict_json(run_scenario(QUICK, SystemConfig.base())[1])
    b = verdict_json(run_scenario(spec43, SystemConfig.base())[1])
    assert a != b


def test_build_report_empty_run():
    report = build_report([], [], units.NS_PER_SEC, SLOTargets())
    assert report["completed"] == 0
    assert report["goodput_rps"] == 0.0
    assert report["ttft_ms"]["p99"] == 0.0


def test_parse_duration():
    assert parse_duration_ns("2s") == 2 * units.NS_PER_SEC
    assert parse_duration_ns("500ms") == units.NS_PER_SEC // 2
    assert parse_duration_ns("1.5s") == int(1.5 * units.NS_PER_SEC)
    assert parse_duration_ns("3") == 3 * units.NS_PER_SEC
    with pytest.raises(ValueError, match="duration"):
        parse_duration_ns("fast")


@pytest.mark.parametrize("run", [
    # Knobs the chosen policy or topology never reads.
    lambda: run_scenario(ScenarioSpec(deadline_ms=100)),
    lambda: run_scenario(ScenarioSpec(max_queue_depth=4)),
    lambda: run_scenario(ScenarioSpec(shed_policy="deadline")),
    lambda: run_scenario(ScenarioSpec(ttft_slo_ms=0)),
    lambda: run_cluster(ClusterSpec(link_policy="batched")),
    lambda: run_cluster(ClusterSpec(placement="kv-affinity")),
    lambda: run_cluster(ClusterSpec(autoscale_max=1)),
], ids=["deadline-unshed", "depth-without-pushback", "deadline-no-timeout",
        "zero-ttft-slo", "batched-link-tp1", "placement-one-replica",
        "autoscaler-cannot-grow"])
def test_library_rejects_silently_ignored_knobs(run):
    with pytest.raises(ValueError):
        run()


@pytest.mark.parametrize("cc", [False, True], ids=["base", "cc"])
@pytest.mark.parametrize("streams", [1, 2], ids=["sync", "overlap"])
def test_coalesced_flush_of_a_full_batch_fits_the_token_buffer(cc, streams):
    # 1000 sequences x 64 coalesced steps x 4 B = 256,000 B per flush,
    # past the 64 KiB default token buffer.
    spec = ScenarioSpec(
        rate_rps=2000.0,
        duration_ns=units.NS_PER_SEC // 2,
        max_num_seqs=1000,
        max_batch_tokens=65536,
        kv_budget_bytes=64 * 1024 * units.MiB,
    )
    config = SystemConfig.confidential() if cc else SystemConfig.base()
    tuning = EngineTuning(token_flush_every=64, d2h_streams=streams)
    _, result = run_scenario(spec, config, tuning=tuning)
    assert result.report["completed"] == result.requests
