"""Tests of the simulator benchmark: tracer fidelity, ledger closure,
metric names and workload intent.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import repro.serve.arrivals
import repro.serve.scenario
import repro.sim.engine
from perfbench import measure
from perfbench.ledger import LAYERS, OTHER, Ledger
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
SEED = 7  # not the default: digests are checked pass against pass


@pytest.fixture(scope="module")
def passes():
    """Per workload: one untraced pass, then two traced passes."""
    out = {}
    for workload in WORKLOADS:
        check = measure.DigestCheck(workload, SEED)
        untraced = measure.run_pass(workload, SEED, check)
        with Ledger() as ledger:
            traced = [
                measure.run_pass(workload, SEED, check, ledger)
                for _ in range(2)
            ]
        out[workload] = (untraced, traced)
    return out


def _self_s(result) -> dict:
    return {layer: result.ledger.self_ns[layer] for layer in LAYERS}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_digest_equals_untraced(passes, workload):
    untraced, traced = passes[workload]
    assert untraced.ok
    assert [p.digest for p in traced] == [untraced.digest] * 2
    assert all(p.ok for p in traced)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_counts_and_simulated_busy_time_repeat_exactly(passes, workload):
    _, (first, second) = passes[workload]
    assert first.counts == second.counts
    assert any(name.startswith("simt.") for name in first.counts)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_self_times_sum_to_traced_wall(passes, workload):
    _, traced = passes[workload]
    for result in traced:
        self_ns = result.ledger.self_ns
        assert set(self_ns) == set(LAYERS) | {OTHER}
        assert all(ns >= 0 for ns in self_ns.values())
        assert sum(self_ns.values()) == pytest.approx(result.wall_ns, rel=0.01)


def test_workload_intent(passes):
    """Each workload keeps stressing the layer it was chosen for."""
    faults = _self_s(passes["serve_faults"][1][0])
    telemetry = _self_s(passes["serve_telemetry"][1][0])
    apps = _self_s(passes["paper_apps"][1][0])
    assert max(telemetry, key=telemetry.get) == "telemetry"
    assert "spdm" in sorted(faults, key=faults.get, reverse=True)[:3]
    assert max(apps, key=apps.get) == "sim"
    for layer in ("serve", "telemetry", "spdm", "multigpu"):
        assert apps[layer] == 0, layer
    migrated = {
        workload: traced[0].counts["uvm.migrated_bytes"]
        for workload, (_, traced) in passes.items()
    }
    assert migrated.pop("paper_apps") > 0
    assert set(migrated.values()) == {0}


def test_benchmark_names():
    end_to_end = [m["name"] for m in BENCHMARK["end_to_end"]]
    per_layer = [m["name"] for m in BENCHMARK["per_layer"]]
    assert len(end_to_end) <= 16 and len(per_layer) <= 128
    names = end_to_end + per_layer + [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) and len(name) <= 64 for name in names)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_runs_produce_exactly_the_declared_metrics():
    e2e = measure.end_to_end("serve_faults", SEED, seconds=0.1)
    layers = measure.per_layer("serve_faults", SEED, seconds=0.1)
    assert e2e.failed == 0 and layers.failed == 0
    assert set(e2e.metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(layers.metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    for declared in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        metrics = e2e.metrics if declared in BENCHMARK["end_to_end"] else layers.metrics
        assert metrics[declared["name"]][1] == declared["unit"]
    assert all(value > 0 for value, _ in e2e.metrics.values())


def test_generator_wrapper_keeps_the_generator_protocol():
    ledger = Ledger()
    closed = []

    def inner():
        got = yield "first"
        try:
            yield got
        except KeyError as exc:
            yield f"caught {exc.args[0]}"
        try:
            yield "last"
        finally:
            closed.append(True)
        return "done"

    def outer(gen):
        return (yield from gen)

    wrapped = ledger._make_wrapper(inner, "cuda", "inner", False, None)
    gen = outer(wrapped())
    assert next(gen) == "first"
    assert gen.send("sent") == "sent"
    assert gen.throw(KeyError("k")) == "caught k"
    assert next(gen) == "last"
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == "done"

    gen = outer(wrapped())
    for _ in range(3):
        next(gen)
    gen.close()
    assert closed == [True, True]
    assert len(ledger._stack) == 1
    assert ledger._calls["inner"] == [2]


def test_ledger_restores_the_originals():
    run = repro.sim.engine.Simulator.run
    arrivals = repro.serve.arrivals.generate_arrivals
    with Ledger():
        assert repro.sim.engine.Simulator.run is not run
        assert repro.serve.scenario.generate_arrivals is not arrivals
    assert repro.sim.engine.Simulator.run is run
    assert repro.serve.scenario.generate_arrivals is arrivals
