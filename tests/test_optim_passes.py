"""Tests for the CC-mitigation pipeline grammar on EngineTuning.

Covers the zero-perturbation contract (the ``naive`` pipeline ==
committed verdict bytes), ``EngineTuning.parse`` as the inverse of
``describe``, the tuning validator, and a Hypothesis property that ANY
valid tuning preserves the serving engine's no-lost-request ledger
invariant.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.config import SystemConfig
from repro.figures.ext_recovered_serving import FLUSH_SWEEP, LADDER
from repro.serve import (
    EngineTuning,
    ScenarioSpec,
    TuningError,
    run_scenario,
    verdict_json,
)
from repro.tune import CANDIDATES, TuneSpec, enumerate_pipelines

SMALL = ScenarioSpec(rate_rps=16.0, duration_ns=units.NS_PER_SEC // 4)


# ---------------------------------------------------------------------------
# identity / zero-perturbation


def test_identity_pipeline_produces_trivial_tuning():
    for text in ("naive", "", " NAIVE "):
        tuning = EngineTuning.parse(text)
        assert tuning == EngineTuning()
        assert tuning.trivial
    assert EngineTuning().describe() == "naive"


def test_identity_pipeline_verdict_bytes_equal_untuned():
    """The ``naive`` pipeline must reproduce the engine's verdict
    byte-for-byte — the invariant behind the committed ext_serving /
    ext_cluster_serving goldens (CI cmp-gates the goldens themselves)."""
    config = SystemConfig.confidential()
    _, untuned = run_scenario(SMALL, config)
    _, tuned = run_scenario(SMALL, config, tuning=EngineTuning.parse("naive"))
    assert verdict_json(untuned) == verdict_json(tuned)


def test_trivial_tuning_adds_no_stats_keys():
    _, result = run_scenario(SMALL, SystemConfig.base())
    assert not any(k.startswith("tuning") for k in result.engine.stats)


def test_nontrivial_tuning_surfaces_in_stats():
    tuning = EngineTuning.parse("fusion+batch:2")
    _, result = run_scenario(SMALL, SystemConfig.confidential(),
                             tuning=tuning)
    assert result.engine.stats["tuning"] == "fusion+batch:2"
    assert result.engine.stats["tuning_fused_launches"] >= 0
    assert result.engine.stats["tuning_token_flushes"] > 0


# ---------------------------------------------------------------------------
# grammar


def test_parse_full_pipeline_roundtrip():
    text = "fusion+overlap:2+batch:4+staging+quant:awq:8"
    tuning = EngineTuning.parse(text)
    assert tuning.describe() == text
    assert tuning == EngineTuning(
        fuse_step_kernels=True, token_flush_every=4, d2h_streams=2,
        split_swap_staging=True, quant="awq", kv_bits=8,
    )


def _repo_pipelines():
    texts = [text for _, text in LADDER]
    texts += ["naive" if k == 1 else f"batch:{k}" for k in FLUSH_SWEEP]
    for grid in CANDIDATES:
        texts += enumerate_pipelines(TuneSpec(grid=grid))
    return texts


def test_describe_inverts_parse_on_every_repo_pipeline():
    texts = _repo_pipelines()
    assert [t for t in texts if EngineTuning.parse(t).describe() != t] == []


def test_parse_defaults_per_family():
    tuning = EngineTuning.parse("overlap+batch+quant")
    assert tuning.d2h_streams == 2
    assert tuning.token_flush_every == 4
    assert (tuning.quant, tuning.kv_bits) == ("awq", 8)


@pytest.mark.parametrize("text", [
    "bogus", "fusion+fusion", "overlap:1", "overlap:99", "batch:0",
    "batch:x", "quant:int3", "quant:awq:5", "fusion:2", "staging:1",
    "+fusion", "fusion++batch",
])
def test_parse_rejects_bad_specs(text):
    with pytest.raises(TuningError):
        EngineTuning.parse(text)


def test_parse_is_order_independent_for_disjoint_families():
    a = EngineTuning.parse("fusion+staging")
    assert a == EngineTuning.parse("staging+fusion")
    assert a.describe() == "fusion+staging"


def test_accuracy_metadata_flows_through_pipeline():
    assert EngineTuning().accuracy_drop_pct == 0.0
    tuning = EngineTuning.parse("fusion+quant:awq:8")
    assert tuning.accuracy_drop_pct == pytest.approx(0.4)


def test_engine_rejects_out_of_range_tuning():
    for bad in (
        dict(token_flush_every=0),
        dict(d2h_streams=99),
        dict(fuse_step_kernels="no"),
        dict(split_swap_staging=0),
        dict(token_flush_every=True),
        dict(d2h_streams=2.0),
        dict(kv_bits=8.0),
        dict(quant=["awq"]),
    ):
        with pytest.raises(TuningError):
            run_scenario(SMALL, tuning=EngineTuning(**bad))


# ---------------------------------------------------------------------------
# properties over any valid tuning


TINY = ScenarioSpec(rate_rps=12.0, duration_ns=units.NS_PER_SEC // 5)

tunings = st.builds(
    EngineTuning,
    fuse_step_kernels=st.booleans(),
    token_flush_every=st.integers(min_value=1, max_value=8),
    d2h_streams=st.integers(min_value=1, max_value=4),
    split_swap_staging=st.booleans(),
    quant=st.sampled_from(["bf16", "awq"]),
    kv_bits=st.sampled_from([4, 8, 16]),
)


@settings(max_examples=12, deadline=None)
@given(tuning=tunings, cc=st.booleans())
def test_any_tuning_preserves_ledger_invariant(tuning, cc):
    """The engine's drain-time LifecycleLedger.check_complete() raises
    on any lost request, so a clean run IS the invariant; the report
    must additionally account for every offered request exactly once."""
    config = SystemConfig.confidential() if cc else SystemConfig.base()
    _, result = run_scenario(TINY, config, tuning=tuning)
    report = result.report
    assert report["offered"] == result.requests
    assert report["offered"] == (
        report["completed"] + report["rejected"]
        + report["shed"] + report["failed"]
    )
    # tuned engines change costs, never the request population
    assert result.arrival_digest == run_scenario(TINY, config)[1].arrival_digest


@given(tuning=tunings)
def test_parse_inverts_describe(tuning):
    assert EngineTuning.parse(tuning.describe()) == tuning
