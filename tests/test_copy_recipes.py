"""A runtime plans each distinct copy once, and the recipe is exact.

``CudaRuntime`` keeps one copy recipe (cost plan plus pre-shaped stage
spans) per ``(copy_kind, size, memory, cold)`` key.  On an sc CC run
(blocking copies) and a 1 s CC serving run whose ``overlap:2`` token
flushes take the ``memcpy_async`` path, ``plan_copy`` must run once per
distinct key per runtime, and every span row must equal the row of the
same run with the recipes forgotten before each copy.
"""

from collections import Counter

import pytest

from repro import units
from repro.config import SystemConfig
from repro.cuda import run_app
from repro.cuda import runtime as runtime_module
from repro.cuda.runtime import CudaRuntime
from repro.serve import EngineTuning, ScenarioSpec, run_scenario
from repro.workloads import CATALOG


class _Forgetful(dict):
    """A recipe dict emptied before each copy's lookup."""

    def get(self, key, default=None):
        self.clear()
        return default


def _sc_cc():
    return run_app(
        CATALOG["sc"].app(False), SystemConfig.confidential(seed=42), label="sc"
    )[0]


def _serving_overlap_cc():
    spec = ScenarioSpec(rate_rps=16.0, duration_ns=units.NS_PER_SEC, seed=7)
    trace, _ = run_scenario(
        spec, SystemConfig.confidential(), tuning=EngineTuning.parse("overlap:2")
    )
    return trace


def _instrumented(monkeypatch, run, forget=False):
    """Run ``run`` counting ``plan_copy`` calls; returns the trace, the
    planned keys in call order and every runtime the run built."""
    planned, runtimes = [], []
    plan_copy, init = runtime_module.plan_copy, CudaRuntime.__init__

    def counting_plan_copy(config, *key):
        planned.append(key)
        return plan_copy(config, *key)

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if forget:
            self._recipes = _Forgetful()
        runtimes.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(runtime_module, "plan_copy", counting_plan_copy)
        patch.setattr(CudaRuntime, "__init__", tracking_init)
        trace = run()
    return trace, planned, runtimes


@pytest.mark.parametrize("run, copy_api", [
    pytest.param(_sc_cc, "cudaMemcpy", id="sc-cc"),
    pytest.param(_serving_overlap_cc, "cudaMemcpyAsync", id="serve-cc-overlap"),
])
def test_each_distinct_copy_is_planned_once(monkeypatch, run, copy_api):
    trace, planned, runtimes = _instrumented(monkeypatch, run)
    copies = sum(1 for span in trace.spans if span.name == copy_api)
    recipes = Counter(key for rt in runtimes for key in rt._recipes)
    assert copies > len(planned) > 0
    # One plan per key per runtime: every call is a recipe kept, and no
    # runtime planned a key twice.
    assert Counter(planned) == recipes
    for rt in runtimes:
        for key, recipe in rt._recipes.items():
            assert recipe.plan == runtime_module.plan_copy(rt.config, *key)

    forgetful, replanned, _ = _instrumented(monkeypatch, run, forget=True)
    assert len(replanned) > len(planned)
    assert list(forgetful.spans) == list(trace.spans)
    assert forgetful.to_chrome_trace() == trace.to_chrome_trace()
