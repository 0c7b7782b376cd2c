"""Span nesting invariants on real runs, for any recorder layout.

* A span with a parent lies within its parent's window.
* With-block spans close in LIFO order per scope: the span a block
  closes is the innermost open one of its scope, so no later span is
  parented to a closed one.

Checked on catalogue apps (base, CC, CC with UVM, a faulted CC run) and
a 1 s CC serving run with request telemetry.
"""

import pytest

from repro import units
from repro.config import SystemConfig
from repro.cuda import run_app
from repro.figures.ext_fault_serving import fault_plan_for
from repro.obs.spans import _SpanContext
from repro.serve import ScenarioSpec, run_scenario
from repro.workloads import CATALOG


@pytest.fixture
def lifo(monkeypatch):
    """Shadow stacks per (recorder, scope) around every with-block:
    returns ``[closes checked, violations]``."""
    state = [0, []]
    shadow = {}
    enter, exit_ = _SpanContext.__enter__, _SpanContext.__exit__

    def checked_enter(self):
        handle = enter(self)
        shadow.setdefault((id(self._recorder), self._scope), []).append(self)
        return handle

    def checked_exit(self, *exc):
        stack = shadow[(id(self._recorder), self._scope)]
        state[0] += 1
        if stack[-1] is not self:
            state[1].append((self._scope, self._name))
            stack.remove(self)
        else:
            stack.pop()
        return exit_(self, *exc)

    monkeypatch.setattr(_SpanContext, "__enter__", checked_enter)
    monkeypatch.setattr(_SpanContext, "__exit__", checked_exit)
    return state


def _window_violations(trace):
    """(parent-child pairs, pairs whose child leaves the parent's window)."""
    by_id = {span.span_id: span for span in trace.spans}
    pairs, bad = 0, []
    for span in by_id.values():
        parent = by_id.get(span.parent_id)
        if parent is None:
            continue
        pairs += 1
        if not parent.start_ns <= span.start_ns <= span.end_ns <= parent.end_ns:
            bad.append((parent.name, span.name, span.span_id))
    return pairs, bad


def _app(name, cc, uvm=False, faults=None):
    config = SystemConfig.confidential(seed=42) if cc else SystemConfig.base(seed=42)
    if faults is not None:
        config = config.replace(faults=faults)
    return run_app(CATALOG[name].app(uvm), config, label=name)[0]


RUNS = {
    "srad|base": lambda: _app("srad", False),
    "srad|cc": lambda: _app("srad", True),
    "srad|cc|uvm": lambda: _app("srad", True, uvm=True),
    "gaussian|cc|uvm": lambda: _app("gaussian", True, uvm=True),
    "sc|cc": lambda: _app("sc", True),
    "srad|cc|faults": lambda: _app("srad", True, faults=fault_plan_for(0.05)),
    "serve|cc|telemetry": lambda: run_scenario(
        ScenarioSpec(rate_rps=8.0, duration_ns=units.NS_PER_SEC),
        SystemConfig.confidential(), telemetry=True,
    )[0],
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_children_nest_and_blocks_close_lifo(run, lifo):
    trace = RUNS[run]()
    pairs, bad = _window_violations(trace)
    assert pairs > 0
    assert bad == []
    closes, violations = lifo
    assert closes > 0
    assert violations == []
