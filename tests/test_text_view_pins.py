"""The ``trace summarize`` and ``trace diff`` texts, pinned by digest.

These reports print both attribution views (``core.breakdown``'s
wall-clock table and, for a serving trace, the per-request blame), the
Sec.-V model terms and the layer table.  Each text is reduced to a
SHA-256 and compared with ``tests/data/text_view_pins.json``, so a
refactor of any view underneath them must keep every printed byte.

A change that alters a report on purpose regenerates the pins with

    PYTHONPATH=src python tests/test_text_view_pins.py --update

and says in its change notes which text moved and why.
"""

import hashlib
import json
import os
import sys

import pytest

from repro import units
from repro.config import SystemConfig
from repro.cuda import Machine
from repro.figures.ext_fault_serving import fault_plan_for
from repro.obs import summary
from repro.serve import ScenarioSpec, run_scenario
from repro.workloads import CATALOG

PINS = os.path.join(os.path.dirname(__file__), "data", "text_view_pins.json")


def _app_trace(name, cc, faults=None):
    config = SystemConfig.confidential() if cc else SystemConfig.base()
    if faults is not None:
        config = config.replace(faults=faults)
    machine = Machine(config, label=name)
    machine.run(CATALOG[name].app(False))
    return machine.trace


def _gemm_diff():
    base, cc = _app_trace("gemm", False), _app_trace("gemm", True)
    return summary.render_diff(summary.diff(base, cc))


def _serving_summary():
    spec = ScenarioSpec(rate_rps=8.0, duration_ns=units.NS_PER_SEC)
    trace, _ = run_scenario(spec, SystemConfig.confidential(), telemetry=True)
    return summary.summarize(trace)


#: pin name -> the text it digests
VIEWS = {
    "summarize|gemm|base": lambda: summary.summarize(_app_trace("gemm", False)),
    "summarize|gemm|cc": lambda: summary.summarize(_app_trace("gemm", True)),
    "diff|gemm": _gemm_diff,
    "summarize|srad|cc|faults": lambda: summary.summarize(
        _app_trace("srad", True, fault_plan_for(0.05))
    ),
    "summarize|sc|cc": lambda: summary.summarize(_app_trace("sc", True)),
    "summarize|serve|cc": _serving_summary,
}


def digest(name: str) -> str:
    return hashlib.sha256(VIEWS[name]().encode()).hexdigest()


def _pins() -> dict:
    with open(PINS) as handle:
        return json.load(handle)


def test_pins_cover_every_view():
    assert sorted(_pins()) == sorted(VIEWS)


@pytest.mark.parametrize("name", sorted(VIEWS))
def test_text_view_matches_pin(name):
    assert digest(name) == _pins()[name], f"{name} text drifted"


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: test_text_view_pins.py --update")
    with open(PINS, "w") as handle:
        json.dump({name: digest(name) for name in sorted(VIEWS)}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")
    print(f"pinned {len(VIEWS)} texts in {PINS}")
