"""The benchmark's per-layer ledger still finds what it wraps.

``perfbench.ledger`` names its targets as ``module:qualname`` strings
(``LAYER_TARGETS``, ``COUNTED``), so renaming a wrapped class or method
in ``src/`` breaks only a traced benchmark run.  These tests resolve
every target through the ledger itself, and install and restore the
whole ledger around one small run.
"""

import importlib
import inspect
import sys

import pytest

from perfbench import ledger
from repro.config import SystemConfig
from repro.cuda import run_app
from repro.workloads import CATALOG

TARGETS = [
    (layer, target, False)
    for layer, targets in ledger.LAYER_TARGETS.items()
    for target in targets
] + [("sim", target, True) for target in ledger.COUNTED]


@pytest.mark.parametrize(
    "layer,target,counted", TARGETS, ids=[t for _, t, _ in TARGETS]
)
def test_target_resolves_to_something_wrappable(layer, target, counted):
    probe = ledger.Ledger()
    try:
        probe._install(target, layer, counted)
        assert probe._undo, f"{target}: nothing wrapped"
    finally:
        probe._uninstall()


def _wrappable_state():
    """Every attribute a ledger may replace: the dicts of the target
    classes and of the loaded ``repro`` modules."""
    state = {}
    for _, target, _ in TARGETS:
        module_name, _, qualname = target.partition(":")
        owner = importlib.import_module(module_name)
        for part in qualname.split("."):
            if inspect.isclass(owner):
                state[owner] = dict(vars(owner))
            owner = getattr(owner, part)
        if inspect.isclass(owner):
            state[owner] = dict(vars(owner))
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            state[module] = dict(vars(module))
    return state


def _run():
    run_app(CATALOG["gemm"].app(False), SystemConfig.confidential(seed=42))


def test_ledger_installs_and_restores():
    _run()  # import what the run imports lazily before the snapshot
    before = _wrappable_state()
    with ledger.Ledger() as installed:
        assert _wrappable_state() != before
        installed.begin()
        _run()
        snapshot = installed.end()
    for owner, attrs in before.items():
        changed = [k for k, v in attrs.items() if vars(owner).get(k) is not v]
        assert not changed, f"{owner}: {changed} not restored"
    for layer in ("sim", "cuda", "tdx", "gpu", "obs", "profiler"):
        assert snapshot.layer_calls[layer] > 0, layer
