"""Exact work counts for a few small cells, pinned like goldens.

Output digests prove that a change kept the simulated timeline; they
say nothing about how much work the simulator did to produce it.  This
test pins the deterministic work counters of three small app runs:
events put on the kernel's queue (``Simulator.scheduled``), processes
started (``Process`` constructions), span records, ``Trace`` events
and kernel launches.  A change that adds
events or spans by accident fails here even when every golden holds.

A change that moves a count on purpose regenerates the snapshot with

    PYTHONPATH=src python tests/test_event_counts.py --update

and says in its change notes which count moved and why.
"""

import json
import os
import sys

import pytest

from repro.check.differ import Tolerance, diff_payloads
from repro.config import SystemConfig
from repro.cuda import Machine
from repro.sim import Process
from repro.workloads import CATALOG

SNAPSHOT = os.path.join(os.path.dirname(__file__), "data", "event_counts.json")

#: cell id -> (app, CC on, managed memory)
CELLS = {
    "sc|cc|explicit": ("sc", True, False),
    "2mm|cc|uvm": ("2mm", True, True),
    "2mm|base|uvm": ("2mm", False, True),
}


def measure(cell: str) -> dict:
    app, cc, uvm = CELLS[cell]
    config = SystemConfig.confidential() if cc else SystemConfig.base()
    started = []
    init = Process.__init__

    def counting_init(self, sim, generator):
        started.append(self)
        init(self, sim, generator)

    Process.__init__ = counting_init
    try:
        machine = Machine(config, label=app)
        machine.run(CATALOG[app].app(uvm))
    finally:
        Process.__init__ = init
    return {
        "sim.processes": len(started),
        "sim.scheduled": machine.sim.scheduled,
        "spans": len(machine.trace.spans),
        "trace_events": len(machine.trace),
        "launches": len(machine.trace.launches()),
    }


def _snapshot() -> dict:
    with open(SNAPSHOT) as handle:
        return json.load(handle)


def test_snapshot_covers_every_cell():
    assert sorted(_snapshot()) == sorted(CELLS)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_work_counts_match_snapshot(cell):
    golden = _snapshot()[cell]
    current = measure(cell)
    differences = diff_payloads(golden, current, Tolerance(rel=0.0, abs=0.0))
    assert not differences, "\n".join(
        f"{cell} {d.path}: {d.golden} -> {d.current}" for d in differences
    )


if __name__ == "__main__":
    counts = {cell: measure(cell) for cell in sorted(CELLS)}
    text = json.dumps(counts, indent=1, sort_keys=True) + "\n"
    if "--update" in sys.argv[1:]:
        with open(SNAPSHOT, "w") as handle:
            handle.write(text)
    sys.stdout.write(text)
