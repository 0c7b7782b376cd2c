"""Pin the Chrome trace export of every catalogue app run.

Usage::

    PYTHONPATH=src python3 .github/scripts/check_exports.py           # check
    PYTHONPATH=src python3 .github/scripts/check_exports.py --update  # re-pin

Runs every ``CATALOG`` app in base and CC mode, with explicit copies and
with UVM, at seed 42 (132 runs, a few seconds), and compares the SHA-256
of each ``Trace.to_chrome_trace()`` with ``tests/data/catalogue_exports.json``.
Each run that drifted is named as ``app|mode|uvm``; the exit status is 1
if any did.  Only a change that alters an export on purpose re-pins.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from repro.config import resolve_system_configs
from repro.cuda import Machine
from repro.workloads import CATALOG

ROOT = Path(__file__).resolve().parents[2]
PINS = ROOT / "tests" / "data" / "catalogue_exports.json"
SEED = 42


def export_digests() -> dict:
    digests = {}
    for name, info in CATALOG.items():
        for cc in (False, True):
            config = resolve_system_configs(cc=cc, seed=SEED)
            for uvm in (False, True):
                machine = Machine(config, label=name)
                machine.run(info.app(uvm))
                export = machine.trace.to_chrome_trace().encode()
                key = f"{name}|{'cc' if cc else 'base'}|{'uvm' if uvm else 'explicit'}"
                digests[key] = hashlib.sha256(export).hexdigest()
    return digests


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update", action="store_true", help="rewrite the pinned digests"
    )
    args = parser.parse_args(argv)
    digests = export_digests()
    if args.update:
        PINS.write_text(
            json.dumps({"seed": SEED, "exports": digests}, indent=1, sort_keys=True)
            + "\n"
        )
        print(f"pinned {len(digests)} exports in {PINS.relative_to(ROOT)}")
        return 0
    pinned = json.loads(PINS.read_text())["exports"]
    runs = set(pinned) | set(digests)
    drifted = sorted(key for key in runs if pinned.get(key) != digests.get(key))
    for key in drifted:
        print(f"DRIFT {key}")
    print(f"catalogue exports: {len(runs) - len(drifted)}/{len(runs)} match")
    return 1 if drifted else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
