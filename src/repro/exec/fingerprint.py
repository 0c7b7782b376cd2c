"""Cache-key ingredients for the experiment harness.

A cached figure result is valid only while everything that could
change its payload is unchanged.  Three fingerprints capture that:

``calibration_hash()``
    The paper's reference numbers (:data:`repro.calibration.PAPER`),
    canonically serialized.  Recalibrating a target invalidates every
    figure that might compare against it.

``config_hash(config)``
    A resolved :class:`~repro.config.SystemConfig` — the full frozen
    dataclass tree (specs, fault plan, retry policy, seed) walked into
    canonical JSON.  The grid hashes the two configs figures actually
    instantiate, ``SystemConfig.base()`` and
    ``SystemConfig.confidential()``, so editing any default cost-model
    knob re-simulates everything.

``cell_fingerprint(module)``
    Per-figure code fingerprint: the figure module's own source, the
    shared ``figures/common.py``, and a package-wide fingerprint of the
    simulator core (every ``repro`` source file *except* the figure
    modules, the CLI, and this harness).  Editing one figure therefore
    re-runs only that figure; editing the core re-runs the grid;
    editing the harness itself re-runs nothing.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
from functools import lru_cache
from typing import Any, Iterable, Tuple

from .. import calibration
from ..config import SystemConfig, grid_system_configs

_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Source trees whose edits cannot change a figure payload.  The check
# package (gating) never feeds the simulator, with one exception: the
# paper-target table is figure-table code, so cell_fingerprint() hashes
# it explicitly below.  The mitigation layer (optim) and its search
# driver (tune) are scoped out of the core too: only the figures that
# actually import them (``_OPTIM_DEPENDENT_MODULES``) fold
# ``optim_fingerprint()`` into their cell key, so editing a pass or the
# tuner re-simulates the recovered-serving figure without invalidating
# the rest of the grid.
_CORE_EXCLUDED_DIRS = ("figures", "exec", "check", "optim", "tune")
_CORE_EXCLUDED_FILES = ("cli.py",)

#: Figure modules whose payloads depend on :mod:`repro.optim` (they
#: import its passes); keep in sync with the figure modules' imports —
#: test_exec.py's invalidation matrix enforces it.
_OPTIM_DEPENDENT_MODULES = ("ext_recovered_serving",)


def _sha256(parts: Iterable[bytes]) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
        digest.update(b"\x00")
    return digest.hexdigest()


def canonical(value: Any) -> Any:
    """Reduce a config-tree value to JSON-serializable canonical form."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {"__dataclass__": type(value).__name__, **fields}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in sorted(value.items())}
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, float):
        # repr() round-trips exactly; float('1.0') vs 1.0 must not differ.
        return repr(value)
    return value


def canonical_json(value: Any) -> str:
    return json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))


def config_hash(config: SystemConfig) -> str:
    """Hash of one fully-resolved system configuration."""
    return _sha256([canonical_json(config).encode()])


@lru_cache(maxsize=None)
def grid_config_hash() -> str:
    """Hash of the two configs the figure grid instantiates (the
    shared :func:`repro.config.grid_system_configs` pair — the same one
    golden snapshots and perf baselines stamp into their metadata)."""
    base, cc = grid_system_configs()
    return _sha256([
        config_hash(base).encode(),
        config_hash(cc).encode(),
    ])


@lru_cache(maxsize=None)
def calibration_hash() -> str:
    targets = {
        key: (target.value, target.source, target.kind)
        for key, target in calibration.PAPER.items()
    }
    return _sha256([canonical_json(targets).encode()])


def _read_source(path: str) -> bytes:
    """One source file's bytes (monkeypatchable seam for tests)."""
    with open(path, "rb") as handle:
        return handle.read()


def _core_source_files() -> Tuple[str, ...]:
    paths = []
    for dirpath, dirnames, filenames in os.walk(_PACKAGE_ROOT):
        rel = os.path.relpath(dirpath, _PACKAGE_ROOT)
        top = rel.split(os.sep, 1)[0]
        if top in _CORE_EXCLUDED_DIRS:
            dirnames[:] = []
            continue
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            if rel == "." and name in _CORE_EXCLUDED_FILES:
                continue
            paths.append(os.path.join(dirpath, name))
    return tuple(sorted(paths))


@lru_cache(maxsize=None)
def package_fingerprint() -> str:
    """Fingerprint of the simulator core (everything but figures/CLI/exec)."""
    files = _core_source_files()
    return _sha256(
        [os.path.relpath(p, _PACKAGE_ROOT).encode() for p in files]
        + [_read_source(p) for p in files]
    )


def _optim_source_files() -> Tuple[str, ...]:
    paths = []
    for tree in ("optim", "tune"):
        root = os.path.join(_PACKAGE_ROOT, tree)
        if not os.path.isdir(root):
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".py"):
                    paths.append(os.path.join(dirpath, name))
    return tuple(sorted(paths))


@lru_cache(maxsize=None)
def optim_fingerprint() -> str:
    """Fingerprint of the mitigation-pass layer and the tune driver —
    folded into the cell key only for ``_OPTIM_DEPENDENT_MODULES``."""
    files = _optim_source_files()
    return _sha256(
        [os.path.relpath(p, _PACKAGE_ROOT).encode() for p in files]
        + [_read_source(p) for p in files]
    )


def _figure_path(module: str) -> str:
    return os.path.join(_PACKAGE_ROOT, "figures", f"{module}.py")


def cell_fingerprint(module: str) -> str:
    """Per-figure code fingerprint (module + shared table code + the
    paper-target table + core, plus the optim/tune layer for the
    figures that import it)."""
    targets_path = os.path.join(_PACKAGE_ROOT, "check", "paper_targets.py")
    parts = [
        module.encode(),
        _read_source(_figure_path(module)),
        _read_source(_figure_path("common")),
        _read_source(targets_path),
        package_fingerprint().encode(),
    ]
    if module in _OPTIM_DEPENDENT_MODULES:
        parts.append(optim_fingerprint().encode())
    return _sha256(parts)


def clear_caches() -> None:
    """Forget memoized fingerprints (used after monkeypatching sources)."""
    grid_config_hash.cache_clear()
    calibration_hash.cache_clear()
    package_fingerprint.cache_clear()
    optim_fingerprint.cache_clear()
