"""Fault plans: *what* fails, *where*, and the platform cost model of
failure — all frozen dataclasses so they compose into
:class:`repro.config.SystemConfig` and keep runs reproducible.

A :class:`FaultPlan` maps named injection sites to a
:class:`SiteFaults` spec.  Sites are string constants so external JSON
plans stay readable::

    {
      "sites": {
        "crypto.gcm_tag":  {"rate": 0.01},
        "tdx.hypercall":   {"rate": 0.002, "max_faults": 4},
        "spdm.attest":     {"schedule": [0]}
      }
    }

``rate`` is the per-occurrence probability of injection (drawn from a
per-site RNG substream seeded by ``SystemConfig.seed``), ``schedule``
lists explicit zero-based occurrence indices that must fail (useful
for regression tests), and ``max_faults`` caps total injections at the
site.  The default plan is empty: with no active site the injector
never touches an RNG, guaranteeing zero overhead and bit-identical
traces versus a build without the fault layer.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

from .. import units


# -- injection-site names ----------------------------------------------------

GCM_TAG = "crypto.gcm_tag"  # AES-GCM tag mismatch on a staged copy
DMA = "gpu.dma"  # transient PCIe/DMA transaction error
HYPERCALL = "tdx.hypercall"  # hypercall/seamcall timeout
BOUNCE_POOL = "tdx.bounce_pool"  # swiotlb bounce-pool exhaustion
SPDM = "spdm.attest"  # SPDM attestation message corruption
LINK = "link.transfer"  # secure peer-link MAC failure mid-collective

ALL_SITES: Tuple[str, ...] = (GCM_TAG, DMA, HYPERCALL, BOUNCE_POOL, SPDM, LINK)


@dataclass(frozen=True)
class SiteFaults:
    """Fault behaviour of one injection site."""

    rate: float = 0.0
    schedule: Tuple[int, ...] = ()
    max_faults: Optional[int] = None

    @property
    def active(self) -> bool:
        return self.rate > 0.0 or bool(self.schedule)

    def validate(self, site: str) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"{site}: fault rate must be in [0, 1]")
        if any((not isinstance(i, int)) or i < 0 for i in self.schedule):
            raise ValueError(f"{site}: schedule indices must be ints >= 0")
        if self.max_faults is not None and self.max_faults < 0:
            raise ValueError(f"{site}: max_faults must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic description of which sites fail and how often.

    Stored as a sorted tuple of (site, spec) pairs so the plan is
    hashable, order-independent, and safely shareable between frozen
    configs.
    """

    sites: Tuple[Tuple[str, SiteFaults], ...] = ()

    @staticmethod
    def none() -> "FaultPlan":
        """The empty plan: no injection, zero overhead."""
        return FaultPlan()

    @staticmethod
    def uniform(
        rate: float,
        sites: Iterable[str] = ALL_SITES,
        max_faults: Optional[int] = None,
    ) -> "FaultPlan":
        """Same per-occurrence rate at every named site."""
        return FaultPlan.from_mapping(
            {site: SiteFaults(rate=rate, max_faults=max_faults) for site in sites}
        )

    @staticmethod
    def from_mapping(mapping: Mapping[str, SiteFaults]) -> "FaultPlan":
        return FaultPlan(sites=tuple(sorted(mapping.items())))

    # -- queries ---------------------------------------------------------

    def spec_for(self, site: str) -> Optional[SiteFaults]:
        for name, spec in self.sites:
            if name == site:
                return spec
        return None

    @property
    def active(self) -> bool:
        return any(spec.active for _name, spec in self.sites)

    def validate(self) -> None:
        seen = set()
        for name, spec in self.sites:
            if name in seen:
                raise ValueError(f"duplicate fault site {name!r}")
            seen.add(name)
            if name not in ALL_SITES:
                raise ValueError(
                    f"unknown fault site {name!r}; known: {sorted(ALL_SITES)}"
                )
            spec.validate(name)

    # -- (de)serialization ------------------------------------------------

    def to_json(self) -> str:
        payload: Dict[str, Dict] = {}
        for name, spec in self.sites:
            entry: Dict = {}
            if spec.rate:
                entry["rate"] = spec.rate
            if spec.schedule:
                entry["schedule"] = list(spec.schedule)
            if spec.max_faults is not None:
                entry["max_faults"] = spec.max_faults
            payload[name] = entry
        return json.dumps({"sites": payload}, indent=1)

    @staticmethod
    def from_json(text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid fault-plan JSON: {exc}") from exc
        if not isinstance(payload, dict) or not isinstance(
            payload.get("sites", {}), dict
        ):
            raise ValueError("fault plan must be an object with a 'sites' map")
        mapping: Dict[str, SiteFaults] = {}
        for name, entry in payload.get("sites", {}).items():
            if not isinstance(entry, dict):
                raise ValueError(f"site {name!r}: spec must be an object")
            mapping[name] = SiteFaults(
                rate=float(entry.get("rate", 0.0)),
                schedule=tuple(int(i) for i in entry.get("schedule", ())),
                max_faults=entry.get("max_faults"),
            )
        plan = FaultPlan.from_mapping(mapping)
        plan.validate()
        return plan

    @staticmethod
    def load(path: str) -> "FaultPlan":
        with open(path) as handle:
            return FaultPlan.from_json(handle.read())


@dataclass(frozen=True)
class FaultModelSpec:
    """Platform cost model of failure and recovery (what a fault *costs*,
    as opposed to the :class:`FaultPlan`, which says what *fails*)."""

    # Guest-side watchdog budget before a hypercall round trip is
    # declared timed out and reissued.
    hypercall_timeout_ns: int = units.us(45.0)
    # A DMA error aborts the transaction partway through; this fraction
    # of the transfer is wasted before the completion error surfaces.
    dma_error_detect_fraction: float = 0.5
    # PCIe link recovery / descriptor requeue before the retry starts.
    dma_retrain_ns: int = units.us(12.0)
    # AES-GCM authenticates at end-of-message, so a tag mismatch wastes
    # this fraction of the transfer before re-staging (1.0 = the whole
    # copy must be encrypted and DMAed again).
    gcm_refetch_fraction: float = 1.0
    # Degraded staging-chunk size once the bounce pool is exhausted.
    bounce_degraded_chunk_bytes: int = 256 * units.KiB
    # Teardown + session-state reset before an SPDM re-attestation.
    spdm_restart_ns: int = units.us(120.0)

    def validate(self) -> None:
        problems = []
        if not 0.0 < self.dma_error_detect_fraction <= 1.0:
            problems.append("dma_error_detect_fraction must be in (0, 1]")
        if not 0.0 < self.gcm_refetch_fraction <= 1.0:
            problems.append("gcm_refetch_fraction must be in (0, 1]")
        for name in (
            "hypercall_timeout_ns",
            "dma_retrain_ns",
            "bounce_degraded_chunk_bytes",
            "spdm_restart_ns",
        ):
            if getattr(self, name) <= 0:
                problems.append(f"{name} must be positive")
        if problems:
            raise ValueError("invalid FaultModelSpec: " + "; ".join(problems))

    def replace(self, **changes) -> "FaultModelSpec":
        return dataclasses.replace(self, **changes)
