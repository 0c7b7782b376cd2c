"""Deterministic fault-injection and recovery layer for the CC stack.

The paper dissects steady-state overheads; this subsystem adds the
*recovery* dimension a production confidential stack also pays:
AES-GCM tag failures forcing re-transfers, transient DMA/PCIe and
hypercall errors forcing retries, bounce-pool exhaustion forcing
chunked-staging degradation, and SPDM attestation failures forcing
re-attestation.  Injection is seeded and deterministic (driven by
``SystemConfig.seed``); every injected fault and retry is timed on the
simulated clock and recorded as a ``recovery`` span (the trace derives
its event), so the Fig.-1 style breakdown gains a recovery component.
"""

from .errors import (
    AttestationFault,
    BounceExhaustedFault,
    DmaFault,
    FatalFault,
    FaultError,
    GcmTagFault,
    HypercallTimeoutFault,
    LinkFault,
    TransientFault,
)
from .injector import FaultInjector, FaultRecord
from .plan import (
    ALL_SITES,
    BOUNCE_POOL,
    DMA,
    GCM_TAG,
    HYPERCALL,
    LINK,
    SPDM,
    FaultModelSpec,
    FaultPlan,
    SiteFaults,
)
from .retry import RetryPolicy

__all__ = [
    "ALL_SITES",
    "AttestationFault",
    "BOUNCE_POOL",
    "BounceExhaustedFault",
    "DMA",
    "DmaFault",
    "FatalFault",
    "FaultError",
    "FaultInjector",
    "FaultModelSpec",
    "FaultPlan",
    "FaultRecord",
    "GCM_TAG",
    "GcmTagFault",
    "HYPERCALL",
    "HypercallTimeoutFault",
    "LINK",
    "LinkFault",
    "RetryPolicy",
    "SPDM",
    "SiteFaults",
    "TransientFault",
]
