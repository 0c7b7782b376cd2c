"""CPU TEE substrate: trust-domain context, TDX cost primitives and
SPDM attestation (paper Sec. II-A, Fig. 2)."""

from .domain import GuestContext
from .spdm import SpdmError, SpdmSession, attest_gpu

__all__ = [
    "GuestContext",
    "SpdmError",
    "SpdmSession",
    "attest_gpu",
]
