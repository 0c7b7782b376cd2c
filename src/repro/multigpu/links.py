"""Multi-GPU interconnect substrate (paper Sec. VIII direction:
"scaling counter-mode encryption for multi-GPU networks" [83]/[132]).

Models a node with N GPUs joined by NVLink-class peer links, and
secure channels over those links: counter-mode encryption with
per-message authentication, where the security *metadata* (counters,
MACs) is the scaling bottleneck the HPCA'24 work addresses.

Two metadata policies are modeled:

* ``naive``   — counter fetch/verify and MAC check per 256 B flit
  group: large extra metadata traffic and per-chunk latency.
* ``batched`` — dynamic batched metadata (the paper's cited
  optimization): counters are updated per large batch and MACs cover
  whole chunks, shrinking overhead to a few percent.

Channels are also *functional*: payloads are really encrypted with
AES-CTR under a per-link key and authenticated with GHASH-derived
MACs, with monotonic-counter replay protection that tests can poke.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Tuple

from .. import units
from ..crypto import AESCTR, GHASH


class LinkSecurity(Enum):
    NONE = "none"  # base mode: HBM-to-HBM trusted (single enclave)
    NAIVE = "naive"  # per-flit-group counter/MAC metadata
    BATCHED = "batched"  # dynamic batched metadata management


@dataclass(frozen=True)
class LinkSpec:
    """One direction of a peer link (NVLink4-class by default)."""

    bandwidth: float = 400.0 * units.GB
    latency_ns: int = units.us(2.0)
    # Metadata policies.  MAC verification pipelines with the transfer
    # (hardware GMAC at line rate), so each policy costs (a) extra
    # wire traffic for counters/MACs, (b) a throughput efficiency hit
    # from counter-fetch stalls, and (c) a one-time verification tail.
    naive_metadata_overhead: float = 0.14
    naive_efficiency: float = 0.68  # per-flit-group counter fetches stall
    naive_auth_tail_ns: int = units.us(1.2)
    batched_metadata_overhead: float = 0.025
    batched_efficiency: float = 0.985  # batched counters rarely stall
    batched_auth_tail_ns: int = units.us(0.8)


def transfer_time_ns(spec: LinkSpec, size: int, security: LinkSecurity) -> int:
    """Time to move ``size`` bytes over one link under a policy."""
    if size <= 0:
        return 0
    if security is LinkSecurity.NONE:
        return spec.latency_ns + units.transfer_time_ns(size, spec.bandwidth)
    if security is LinkSecurity.NAIVE:
        overhead = spec.naive_metadata_overhead
        efficiency = spec.naive_efficiency
        auth_tail = spec.naive_auth_tail_ns
    else:
        overhead = spec.batched_metadata_overhead
        efficiency = spec.batched_efficiency
        auth_tail = spec.batched_auth_tail_ns
    wire_bytes = int(size * (1.0 + overhead))
    return (
        spec.latency_ns
        + auth_tail
        + units.transfer_time_ns(wire_bytes, spec.bandwidth * efficiency)
    )


def effective_bandwidth_gbps(
    spec: LinkSpec, size: int, security: LinkSecurity
) -> float:
    return units.bandwidth_gb_per_sec(size, transfer_time_ns(spec, size, security))


class ReplayError(RuntimeError):
    """Counter regression: a replayed or reordered secure message."""


class AuthFailure(RuntimeError):
    """MAC verification failed (tampered link traffic)."""


class SecureChannel:
    """Functional counter-mode channel between two GPUs.

    Messages are AES-CTR encrypted under a per-channel key with a
    monotonically increasing counter as the IV; a GHASH-over-CTR MAC
    (GMAC construction) authenticates ciphertext+counter.  The receiver
    enforces strict counter monotonicity (replay protection).
    """

    def __init__(self, key: bytes, channel_id: int = 0) -> None:
        self._ctr = AESCTR(key)
        self._mac_key = hmac.digest(key, b"gmac-subkey", "sha256")[:16]
        self.channel_id = channel_id
        self.send_counter = 0
        self.recv_counter = -1

    def _nonce(self, counter: int) -> bytes:
        return self.channel_id.to_bytes(4, "big") + counter.to_bytes(12, "big")

    def _mac(self, counter: int, ciphertext: bytes) -> bytes:
        ghash = GHASH(self._mac_key)
        ghash.update(self._nonce(counter))
        ghash.update(ciphertext)
        return ghash.digest()

    def seal(self, plaintext: bytes) -> Tuple[int, bytes, bytes]:
        """Encrypt+authenticate; returns (counter, ciphertext, mac)."""
        counter = self.send_counter
        self.send_counter += 1
        ciphertext = self._ctr.crypt(self._nonce(counter), plaintext)
        return counter, ciphertext, self._mac(counter, ciphertext)

    def open(self, counter: int, ciphertext: bytes, mac: bytes) -> bytes:
        """Verify monotonicity + MAC, then decrypt."""
        if counter <= self.recv_counter:
            raise ReplayError(
                f"counter {counter} <= last seen {self.recv_counter}"
            )
        if self._mac(counter, ciphertext) != mac:
            raise AuthFailure("link message MAC mismatch")
        self.recv_counter = counter
        return self._ctr.crypt(self._nonce(counter), ciphertext)


@dataclass
class MultiGPUNode:
    """N GPUs with all-to-all peer links and per-pair secure channels."""

    num_gpus: int = 4
    link: LinkSpec = field(default_factory=LinkSpec)
    session_key: bytes = b"multi-gpu-link-key"

    def __post_init__(self) -> None:
        if self.num_gpus < 2:
            raise ValueError("a multi-GPU node needs at least 2 GPUs")
        self._channels: Dict[Tuple[int, int], SecureChannel] = {}

    def channel(self, src: int, dst: int) -> SecureChannel:
        """The (directional) secure channel between two GPUs."""
        self._check(src)
        self._check(dst)
        if src == dst:
            raise ValueError("no self-links")
        key = (src, dst)
        if key not in self._channels:
            channel_key = hmac.digest(
                self.session_key, bytes([src, dst]), "sha256"
            )[:16]
            self._channels[key] = SecureChannel(
                channel_key, channel_id=src * 256 + dst
            )
        return self._channels[key]

    def _check(self, gpu: int) -> None:
        if not 0 <= gpu < self.num_gpus:
            raise ValueError(f"gpu {gpu} out of range")
