"""SPDM session establishment between the TD's driver and the GPU
(paper Sec. III: "NVIDIA utilizes Security Protocols and Data Models
(SPDM) to attest communication between the CPU and GPU over PCIe").

A functional model of the DMTF SPDM 1.1 flow the H100 CC bring-up
performs before any kernel can run:

    GET_VERSION -> GET_CAPABILITIES -> NEGOTIATE_ALGORITHMS ->
    GET_CERTIFICATE -> CHALLENGE -> KEY_EXCHANGE -> FINISH

Messages are real byte strings accumulated into a SHA-256 transcript
hash; the challenge/key-exchange authentication uses HMAC keyed with a
provisioned device secret (a documented simplification of the
certificate-chain signature — the *protocol shape*, transcript
binding, and key schedule are faithful; the asymmetric primitive is
not re-implemented).  Session keys come from an HKDF over the
transcript, mirroring SPDM's key schedule, and become the AES-GCM key
for the PCIe channel.

Timing: each request/response pair costs a PCIe round trip plus
responder-firmware processing, and in a TD every MMIO doorbell is
hypercall-mediated, so CC session setup is measurably slower — the
"time to first kernel" experiment in benchmarks/test_extensions.py.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Generator, Optional

from .. import units
from ..config import SystemConfig
from ..faults import SPDM as SPDM_SITE
from ..faults import FatalFault
from ..sim import Simulator
from .domain import GuestContext


class SpdmError(RuntimeError):
    """Protocol violation or failed verification."""


# Request/response codes (subset of DMTF DSP0274).
GET_VERSION = 0x84
GET_CAPABILITIES = 0xE1
NEGOTIATE_ALGORITHMS = 0xE3
GET_CERTIFICATE = 0x82
CHALLENGE = 0x83
KEY_EXCHANGE = 0xE4
FINISH = 0xE5

_RESPONSE_BIT = 0x40  # responses echo the code with bit 6 flipped

# Responder-side processing budgets per message (firmware crypto and
# certificate walking dominate).
_RESPONDER_NS = {
    GET_VERSION: units.us(40),
    GET_CAPABILITIES: units.us(60),
    NEGOTIATE_ALGORITHMS: units.us(80),
    GET_CERTIFICATE: units.us(900),  # chain read-out from fuses/flash
    CHALLENGE: units.us(650),  # measurement + signature
    KEY_EXCHANGE: units.us(780),  # DHE + signature
    FINISH: units.us(240),
}
_MESSAGE_BYTES = {
    GET_VERSION: 16,
    GET_CAPABILITIES: 32,
    NEGOTIATE_ALGORITHMS: 64,
    GET_CERTIFICATE: 2048,  # certificate chain portion
    CHALLENGE: 96,
    KEY_EXCHANGE: 160,
    FINISH: 64,
}
_MESSAGE_NAMES = {
    GET_VERSION: "get_version",
    GET_CAPABILITIES: "get_capabilities",
    NEGOTIATE_ALGORITHMS: "negotiate_algorithms",
    GET_CERTIFICATE: "get_certificate",
    CHALLENGE: "challenge",
    KEY_EXCHANGE: "key_exchange",
    FINISH: "finish",
}


def hkdf_expand(prk: bytes, info: bytes, length: int) -> bytes:
    """HKDF-Expand (RFC 5869) with HMAC-SHA256."""
    if length > 255 * 32:
        raise ValueError("hkdf output too long")
    output = b""
    block = b""
    counter = 1
    while len(output) < length:
        block = hmac.digest(prk, block + info + bytes([counter]), "sha256")
        output += block
        counter += 1
    return output[:length]


def _derive_session_key(secret: bytes, transcript: bytes) -> bytes:
    """SPDM key schedule: both endpoints key the session from the
    transcript hash and the provisioned secret."""
    prk = hmac.digest(secret, hashlib.sha256(transcript).digest(), "sha256")
    return hkdf_expand(prk, b"spdm session key", 16)


@dataclass
class SpdmMessage:
    code: int
    payload: bytes

    def to_bytes(self) -> bytes:
        return bytes([self.code]) + len(self.payload).to_bytes(4, "big") + self.payload


class SpdmResponder:
    """The GPU-firmware side: answers requests, proves possession of
    the provisioned device secret, and derives the same session key."""

    def __init__(self, device_secret: bytes, measurement: bytes) -> None:
        self._secret = device_secret
        self.measurement = measurement
        self._transcript = b""
        self.session_key: Optional[bytes] = None

    def handle(self, request: SpdmMessage) -> SpdmMessage:
        self._transcript += request.to_bytes()
        if request.code == GET_VERSION:
            response = SpdmMessage(GET_VERSION ^ _RESPONSE_BIT, b"\x11")  # 1.1
        elif request.code == GET_CAPABILITIES:
            response = SpdmMessage(
                GET_CAPABILITIES ^ _RESPONSE_BIT, b"CERT|CHAL|KEY_EX|ENCRYPT"
            )
        elif request.code == NEGOTIATE_ALGORITHMS:
            response = SpdmMessage(
                NEGOTIATE_ALGORITHMS ^ _RESPONSE_BIT, b"SHA256|AES128GCM"
            )
        elif request.code == GET_CERTIFICATE:
            cert = b"H100-CC-device-cert:" + hashlib.sha256(self._secret).digest()
            response = SpdmMessage(GET_CERTIFICATE ^ _RESPONSE_BIT, cert)
        elif request.code == CHALLENGE:
            nonce = request.payload
            proof = hmac.digest(
                self._secret, self._transcript + nonce + self.measurement, "sha256"
            )
            response = SpdmMessage(
                CHALLENGE ^ _RESPONSE_BIT, self.measurement + proof
            )
        elif request.code == KEY_EXCHANGE:
            exchange_data = request.payload
            proof = hmac.digest(
                self._secret, self._transcript + exchange_data, "sha256"
            )
            response = SpdmMessage(KEY_EXCHANGE ^ _RESPONSE_BIT, proof)
        elif request.code == FINISH:
            self.session_key = _derive_session_key(self._secret, self._transcript)
            confirm = hmac.digest(self.session_key, b"spdm-finish-rsp", "sha256")
            response = SpdmMessage(FINISH ^ _RESPONSE_BIT, confirm)
        else:
            raise SpdmError(f"unsupported request code {request.code:#x}")
        self._transcript += response.to_bytes()
        return response


@dataclass
class SpdmSession:
    """Result of a completed attestation + key exchange."""

    session_key: bytes
    measurement: bytes
    transcript_hash: bytes
    elapsed_ns: int
    messages: int


class SpdmRequester:
    """The in-TD driver side, driven as a simulation process."""

    def __init__(
        self,
        sim: Simulator,
        guest: GuestContext,
        config: SystemConfig,
        expected_measurement: bytes,
        device_secret: bytes,
    ) -> None:
        self.sim = sim
        self.guest = guest
        self.config = config
        self.expected_measurement = expected_measurement
        # The verifier holds the same provisioned secret (stands in for
        # the vendor CA public key).
        self._secret = device_secret
        self._transcript = b""

    def _round_trip(self, responder: SpdmResponder, request: SpdmMessage) -> Generator:
        """One request/response with PCIe + firmware + (TD) exit costs."""
        wire_bytes = _MESSAGE_BYTES[request.code]
        pcie_ns = units.us(2.0) + units.transfer_time_ns(
            wire_bytes, self.config.pcie.dma_h2d_bw
        )
        with self.guest.spans.span(
            f"spdm.{_MESSAGE_NAMES[request.code]}", "driver", bytes=wire_bytes
        ):
            # Doorbell + completion are MMIO: hypercall-mediated in a TD.
            yield from self.guest.hypercall("spdm.doorbell")
            yield pcie_ns + _RESPONDER_NS[request.code]
            self._transcript += request.to_bytes()
            response = responder.handle(request)
            fault = self.guest.faults.draw(SPDM_SITE)
            if fault is not None:
                # Corrupt the response on the wire.  Proof-carrying messages
                # fail verification directly; any other corruption diverges
                # the transcripts and is caught by the key schedule at
                # FINISH — SPDM's transcript binding guarantees detection.
                tampered = bytearray(response.payload or b"\x00")
                tampered[-1] ^= 0xFF
                response = SpdmMessage(response.code, bytes(tampered))
            self._transcript += response.to_bytes()
            yield self.guest.cpu_ns(units.us(15))  # verify/parse
        self.guest.metrics.counter("spdm.messages").inc()
        return response

    def establish(self, responder: SpdmResponder) -> Generator:
        """Run the full SPDM flow; returns an :class:`SpdmSession`."""
        with self.guest.spans.span("spdm.establish", "driver"):
            session = yield from self._establish(responder)
        return session

    def _establish(self, responder: SpdmResponder) -> Generator:
        start = self.sim.now
        messages = 0
        for code, payload in (
            (GET_VERSION, b""),
            (GET_CAPABILITIES, b""),
            (NEGOTIATE_ALGORITHMS, b"SHA256|AES128GCM"),
            (GET_CERTIFICATE, b""),
        ):
            yield from self._round_trip(responder, SpdmMessage(code, payload))
            messages += 1

        # CHALLENGE: verify the device's measurement proof.
        nonce = hashlib.sha256(self._transcript).digest()[:16]
        transcript_at_challenge = self._transcript + SpdmMessage(
            CHALLENGE, nonce
        ).to_bytes()
        response = yield from self._round_trip(
            responder, SpdmMessage(CHALLENGE, nonce)
        )
        messages += 1
        measurement, proof = response.payload[:32], response.payload[32:]
        expected = hmac.digest(
            self._secret, transcript_at_challenge + nonce + measurement, "sha256"
        )
        if proof != expected:
            raise SpdmError("challenge proof verification failed")
        if measurement != self.expected_measurement:
            raise SpdmError("GPU measurement does not match policy")

        # KEY_EXCHANGE + FINISH.
        exchange = hashlib.sha256(b"dhe-public:" + nonce).digest()
        transcript_at_kex = self._transcript + SpdmMessage(
            KEY_EXCHANGE, exchange
        ).to_bytes()
        response = yield from self._round_trip(
            responder, SpdmMessage(KEY_EXCHANGE, exchange)
        )
        messages += 1
        if response.payload != hmac.digest(
            self._secret, transcript_at_kex + exchange, "sha256"
        ):
            raise SpdmError("key-exchange proof verification failed")
        # Both sides derive the session key over the transcript up to
        # and including the FINISH request (the responder keys its
        # confirmation before appending its own response).
        finish_request = SpdmMessage(FINISH, b"")
        transcript_at_finish = self._transcript + finish_request.to_bytes()
        response = yield from self._round_trip(responder, finish_request)
        messages += 1

        session_key = _derive_session_key(self._secret, transcript_at_finish)
        if response.payload != hmac.digest(session_key, b"spdm-finish-rsp", "sha256"):
            raise SpdmError("finish confirmation mismatch")
        if responder.session_key != session_key:
            raise SpdmError("key schedule divergence")
        return SpdmSession(
            session_key=session_key,
            measurement=measurement,
            transcript_hash=hashlib.sha256(self._transcript).digest(),
            elapsed_ns=self.sim.now - start,
            messages=messages,
        )


def attest_gpu(
    sim: Simulator,
    guest: GuestContext,
    config: SystemConfig,
    device_secret: bytes = b"h100-provisioned-secret",
    measurement: Optional[bytes] = None,
    expected_measurement: Optional[bytes] = None,
) -> Generator:
    """Convenience process: build both endpoints and run the flow.

    ``measurement`` is what the GPU reports; ``expected_measurement``
    is the verifier policy (defaults to matching — pass a different
    value to simulate a compromised device being rejected).

    Injected message corruption (the ``spdm.attest`` fault site) is
    recovered by tearing the session down and re-attesting from scratch
    — SPDM state is transcript-bound, so no partial resume is possible.
    Genuine verification failures (policy mismatch, bad proof with no
    injection) are *not* retried; retry exhaustion raises
    :class:`~repro.faults.FatalFault`.
    """
    if measurement is None:
        measurement = hashlib.sha256(b"h100-cc-fw").digest()
    expected = (
        expected_measurement if expected_measurement is not None else measurement
    )
    retry = config.retry
    attempt = 1
    while True:
        responder = SpdmResponder(device_secret, measurement)
        requester = SpdmRequester(sim, guest, config, expected, device_secret)
        injected_before = guest.faults.injected_at(SPDM_SITE)
        start = sim.now
        try:
            session = yield from requester.establish(responder)
            return session
        except SpdmError as exc:
            if guest.faults.injected_at(SPDM_SITE) == injected_before:
                raise  # genuine failure, not an injected corruption
            if attempt >= retry.max_attempts:
                guest.record_recovery(SPDM_SITE, start, attempt, "fatal", fatal=True)
                raise FatalFault(SPDM_SITE, attempt) from exc
            yield config.fault_model.spdm_restart_ns + retry.backoff_ns(attempt)
            guest.record_recovery(SPDM_SITE, start, attempt, "re-attest")
            attempt += 1
