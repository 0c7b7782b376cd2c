"""Tests for the SPDM attestation/session-establishment model."""

from hashlib import sha256

import pytest

from repro.config import SystemConfig
from repro.sim import Simulator
from repro.tdx import GuestContext, SpdmError, attest_gpu
from repro.tdx.spdm import SpdmMessage, SpdmResponder, hkdf_expand


def _run_attest(config, **kwargs):
    sim = Simulator()
    guest = GuestContext(sim, config)
    process = sim.process(attest_gpu(sim, guest, config, **kwargs))
    session = sim.run(until=process)
    return session, sim, guest


def test_session_establishes_and_keys_agree():
    session, _sim, _guest = _run_attest(SystemConfig.confidential())
    assert len(session.session_key) == 16
    assert session.messages == 7
    assert len(session.transcript_hash) == 32


def test_session_known_answer():
    """Pins the transcript, key schedule and timing of the default flow."""
    session, _sim, _guest = _run_attest(SystemConfig.confidential())
    assert session.session_key.hex() == "29a085e5fd2e4c1c5bf479868982b425"
    assert session.transcript_hash.hex() == (
        "dba8aae0c049ad6ce263c5af33660ef74dc0e87a1fea8de47d055e081b5d176d"
    )
    assert session.elapsed_ns == 2925095
    assert session.messages == 7


def test_session_deterministic():
    a, _, _ = _run_attest(SystemConfig.confidential())
    b, _, _ = _run_attest(SystemConfig.confidential())
    assert a.session_key == b.session_key
    assert a.transcript_hash == b.transcript_hash


def test_attestation_slower_inside_td():
    base, base_sim, _ = _run_attest(SystemConfig.base())
    cc, cc_sim, _ = _run_attest(SystemConfig.confidential())
    assert cc.elapsed_ns > base.elapsed_ns
    # Seven hypercall-mediated doorbells account for the gap.
    assert cc.elapsed_ns - base.elapsed_ns > 6 * (
        SystemConfig.confidential().hypercall_ns()
        - SystemConfig.base().hypercall_ns()
    )


def test_wrong_measurement_rejected():
    with pytest.raises(SpdmError, match="measurement"):
        _run_attest(
            SystemConfig.confidential(),
            measurement=sha256(b"tampered-firmware").digest(),
            expected_measurement=sha256(b"h100-cc-fw").digest(),
        )


def test_wrong_device_secret_rejected():
    """A device without the provisioned secret fails the challenge."""
    sim = Simulator()
    config = SystemConfig.confidential()
    guest = GuestContext(sim, config)
    from repro.tdx.spdm import SpdmRequester

    measurement = sha256(b"h100-cc-fw").digest()
    impostor = SpdmResponder(b"wrong-secret", measurement)
    requester = SpdmRequester(
        sim, guest, config, measurement, b"h100-provisioned-secret"
    )
    process = sim.process(requester.establish(impostor))
    with pytest.raises(SpdmError, match="challenge proof"):
        sim.run(until=process)


def test_responder_rejects_unknown_code():
    responder = SpdmResponder(b"secret", sha256(b"fw").digest())
    with pytest.raises(SpdmError):
        responder.handle(SpdmMessage(0x7F, b""))


def test_session_key_differs_per_device_secret():
    a, _, _ = _run_attest(
        SystemConfig.confidential(), device_secret=b"device-a"
    )
    b, _, _ = _run_attest(
        SystemConfig.confidential(), device_secret=b"device-b"
    )
    assert a.session_key != b.session_key


# RFC 5869 test case 1 (Expand step).
def test_hkdf_rfc5869_case1():
    prk = bytes.fromhex(
        "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
    )
    info = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9")
    okm = hkdf_expand(prk, info, 42)
    assert okm.hex() == (
        "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
        "34007208d5b887185865"
    )


def test_hkdf_length_limit():
    with pytest.raises(ValueError):
        hkdf_expand(b"\x00" * 32, b"", 256 * 32)
