"""Tests for the secure multi-GPU substrate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.multigpu import (
    AuthFailure,
    LinkSecurity,
    LinkSpec,
    MultiGPUNode,
    ReplayError,
    SecureChannel,
    broadcast,
    effective_bandwidth_gbps,
    ring_all_reduce,
    transfer_time_ns,
)


# --- link timing ---------------------------------------------------------


def test_security_ordering_of_transfer_time():
    spec = LinkSpec()
    size = 256 * units.MiB
    none = transfer_time_ns(spec, size, LinkSecurity.NONE)
    batched = transfer_time_ns(spec, size, LinkSecurity.BATCHED)
    naive = transfer_time_ns(spec, size, LinkSecurity.NAIVE)
    assert none < batched < naive


def test_batched_overhead_small():
    spec = LinkSpec()
    size = 256 * units.MiB
    none = effective_bandwidth_gbps(spec, size, LinkSecurity.NONE)
    batched = effective_bandwidth_gbps(spec, size, LinkSecurity.BATCHED)
    naive = effective_bandwidth_gbps(spec, size, LinkSecurity.NAIVE)
    # Batched metadata keeps >90 % of link bandwidth; naive loses far more.
    assert batched / none > 0.9
    assert naive / none < 0.75


def test_zero_size_transfer_free():
    assert transfer_time_ns(LinkSpec(), 0, LinkSecurity.NAIVE) == 0


# --- secure channel (functional) ----------------------------------------


def test_channel_roundtrip_and_counters():
    channel_tx = SecureChannel(b"0123456789abcdef", channel_id=7)
    channel_rx = SecureChannel(b"0123456789abcdef", channel_id=7)
    for index in range(3):
        counter, ciphertext, mac = channel_tx.seal(b"gradient-%d" % index)
        assert counter == index
        assert ciphertext != b"gradient-%d" % index
        assert channel_rx.open(counter, ciphertext, mac) == b"gradient-%d" % index


def test_channel_replay_rejected():
    tx = SecureChannel(b"k" * 16)
    rx = SecureChannel(b"k" * 16)
    message = tx.seal(b"first")
    rx.open(*message)
    with pytest.raises(ReplayError):
        rx.open(*message)


def test_channel_tamper_rejected():
    tx = SecureChannel(b"k" * 16)
    rx = SecureChannel(b"k" * 16)
    counter, ciphertext, mac = tx.seal(b"weights")
    corrupted = bytes([ciphertext[0] ^ 1]) + ciphertext[1:]
    with pytest.raises(AuthFailure):
        rx.open(counter, corrupted, mac)


def test_channel_out_of_order_rejected():
    tx = SecureChannel(b"k" * 16)
    rx = SecureChannel(b"k" * 16)
    first = tx.seal(b"a")
    second = tx.seal(b"b")
    rx.open(*second)
    with pytest.raises(ReplayError):
        rx.open(*first)


@settings(max_examples=20, deadline=None)
@given(payload=st.binary(min_size=0, max_size=200))
def test_channel_roundtrip_property(payload):
    tx = SecureChannel(b"p" * 16, channel_id=3)
    rx = SecureChannel(b"p" * 16, channel_id=3)
    assert rx.open(*tx.seal(payload)) == payload


# --- node ------------------------------------------------------------------


def test_node_channels_are_per_direction():
    node = MultiGPUNode(num_gpus=4)
    assert node.channel(0, 1) is node.channel(0, 1)
    assert node.channel(0, 1) is not node.channel(1, 0)
    with pytest.raises(ValueError):
        node.channel(0, 0)
    with pytest.raises(ValueError):
        node.channel(0, 9)
    with pytest.raises(ValueError):
        MultiGPUNode(num_gpus=1)


def test_cross_pair_keys_differ():
    node = MultiGPUNode(num_gpus=4)
    counter, ciphertext_a, _ = node.channel(0, 1).seal(b"same payload")
    _, ciphertext_b, _ = node.channel(2, 3).seal(b"same payload")
    assert ciphertext_a != ciphertext_b


def test_channel_key_schedule_known_answer():
    """Pins the per-pair channel key and the MAC subkey derived from it."""
    assert MultiGPUNode().channel(0, 1)._mac_key.hex() == (
        "730a95a6db64ec9fac5be032ff56a335"
    )


# --- collectives ------------------------------------------------------------


def test_all_reduce_scales_with_security():
    node = MultiGPUNode(num_gpus=8)
    size = 512 * units.MiB
    times = {
        security: ring_all_reduce(node, size, security).time_ns
        for security in LinkSecurity
    }
    assert times[LinkSecurity.NONE] < times[LinkSecurity.BATCHED]
    assert times[LinkSecurity.BATCHED] < times[LinkSecurity.NAIVE]


def test_all_reduce_bandwidth_improves_with_gpus():
    # Ring all-reduce algorithm bandwidth approaches bus bandwidth and
    # is roughly GPU-count independent at large N; check sane values.
    size = units.GB
    for n in (2, 4, 8):
        node = MultiGPUNode(num_gpus=n)
        result = ring_all_reduce(node, size, LinkSecurity.NONE)
        assert 100 < result.algo_bandwidth_gbps < 400


def test_broadcast_log_hops():
    size = 64 * units.MiB
    t2 = broadcast(MultiGPUNode(num_gpus=2), size, LinkSecurity.NONE).time_ns
    t8 = broadcast(MultiGPUNode(num_gpus=8), size, LinkSecurity.NONE).time_ns
    assert t8 == 3 * t2  # log2(8) = 3 hops vs 1


def test_collective_result_metadata():
    node = MultiGPUNode(num_gpus=4)
    result = ring_all_reduce(node, units.MiB, LinkSecurity.BATCHED)
    assert result.operation == "all_reduce"
    assert result.num_gpus == 4
    assert result.security is LinkSecurity.BATCHED
    assert result.time_ns > 0
