"""Tests for workload components: generators and clients."""

import pytest

from repro.core.replica import CLIENT_REPLY_KIND, CLIENT_TX_KIND
from repro.core.types import Transaction
from repro.net.latency import UniformLatencyModel
from repro.net.message import Message
from repro.net.network import Network, NetworkConfig
from repro.sim.engine import Simulator
from repro.sim.process import SimProcess
from repro.workload.clients import ClosedLoopClient
from repro.workload.generator import TxGenerator, decode_kv_write


class EchoReplica(SimProcess):
    """Replies to every client.tx after a fixed service delay."""

    def __init__(self, pid, sim, service_us=1000):
        super().__init__(pid, sim)
        self.service_us = service_us
        self.received = []

    def on_message(self, message, sender):
        if message.kind != CLIENT_TX_KIND:
            return
        tx = message.payload["tx"]
        self.received.append(tx)
        self.sim.schedule(
            self.service_us,
            lambda: self.send(
                sender,
                Message(CLIENT_REPLY_KIND, {"key": tx.key()}, 24),
            ),
        )


def build_echo_world():
    sim = Simulator()
    net = Network(
        sim,
        UniformLatencyModel(500),
        config=NetworkConfig(bandwidth_enabled=False),
    )
    replica = EchoReplica(0, sim)
    net.register(replica)
    return sim, net, replica


class TestGenerator:
    def test_unique_nonces(self):
        gen = TxGenerator(5)
        keys = {gen.next().key() for _ in range(100)}
        assert len(keys) == 100
        assert gen.issued == 100

    def test_kv_write_roundtrip(self):
        gen = TxGenerator(1)
        tx = gen.kv_write(17, 99)
        assert decode_kv_write(tx) == (17, 99)

    def test_non_kv_body_decodes_none(self):
        assert decode_kv_write(Transaction(1, 2, b"short")) is None

    def test_body_truncated_to_16(self):
        tx = TxGenerator(1).next(body=b"x" * 50)
        assert len(tx.body) == 16


class TestClosedLoopClient:
    def test_maintains_window(self):
        sim, net, replica = build_echo_world()
        client = ClosedLoopClient(10, sim, 0, window=4)
        net.register(client, replica=False)
        sim.run(until=20_000)
        # Steady state: in-flight == window.
        assert client.stats.submitted - client.stats.completed == 4
        assert client.stats.completed > 0

    def test_latency_measured(self):
        sim, net, replica = build_echo_world()
        client = ClosedLoopClient(10, sim, 0, window=1)
        net.register(client, replica=False)
        sim.run(until=10_000)
        # Round trip = 2 x 500us latency + 1000us service.
        assert all(lat == 2000 for lat in client.stats.latencies_us)

    def test_stop_at(self):
        sim, net, replica = build_echo_world()
        client = ClosedLoopClient(10, sim, 0, window=1, stop_at_us=5_000)
        net.register(client, replica=False)
        sim.run(until=50_000)
        final = client.stats.submitted
        assert final < 10  # stopped early

    @pytest.mark.parametrize(
        "payload",
        [5, None, "key", [("k",)], {}, {"key": None}, {"key": [1]}, {"key": (1, [2])}],
    )
    def test_junk_reply_is_counted_not_raised(self, payload):
        sim, net, replica = build_echo_world()
        client = ClosedLoopClient(10, sim, 0, window=2)
        net.register(client, replica=False)
        sim.run(until=1_000)  # both submissions in flight, no reply yet
        assert len(client._inflight) == 2
        client.deliver(Message(CLIENT_REPLY_KIND, payload, 24), 0)
        sim.run(until=20_000)
        assert client.stats.malformed_replies == 1
        # The junk completed nothing: the window still turns over.
        assert client.stats.submitted - client.stats.completed == 2
        assert all(lat == 2000 for lat in client.stats.latencies_us)

    def test_custom_body(self):
        sim, net, replica = build_echo_world()
        client = ClosedLoopClient(10, sim, 0, window=1, body=b"MARK")
        net.register(client, replica=False)
        sim.run(until=5_000)
        assert replica.received[0].body.startswith(b"MARK")
