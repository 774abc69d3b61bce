"""Shared test fixtures: miniature in-simulator consensus clusters.

``ConsensusTestNode`` hosts exactly one DBFT/VVB instance with an
injectable validation function, so protocol unit tests exercise Algorithm
1/3 logic over a real simulated network without the full LyraNode stack
(no batching, commit protocol, or cost model)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.bv_broadcast import BV_KIND
from repro.core.dbft import AUX_KIND, BinaryConsensus, COORD_KIND
from repro.core.services import ProtocolServices
from repro.core.types import InstanceId
from repro.core.vvb import (
    DELIVER_KIND,
    FETCH_KIND,
    INIT_KIND,
    VOTE0_KIND,
    VOTE1_KIND,
)
from repro.crypto.cost import FREE_COSTS
from repro.crypto.hashing import digest_of
from repro.crypto.signatures import KeyRegistry
from repro.crypto.threshold import ThresholdScheme
from repro.net.latency import UniformLatencyModel
from repro.net.network import Network, NetworkConfig
from repro.sim.engine import (
    _PRIORITY_BIAS,
    _PRIORITY_BITS,
    _PRIORITY_MASK,
    MILLISECONDS,
    Simulator,
)
from repro.sim.process import SimProcess

TEST_IID = InstanceId(0, 0)


def record_fields(record):
    """``(time, priority, fn, args)`` of an engine queue record
    ``(key, fn, args)``; a cancellable record ``(key, None, handle)``
    reads its call from the handle."""
    key, fn, args = record
    if fn is None:
        fn, args = args.fn, args.args
    return (
        key >> _PRIORITY_BITS,
        (key & _PRIORITY_MASK) - _PRIORITY_BIAS,
        fn,
        args,
    )


@dataclass(frozen=True)
class FakeCipher:
    """A stand-in transaction cipher for protocol-layer tests."""

    cipher_id: bytes
    size: int = 64

    def wire_size(self) -> int:
        return self.size

    def canonical(self) -> tuple:
        return (self.cipher_id,)


def fake_cipher(tag: str = "tx") -> FakeCipher:
    return FakeCipher(digest_of(tag))


class ConsensusTestNode(SimProcess):
    """A node hosting one BinaryConsensus instance."""

    def __init__(
        self,
        pid: int,
        sim: Simulator,
        *,
        n: int,
        f: int,
        registry: KeyRegistry,
        threshold: ThresholdScheme,
        validate: Optional[Callable] = None,
        iid: InstanceId = TEST_IID,
    ) -> None:
        super().__init__(pid, sim)
        self.n = n
        self.f = f
        self.registry = registry
        self.threshold_scheme = threshold
        self.iid = iid
        self._validate = validate if validate is not None else (lambda c, p: True)
        self.decisions: List[Tuple[int, object]] = []
        self.messages_recovered: List[object] = []
        self.services: Optional[ProtocolServices] = None
        self.instance: Optional[BinaryConsensus] = None

    def attach(self, network) -> None:
        super().attach(network)
        self.services = ProtocolServices(
            pid=self.pid,
            n=self.n,
            f=self.f,
            sim=self.sim,
            delta_us=network.delta_us,
            signer=self.registry.signer(self.pid),
            registry=self.registry,
            threshold=self.threshold_scheme,
            costs=FREE_COSTS,
            send_fn=lambda dst, msg: self.send(dst, msg),
            broadcast_fn=lambda msg: self.broadcast(msg),
            timers=self.timers,
        )
        self.instance = BinaryConsensus(
            self.services,
            self.iid,
            validate=lambda iid, c, p: self._validate(c, p),
            on_decide=lambda iid, v, m: self.decisions.append((v, m)),
            on_message=lambda iid, m: self.messages_recovered.append(m),
        )

    def on_message(self, message, sender: int) -> None:
        payload = message.payload if isinstance(message.payload, dict) else {}
        if payload.get("iid") != self.iid:
            return
        kind = message.kind
        if kind == INIT_KIND:
            self.instance.on_init(payload, sender)
        elif kind == VOTE1_KIND:
            self.instance.on_vote1(payload, sender)
        elif kind == VOTE0_KIND:
            self.instance.on_vote0(payload, sender)
        elif kind == DELIVER_KIND:
            self.instance.on_deliver(payload, sender)
        elif kind == FETCH_KIND:
            self.instance.on_fetch(payload, sender)
        elif kind == BV_KIND:
            self.instance.on_bv(payload, sender)
        elif kind == COORD_KIND:
            self.instance.on_coord(payload, sender)
        elif kind == AUX_KIND:
            self.instance.on_aux(payload, sender)


def build_consensus_cluster(
    n: int = 4,
    *,
    f: Optional[int] = None,
    delay_us: int = 5 * MILLISECONDS,
    validators: Optional[Dict[int, Callable]] = None,
    seed: int = 1,
    node_cls=ConsensusTestNode,
) -> Tuple[Simulator, List[ConsensusTestNode], Network]:
    """n test nodes on a uniform-latency network, Δ = delay."""
    f = f if f is not None else (n - 1) // 3
    sim = Simulator()
    registry = KeyRegistry(seed)
    threshold = ThresholdScheme(2 * f + 1, n, seed=seed)
    network = Network(
        sim,
        UniformLatencyModel(delay_us),
        config=NetworkConfig(delta_us=delay_us, bandwidth_enabled=False),
    )
    nodes = []
    for pid in range(n):
        node = node_cls(
            pid,
            sim,
            n=n,
            f=f,
            registry=registry,
            threshold=threshold,
            validate=(validators or {}).get(pid),
        )
        nodes.append(node)
        network.register(node)
    return sim, nodes, network


def quick_lyra_config(**overrides):
    """A small fast ExperimentConfig for integration tests."""
    from repro.harness.config import ExperimentConfig

    defaults = dict(
        n_nodes=4,
        seed=2,
        batch_size=10,
        clients_per_node=1,
        client_window=5,
        duration_us=4_000_000,
        warmup_rounds=2,
        warmup_spacing_us=150_000,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def record_decide_arrivals(cluster):
    """Per pid, the heights whose DECIDE steps reached HotStuff, in
    arrival order (before any reordering by height)."""
    arrivals = {node.pid: [] for node in cluster.nodes}
    for node in cluster.nodes:
        hs = node.hotstuff
        decide = hs._decide

        def spy(block, log=arrivals[node.pid], decide=decide):
            log.append(block.height)
            decide(block)

        hs._decide = spy
    return arrivals


__all__ = [
    "FakeCipher",
    "fake_cipher",
    "ConsensusTestNode",
    "build_consensus_cluster",
    "quick_lyra_config",
    "record_decide_arrivals",
    "TEST_IID",
]
