"""Pompē [32]: Byzantine ordered consensus via ordering linearizability.

Pompē separates *ordering* from *consensus*:

1. **Ordering phase** — a node broadcasts its (clear-text!) batch; every
   replica replies with a signed timestamp from its local clock; the node
   collects 2f+1 replies and assigns the **median**, producing an ordering
   certificate.  The median of 2f+1 signed values necessarily lies within
   the range of correct replicas' clocks — that is ordering linearizability.
2. **Consensus phase** — certificates go to the HotStuff leader, which
   commits them in blocks.  Every replica verifies all 2f+1 timestamp
   signatures in every certificate (the O(n²) verification cost §VI-C
   identifies as Pompē's scalability limit).
3. **Execution** — committed certificates execute in assigned-timestamp
   order once they fall behind a stability watermark (no certificate with
   a smaller median can still appear).

The crucial weakness Lyra addresses: batches travel in clear text during
the ordering phase, so an observer can front-run by racing its own batch
through faster network paths (Fig. 1), and the HotStuff leader can censor
or delay certificates.  The MEV bot's tap hooks ``observe_batch``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.baselines.hotstuff import (
    Block,
    HotStuffParticipant,
    PHASE_KIND,
    PROPOSE_KIND,
    VOTE_KIND,
)
from repro.core.clocks import OrderingClock
from repro.core.batching import Mempool
from repro.core.node import CLIENT_REPLY_KIND, CLIENT_TX_KIND
from repro.core.services import ProtocolServices
from repro.core.types import Batch, Transaction
from repro.crypto.cost import CryptoCosts, DEFAULT_COSTS
from repro.crypto.hashing import digest_of
from repro.crypto.signatures import KeyRegistry, Signature
from repro.crypto.threshold import ThresholdScheme
from repro.net.message import Message
from repro.sim.engine import MILLISECONDS, Simulator
from repro.sim.process import SimProcess
from repro.sim.rng import RngRegistry

ORDER_REQ_KIND = "pp.order_req"
ORDER_TS_KIND = "pp.order_ts"
STALE_KIND = "pp.stale"  # leader -> proposer: re-order this certificate


@dataclass(frozen=True)
class OrderingCert:
    """A batch with its assigned (median) timestamp and the 2f+1 signed
    timestamps that justify it."""

    batch: Batch
    batch_digest: bytes
    assigned_ts: int
    endorsements: Tuple[Tuple[int, int, Signature], ...]  # (pid, ts, sig)

    @property
    def payload_id(self) -> bytes:
        return self.batch_digest

    def wire_size(self) -> int:
        return self.batch.wire_size() + 8 + len(self.endorsements) * (8 + 8 + 64)

    def canonical(self) -> tuple:
        return (self.batch_digest, self.assigned_ts)


@dataclass
class PompeConfig:
    """Per-node Pompē configuration."""

    batch_size: int = 800
    batch_timeout_us: int = 50 * MILLISECONDS
    view_timeout_us: Optional[int] = None
    costs: CryptoCosts = field(default_factory=lambda: DEFAULT_COSTS)
    clock_skew_us: int = 0


@dataclass
class PompeStats:
    batches_ordered: int = 0
    batches_executed_own: int = 0
    txs_executed: int = 0
    own_batch_latencies_us: List[int] = field(default_factory=list)
    #: Messages dropped at the door (client, ordering-phase, stale and
    #: HotStuff kinds): a field of the wrong type.
    malformed_messages: int = 0


class PompeNode(SimProcess):
    """One Pompē replica (orderer + HotStuff participant + executor)."""

    def __init__(
        self,
        pid: int,
        sim: Simulator,
        *,
        n: int,
        f: int,
        registry: KeyRegistry,
        threshold: ThresholdScheme,
        config: Optional[PompeConfig] = None,
        rng: Optional[RngRegistry] = None,
    ) -> None:
        super().__init__(pid, sim)
        self.n = n
        self.f = f
        self.registry = registry
        self.threshold_scheme = threshold
        self.config = config or PompeConfig()
        self.costs = self.config.costs
        # Constant receive costs; ``_receive_cost`` covers the rest.
        self._RECEIVE_COSTS = {
            ORDER_TS_KIND: self.costs.verify_us,
            VOTE_KIND: self.costs.share_verify_us,
            PHASE_KIND: self.costs.threshold_verify_us,
        }
        self.rng = (rng or RngRegistry(0)).get("pompe", str(pid))
        self.clock = OrderingClock(sim, skew_us=self.config.clock_skew_us)
        self.mempool = Mempool(self.config.batch_size)
        self.stats = PompeStats()

        self.services: Optional[ProtocolServices] = None
        self.hotstuff: Optional[HotStuffParticipant] = None

        self._batch_counter = 0
        self._pending_order: Dict[bytes, dict] = {}  # digest -> collection state
        self._proposed_at: Dict[bytes, int] = {}
        self._tx_origin: Dict[Tuple[int, int], int] = {}
        # Certificates submitted to consensus but not yet decided: these
        # are re-submitted periodically so view changes cannot lose them.
        self._unacked: Dict[bytes, OrderingCert] = {}
        # Execution state: decided, not-yet-executed certs ordered by ts.
        self._decided: Dict[bytes, OrderingCert] = {}
        self._executed: Set[bytes] = set()
        self._watermark = 0
        self.executed_log: List[Tuple[int, bytes]] = []  # (assigned_ts, digest)
        self._started = False
        self.on_executed: Optional[Callable[[OrderingCert], None]] = None
        #: MEV tap: called with every clear-text batch this replica
        #: observes during the ordering phase.
        self.observe_batch: Optional[Callable[[Batch, int], None]] = None

    # ------------------------------------------------------------------
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
            costs=self.costs,
            send_fn=lambda dst, msg: self.send(dst, msg),
            broadcast_fn=lambda msg: self.broadcast(msg),
            timers=self.timers,
            on_malformed=self._count_malformed,
        )
        self.hotstuff = HotStuffParticipant(
            self.services,
            on_decide=self._on_decide,
            report_clock=self.clock.read,
            view_timeout_us=self.config.view_timeout_us,
            on_stale=self._on_stale_cert,
        )

    def _count_malformed(self) -> None:
        self.stats.malformed_messages += 1

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.hotstuff.start()
        self.timers.set(
            "batch-flush", self.config.batch_timeout_us, self._batch_flush_tick
        )
        self.timers.set("wm-tick", 2 * self.services.delta_us, self._watermark_tick)
        self.timers.set("resubmit", 6 * self.services.delta_us, self._resubmit_tick)

    def _on_stale_cert(self, cert) -> None:
        """A certificate's timestamp fell behind the published execution
        watermark.  If it is ours, re-run the ordering phase for fresh
        signed timestamps; as the leader, bounce it back to its proposer
        (we cannot forge new timestamps on its behalf)."""
        if not isinstance(cert, OrderingCert):
            return
        if cert.batch_digest in self._executed:
            return
        if cert.batch.proposer != self.pid:
            self.services.send(
                cert.batch.proposer,
                STALE_KIND,
                {"digest": cert.batch_digest},
                40,
            )
            return
        self._reorder_stale(cert.batch_digest)

    def _reorder_stale(self, digest: bytes) -> None:
        cert = self._unacked.pop(digest, None)
        if cert is None or digest in self._executed:
            return
        # The stale certificate never executes, so nothing else pops its
        # proposal time; the re-ordered batch gets its own.
        self._proposed_at.pop(digest, None)
        self._start_ordering(list(cert.batch.txs))

    def _resubmit_tick(self) -> None:
        # Re-submit certificates abandoned by a view change to the current
        # leader (the leader dedups by payload id).
        for cert in list(self._unacked.values()):
            self.hotstuff.submit(cert)
        self.timers.set("resubmit", 6 * self.services.delta_us, self._resubmit_tick)

    def _watermark_tick(self) -> None:
        # Keep clock reports and execution watermarks fresh: the leader
        # proposes an empty block whenever its pipeline is idle (real
        # HotStuff deployments emit empty blocks for the same reason).
        self.hotstuff.heartbeat()
        self.timers.set("wm-tick", 2 * self.services.delta_us, self._watermark_tick)

    # ------------------------------------------------------------------
    # CPU-cost model for received messages
    # ------------------------------------------------------------------
    def _receive_cost(self, message: Message) -> int:
        kind = message.kind
        if kind == ORDER_REQ_KIND:
            return self.costs.hash_us(message.size) + self.costs.sign_us
        if kind == PROPOSE_KIND:
            payload = message.payload if isinstance(message.payload, dict) else {}
            block = payload.get("block")
            # Junk is charged as one certificate; HotStuff drops it.
            certs = (
                len(block.payloads)
                if isinstance(block, Block) and type(block.payloads) is tuple
                else 1
            )
            # The quadratic term: every replica verifies every certificate's
            # 2f+1 timestamp signatures.
            return certs * (2 * self.f + 1) * self.costs.verify_us
        if kind == "hs.request":
            return self.costs.hash_us(message.size)
        return 2

    def _process(self, message: Message, sender: int) -> None:
        if self.crashed:
            return
        payload = message.payload if isinstance(message.payload, dict) else {}
        kind = message.kind
        if kind == CLIENT_TX_KIND:
            tx = payload.get("tx")
            if isinstance(tx, Transaction):
                self.submit(tx, client_pid=sender)
            else:
                self._count_malformed()
        elif kind == ORDER_REQ_KIND:
            self._on_order_req(payload, sender)
        elif kind == ORDER_TS_KIND:
            self._on_order_ts(payload, sender)
        elif kind == STALE_KIND:
            digest = payload.get("digest")
            if isinstance(digest, bytes):
                self._reorder_stale(digest)
            else:
                self._count_malformed()
        elif self.hotstuff is not None:
            self.hotstuff.handle(kind, payload, sender)

    # ------------------------------------------------------------------
    # Client path and batching
    # ------------------------------------------------------------------
    def submit(self, tx: Transaction, client_pid: Optional[int] = None) -> None:
        if client_pid is not None:
            self._tx_origin[tx.key()] = client_pid
        if self.mempool.add(tx):
            while self.mempool.full:
                self._start_ordering(self.mempool.take_batch())

    def _batch_flush_tick(self) -> None:
        if len(self.mempool) > 0:
            self._start_ordering(self.mempool.take_batch())
        self.timers.set(
            "batch-flush", self.config.batch_timeout_us, self._batch_flush_tick
        )

    # ------------------------------------------------------------------
    # Ordering phase
    # ------------------------------------------------------------------
    def _start_ordering(self, txs: List[Transaction]) -> None:
        if not txs:
            return
        batch = Batch(self.pid, self._batch_counter, tuple(txs))
        self._batch_counter += 1
        digest = digest_of(batch.canonical())
        self._pending_order[digest] = {"batch": batch, "replies": {}}
        self._proposed_at[digest] = self.sim.now
        self.charge(self.costs.hash_us(batch.wire_size()))
        self.services.broadcast(
            ORDER_REQ_KIND,
            {"batch": batch, "digest": digest},
            batch.wire_size() + 32,
        )

    def _on_order_req(self, payload: dict, sender: int) -> None:
        batch = payload.get("batch")
        digest = payload.get("digest")
        if not isinstance(batch, Batch) or not isinstance(digest, bytes):
            self._count_malformed()
            return
        # Clear-text exposure: the batch is readable here, before any
        # ordering decision — the attack surface Lyra closes.
        if self.observe_batch is not None:
            self.observe_batch(batch, sender)
        ts = self.clock.now()
        sig = self.services.signer.sign((digest, ts))
        self.services.send(
            sender, ORDER_TS_KIND, {"digest": digest, "ts": ts, "sig": sig}, 80
        )

    def _on_order_ts(self, payload: dict, sender: int) -> None:
        digest = payload.get("digest")
        ts = payload.get("ts")
        sig = payload.get("sig")
        if (
            not isinstance(digest, bytes)
            or type(ts) is not int
            or not isinstance(sig, Signature)
        ):
            self._count_malformed()
            return
        state = self._pending_order.get(digest)
        if state is None or sender in state["replies"]:
            return
        if not self.registry.verify((digest, ts), sig, sender):
            return
        state["replies"][sender] = (ts, sig)
        self._on_timestamp_reply(digest, state)

    def _on_timestamp_reply(self, digest: bytes, state: dict) -> None:
        """The quorum step: the first 2f+1 signed timestamps make the
        certificate, at their median."""
        if len(state["replies"]) != 2 * self.f + 1:
            return
        endorsements = tuple(
            (pid, t, s) for pid, (t, s) in sorted(state["replies"].items())
        )
        median = sorted(t for _, t, _ in endorsements)[self.f]
        cert = OrderingCert(state["batch"], digest, median, endorsements)
        del self._pending_order[digest]
        self.stats.batches_ordered += 1
        self._unacked[digest] = cert
        self.hotstuff.submit(cert)

    # ------------------------------------------------------------------
    # Consensus decisions and timestamp-ordered execution
    # ------------------------------------------------------------------
    def _on_decide(self, block: Block) -> None:
        if block.watermark > self._watermark:
            self._watermark = block.watermark
        for cert in block.payloads:
            if not isinstance(cert, OrderingCert):
                continue
            self._unacked.pop(cert.batch_digest, None)
            if cert.batch_digest in self._executed:
                continue
            self._decided.setdefault(cert.batch_digest, cert)
        self._drain_executions()

    def _drain_executions(self) -> None:
        ready = sorted(
            (c for c in self._decided.values() if c.assigned_ts <= self._watermark),
            key=lambda c: (c.assigned_ts, c.batch_digest),
        )
        for cert in ready:
            del self._decided[cert.batch_digest]
            self._executed.add(cert.batch_digest)
            self.executed_log.append((cert.assigned_ts, cert.batch_digest))
            self._execute(cert)

    def _execute(self, cert: OrderingCert) -> None:
        self.stats.txs_executed += len(cert.batch)
        if cert.batch.proposer == self.pid:
            self.stats.batches_executed_own += 1
            proposed = self._proposed_at.pop(cert.batch_digest, None)
            if proposed is not None:
                self.stats.own_batch_latencies_us.append(self.sim.now - proposed)
        for tx in cert.batch.txs:
            client = self._tx_origin.pop(tx.key(), None)
            if client is not None:
                self.send(
                    client,
                    Message(
                        CLIENT_REPLY_KIND,
                        {"key": tx.key(), "seq": cert.assigned_ts},
                        24,
                    ),
                )
        self.mempool.drop_committed(cert.batch.txs)
        if self.on_executed is not None:
            self.on_executed(cert)

    # ------------------------------------------------------------------
    def output_sequence(self) -> List[Tuple[int, bytes]]:
        return list(self.executed_log)

    def work_pending(self) -> bool:
        """Unbatched transactions, batches still collecting timestamps, or
        undecided HotStuff blocks that carry payloads (the watchdog's
        liveness check)."""
        return (
            len(self.mempool) > 0
            or bool(self._pending_order)
            or self.hotstuff.payloads_pending()
        )


__all__ = [
    "PompeNode",
    "PompeConfig",
    "PompeStats",
    "OrderingCert",
    "ORDER_REQ_KIND",
    "ORDER_TS_KIND",
    "STALE_KIND",
]
