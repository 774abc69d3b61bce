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
or delay certificates.  A batch is first readable at a replica when its
ordering request arrives, so that is where ``on_readable`` fires (a
colocated MEV bot's view).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.baselines.hotstuff import (
    Block,
    HotStuffParticipant,
    PHASE_KIND,
    PROPOSE_KIND,
    REQUEST_KIND,
    VOTE_KIND,
)
from repro.core.clocks import OrderingClock
from repro.core.replica import CLIENT_TX_KIND, Replica
from repro.core.types import Batch, Transaction
from repro.crypto.cost import CryptoCosts, DEFAULT_COSTS
from repro.crypto.hashing import digest_of
from repro.crypto.signatures import Signature
from repro.net.message import Message
from repro.sim.engine import MILLISECONDS, Simulator

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

    @property
    def proposer(self) -> int:
        return self.batch.proposer

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


class PompeNode(Replica):
    """One Pompē replica (orderer + HotStuff participant + executor)."""

    _RNG_STREAM = "pompe"

    def __init__(
        self,
        pid: int,
        sim: Simulator,
        *,
        config: Optional[PompeConfig] = None,
        **identity,
    ) -> None:
        super().__init__(pid, sim, config=config or PompeConfig(), **identity)
        # Constant receive costs; ``_receive_cost`` covers the rest.
        self._RECEIVE_COSTS = {
            ORDER_TS_KIND: self.costs.verify_us,
            VOTE_KIND: self.costs.share_verify_us,
            PHASE_KIND: self.costs.threshold_verify_us,
        }
        self.clock = OrderingClock(sim, skew_us=self.config.clock_skew_us)
        self.stats = PompeStats()
        self.hotstuff: Optional[HotStuffParticipant] = None

        self._pending_order: Dict[bytes, dict] = {}  # digest -> collection state
        self._proposed_at: Dict[bytes, int] = {}
        # Certificates submitted to consensus but not yet decided: these
        # are re-submitted periodically so view changes cannot lose them.
        self._unacked: Dict[bytes, OrderingCert] = {}
        # Execution state: decided, not-yet-executed certs ordered by ts.
        self._decided: Dict[bytes, OrderingCert] = {}
        self._executed_ids: Set[bytes] = set()
        self._watermark = 0
        self.executed_log: List[Tuple[int, bytes]] = []  # (assigned_ts, digest)

    # ------------------------------------------------------------------
    def attach(self, network) -> None:
        super().attach(network)
        self.hotstuff = HotStuffParticipant(
            self.services,
            on_decide=self._on_decide,
            report_clock=self.clock.read,
            view_timeout_us=self.config.view_timeout_us,
            on_stale=self._on_stale_cert,
        )

    def _arm_timers(self) -> None:
        self.hotstuff.start()
        self._arm_batch_flush()
        self.timers.set("wm-tick", 2 * self.services.delta_us, self._watermark_tick)
        self.timers.set("resubmit", 6 * self.services.delta_us, self._resubmit_tick)

    def _on_stale_cert(self, cert) -> None:
        """A certificate's timestamp fell behind the published execution
        watermark.  If it is ours, re-run the ordering phase for fresh
        signed timestamps; as the leader, bounce it back to its proposer
        (we cannot forge new timestamps on its behalf)."""
        if not isinstance(cert, OrderingCert):
            return
        if cert.batch_digest in self._executed_ids:
            return
        if cert.proposer != self.pid:
            self.services.send(
                cert.proposer,
                STALE_KIND,
                {"digest": cert.batch_digest},
                40,
            )
            return
        self._reorder_stale(cert.batch_digest)

    def _reorder_stale(self, digest: bytes) -> None:
        cert = self._unacked.pop(digest, None)
        if cert is None or digest in self._executed_ids:
            return
        # The stale certificate never executes, so nothing else pops its
        # proposal time; the re-ordered batch gets its own.
        self._proposed_at.pop(digest, None)
        self._propose(list(cert.batch.txs))

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
        if kind == REQUEST_KIND:
            return self.costs.hash_us(message.size)
        return 2

    def _process(self, message: Message, sender: int) -> None:
        payload = message.payload if isinstance(message.payload, dict) else {}
        kind = message.kind
        if kind == CLIENT_TX_KIND:
            self._on_client_tx(payload, sender)
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
    # Ordering phase
    # ------------------------------------------------------------------
    def _propose(self, txs: List[Transaction]) -> None:
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
        self._readable(batch)
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
            if cert.batch_digest in self._executed_ids:
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
            self._executed_ids.add(cert.batch_digest)
            self.executed_log.append((cert.assigned_ts, cert.batch_digest))
            self._execute(cert)

    def _execute(self, cert: OrderingCert) -> None:
        if cert.batch.proposer == self.pid:
            self.stats.batches_executed_own += 1
            proposed = self._proposed_at.pop(cert.batch_digest, None)
            if proposed is not None:
                self.stats.own_batch_latencies_us.append(self.sim.now - proposed)
        self._executed(cert.batch)

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
