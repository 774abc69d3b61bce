"""The Lyra replica: Algorithms 1-4 wired into one node (§V).

A :class:`LyraNode` is a :class:`~repro.sim.process.SimProcess` that

- measures distances ``d_ij`` to its peers during a warm-up phase and keeps
  them fresh from the perceived-sequence piggybacks on VVB votes (§IV-B1);
- batches client transactions (§VI-B) and opens one BOC instance per batch
  (``ordered-propose``, Algorithm 2): VSS-encrypt, predict ``S_t``, request
  the ``(n-f)``-th predicted sequence number, run modified DBFT;
- participates in every peer's instances (validation per Equation 1);
- runs the Commit protocol (Algorithm 4) to derive locked/stable/committed
  prefixes from piggybacked state, outputs the committed log, broadcasts
  decryption shares, and executes transactions once revealed (Lemma 7);
- replies to the submitting client when its transaction executes, which is
  how closed-loop clients measure commit latency (§VI-A).

Every received message is charged CPU time through the node's serialised
core before processing (signature checks dominate), so compute contention
shapes latency exactly as on real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.batching import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_BATCH_TIMEOUT_US,
    Mempool,
)
from repro.core.clocks import OrderingClock, PerceivedSequence
from repro.core.commit import (
    CommitConfig,
    CommitSnapshot,
    CommitState,
    DSHARE_KIND,
    STATUS_KIND,
    StatusReport,
)
from repro.core.dbft import AUX_KIND, BinaryConsensus, COORD_KIND
from repro.core.bv_broadcast import BV_KIND
from repro.core.distance import DistanceEstimator
from repro.core.obfuscation import is_cipher, is_reveal_share
from repro.core.services import ProtocolServices
from repro.core.types import AcceptedEntry, Batch, InstanceId, Transaction
from repro.core.vvb import (
    DELIVER_KIND,
    FETCH_KIND,
    INIT_KIND,
    VOTE0_KIND,
    VOTE1_KIND,
)
from repro.crypto.cost import CryptoCosts, DEFAULT_COSTS
from repro.crypto.signatures import KeyRegistry
from repro.crypto.threshold import ThresholdScheme
from repro.net.message import Message
from repro.sim.engine import MILLISECONDS, Simulator
from repro.sim.process import SimProcess
from repro.sim.rng import RngRegistry

PROBE_KIND = "lyra.probe"
PROBE_ACK_KIND = "lyra.probe_ack"
CLIENT_TX_KIND = "client.tx"
CLIENT_REPLY_KIND = "client.reply"
CATCHUP_REQ_KIND = "lyra.catchup_req"
CATCHUP_RSP_KIND = "lyra.catchup_rsp"

#: Cap on committed-log entries shipped per catch-up response.
CATCHUP_CHUNK = 512

#: Background distance re-probing period: keeps the ``d_ij`` estimates
#: fresh after GST even if warm-up was adversarial.
PROBE_REFRESH_US = 1_000 * MILLISECONDS

#: The warm-up defaults, defined ONCE.  ``ExperimentConfig`` imports these
#: so direct ``LyraConfig`` users and harness users agree on when the
#: warm-up ends and clients may start (they used to disagree: 150 ms here
#: vs 200 ms in the harness — a real divergence bug, now pinned by a
#: regression test).
DEFAULT_WARMUP_ROUNDS = 4
DEFAULT_WARMUP_SPACING_US = 200 * MILLISECONDS


def warmup_duration_us(rounds: int, spacing_us: int) -> int:
    """When the distance warm-up is considered done (§IV-B1).

    The single source of truth for the formula: ``rounds`` probe
    rounds plus two spacings of slack for the last replies to land.  Both
    ``LyraConfig.warmup_duration_us`` and the harness's client start gate
    delegate here.
    """
    return rounds * spacing_us + 2 * spacing_us


@dataclass
class LyraConfig:
    """Per-node protocol configuration."""

    batch_size: int = DEFAULT_BATCH_SIZE
    batch_timeout_us: int = DEFAULT_BATCH_TIMEOUT_US
    #: Commit-protocol tunables (λ, acceptance window, dealing checks).
    commit: CommitConfig = field(default_factory=CommitConfig)
    #: Heartbeat period for STATUS broadcasts (commit progress when idle).
    status_interval_us: int = 25 * MILLISECONDS
    #: Warm-up probing: rounds and spacing (§IV-B1).
    warmup_rounds: int = DEFAULT_WARMUP_ROUNDS
    warmup_spacing_us: int = DEFAULT_WARMUP_SPACING_US
    #: Crypto cost model.
    costs: CryptoCosts = field(default_factory=lambda: DEFAULT_COSTS)
    #: Clock skew of this node in µs (assigned by the harness).
    clock_skew_us: int = 0

    def warmup_duration_us(self) -> int:
        return warmup_duration_us(self.warmup_rounds, self.warmup_spacing_us)


@dataclass
class NodeStats:
    """Counters the harness scrapes after a run."""

    batches_proposed: int = 0
    batches_committed_own: int = 0
    txs_executed: int = 0
    replayed_txs_dropped: int = 0
    own_batch_latencies_us: List[int] = field(default_factory=list)
    instances_joined: int = 0
    #: DSHARE items dropped at the door: not a well-formed reveal share.
    malformed_dshares: int = 0
    #: Probes, catch-up responses and VVB INITs/VOTE1s dropped at the
    #: door: a field of the wrong type.
    malformed_messages: int = 0
    #: BOC decisions seen here, by value (1 = accepted, 0 = rejected).
    decided_accept: int = 0
    decided_reject: int = 0
    #: Commit waves (Algorithm 4) and the decryption-share broadcasts
    #: they triggered (Lemma 7).
    waves: int = 0
    dshare_batches: int = 0


class LyraNode(SimProcess):
    """One Lyra replica."""

    def __init__(
        self,
        pid: int,
        sim: Simulator,
        *,
        n: int,
        f: int,
        registry: KeyRegistry,
        threshold: ThresholdScheme,
        obfuscation: Any,
        config: Optional[LyraConfig] = None,
        rng: Optional[RngRegistry] = None,
    ) -> None:
        super().__init__(pid, sim)
        self.n = n
        self.f = f
        self.registry = registry
        self.threshold_scheme = threshold
        self.obf = obfuscation
        self.config = config or LyraConfig()
        self.rng = (rng or RngRegistry(0)).get("node", str(pid))
        self.costs = self.config.costs
        # Every kind whose receive cost is a constant for this node: the
        # protocol's fixed ones plus the two that come from ``costs``.
        # ``_receive_cost`` covers the size- and payload-dependent rest.
        self._RECEIVE_COSTS = {
            **self._FIXED_RECEIVE_COSTS,
            VOTE1_KIND: self.costs.share_verify_us,
            DELIVER_KIND: self.costs.threshold_verify_us,
        }

        self.clock = OrderingClock(sim, skew_us=self.config.clock_skew_us)
        self.perceived = PerceivedSequence(self.clock)
        self.estimator = DistanceEstimator(n, pid)
        self.mempool = Mempool(self.config.batch_size)
        self.stats = NodeStats()

        # Built at attach() time (needs the network's Δ).
        self.services: Optional[ProtocolServices] = None
        self.commit: Optional[CommitState] = None

        self._instances: Dict[InstanceId, BinaryConsensus] = {}
        self._batch_counter = 0
        self._s_ref: Dict[InstanceId, int] = {}
        self._proposed_at: Dict[InstanceId, int] = {}
        self._own_batches: Dict[InstanceId, List[Transaction]] = {}
        self._awaiting_message: Set[InstanceId] = set()
        self._preds: Dict[InstanceId, Tuple[int, ...]] = {}
        self._tx_origin: Dict[Tuple[int, int], int] = {}
        self._executed_tx_keys: Set[Tuple[int, int]] = set()
        # Instances fully resolved at this node (revealed or rejected):
        # their state can be garbage-collected after a linger, and late
        # messages for them are ignored.
        self._finished: Set[InstanceId] = set()
        # Subclasses overriding ``_dispatch_instance`` (attack nodes) must
        # see every instance message; the base class takes a direct route.
        self._dispatch_is_default = (
            type(self)._dispatch_instance is LyraNode._dispatch_instance
        )
        self._started = False
        # Crash recovery: the durable snapshot taken at crash time, and the
        # catch-up vote state ({log position -> {entry -> sender set}}).
        self._durable_snapshot: Optional[CommitSnapshot] = None
        self._catchup_votes: Dict[int, Dict[AcceptedEntry, Set[int]]] = {}
        self._catchup_material: Dict[Tuple[int, AcceptedEntry], Tuple[Any, Optional[bytes]]] = {}
        self._catchup_pt_votes: Dict[Tuple[int, AcceptedEntry, bytes], Set[int]] = {}
        self._catchup_totals: Dict[int, int] = {}
        self.recoveries = 0
        #: Optional hook: called as (entry, Batch) for every executed batch.
        self.on_executed: Optional[Callable[[AcceptedEntry, Batch], None]] = None
        #: Optional protocol tracer: (kind, iid, **detail) -> None
        #: (see repro.metrics.tracelog.install_lyra_tracing).
        self.tracer: Optional[Callable] = None

    def _trace(self, kind: str, iid: Optional[InstanceId] = None, **detail) -> None:
        if self.tracer is not None:
            self.tracer(kind, iid, **detail)

    def enable_metrics(self, registry) -> None:
        """Register ``NodeStats`` (and commit-state depth) and distance
        health as scrape sources of a
        :class:`~repro.metrics.registry.MetricsRegistry`.  Phase latencies
        come from the trace, not from here."""
        pid = self.pid
        stats = self.stats
        registry.add_source("node", self._metrics_source, pid)
        for layer, name in (
            ("boc", "decided_accept"),
            ("boc", "decided_reject"),
            ("commit", "waves"),
            ("reveal", "dshare_batches"),
        ):
            registry.add_source(
                layer, lambda name=name: {name: getattr(stats, name)}, pid
            )
        registry.add_source("distance", self._distance_metrics_source, pid)

    def _distance_metrics_source(self) -> Dict[str, float]:
        """Distance-estimation health: coverage and the λ-validation
        failure count (Equation-1 rejections are exactly the failures
        estimator error causes downstream)."""
        est = self.estimator
        out: Dict[str, float] = {
            "coverage": est.coverage(),
            "peers_measured": float(est.peers_measured()),
        }
        if self.commit is not None:
            out["lambda_rejects"] = float(self.commit.lambda_rejects)
        return out

    def _metrics_source(self) -> Dict[str, float]:
        """Scraped at registry snapshot time, never on the hot path."""
        stats = self.stats
        out: Dict[str, float] = {
            "batches_proposed": stats.batches_proposed,
            "batches_committed_own": stats.batches_committed_own,
            "txs_executed": stats.txs_executed,
            "replayed_txs_dropped": stats.replayed_txs_dropped,
            "instances_joined": stats.instances_joined,
            "malformed_dshares": stats.malformed_dshares,
            "malformed_messages": stats.malformed_messages,
            "messages_received": self.messages_received,
            "recoveries": self.recoveries,
            "incarnation": self.incarnation,
        }
        if self.commit is not None:
            out["committed_log_len"] = len(self.commit.output_log)
            out["accepted_instances"] = self.commit.accepted_count
            out["rejected_instances"] = self.commit.rejected_count
            out["malformed_reports"] = self.commit.malformed_reports
        return out

    # ------------------------------------------------------------------
    # Wiring
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
            send_fn=self._proto_send,
            broadcast_fn=self._proto_broadcast,
            on_malformed=self._count_malformed,
            timers=self.timers,
        )
        self.commit = CommitState(
            self.services,
            self.clock,
            self.perceived,
            self.obf,
            self.config.commit,
            on_commit=self._on_commit_wave,
            on_execute=self._on_execute,
        )

    def start(self) -> None:
        """Begin warm-up probing, heartbeats and the batch-flush timer."""
        if self._started:
            return
        self._started = True
        for round_no in range(self.config.warmup_rounds):
            self.sim.schedule(
                round_no * self.config.warmup_spacing_us
                + int(self.rng.integers(0, 5_000)),
                self._send_probe,
            )
        self.timers.set(
            "status", self.config.status_interval_us, self._status_tick
        )
        self.timers.set(
            "batch-flush", self.config.batch_timeout_us, self._batch_flush_tick
        )
        self.timers.set("probe-refresh", PROBE_REFRESH_US, self._probe_refresh)

    def _probe_refresh(self) -> None:
        # Distances drift (and pre-GST measurements may be adversarially
        # biased): keep refreshing them in the background.
        self._send_probe()
        self.timers.set("probe-refresh", PROBE_REFRESH_US, self._probe_refresh)

    # ------------------------------------------------------------------
    # Outgoing message wrappers
    # ------------------------------------------------------------------
    def _proto_send(self, dst: int, message: Message) -> None:
        self.send(dst, message)

    def _proto_broadcast(self, message: Message) -> None:
        """Algorithm 4, lines 74-78: piggyback commit state on broadcasts."""
        commit = self.commit
        if commit is not None:
            self._attach_piggyback(message, commit)
        self._charge_send_cost(message)
        self.broadcast(message)

    def _attach_piggyback(self, message: Message, commit: CommitState) -> None:
        """Attach this broadcast's commit-state report.

        Attack hook: forgery subclasses (``repro.attacks.corpus``) override
        this one method to ship stale or inflated reports without forking
        the broadcast path itself.
        """
        message.payload["pb"] = commit.piggyback()
        message.size += commit.piggyback_size()

    def _charge_send_cost(self, message: Message) -> None:
        kind = message.kind
        if kind == INIT_KIND:
            # Encryption + signing charged at propose time; forwarding free.
            return
        if kind == VOTE1_KIND:
            self.charge(self.costs.share_sign_us)
        elif kind == DELIVER_KIND:
            self.charge(self.costs.combine_us(2 * self.f + 1))
        elif kind == DSHARE_KIND:
            items = message.payload.get("items", ())
            self.charge(self.costs.vss_partial_decrypt_us * max(1, len(items)))

    # ------------------------------------------------------------------
    # Incoming messages: CPU queueing then dispatch
    # ------------------------------------------------------------------
    _FIXED_RECEIVE_COSTS = {
        VOTE0_KIND: 2,
        BV_KIND: 2,
        COORD_KIND: 2,
        AUX_KIND: 2,
        STATUS_KIND: 3,
        FETCH_KIND: 1,
        PROBE_KIND: 1,
        PROBE_ACK_KIND: 1,
        CLIENT_TX_KIND: 2,
        CATCHUP_REQ_KIND: 2,
    }

    #: Consensus-instance message kinds mapped straight to their (unbound)
    #: handler — one dict probe replaces an eight-way string-compare chain
    #: on the single hottest dispatch in the simulator.
    _INSTANCE_HANDLERS = {
        INIT_KIND: BinaryConsensus.on_init,
        VOTE1_KIND: BinaryConsensus.on_vote1,
        VOTE0_KIND: BinaryConsensus.on_vote0,
        DELIVER_KIND: BinaryConsensus.on_deliver,
        FETCH_KIND: BinaryConsensus.on_fetch,
        BV_KIND: BinaryConsensus.on_bv,
        COORD_KIND: BinaryConsensus.on_coord,
        AUX_KIND: BinaryConsensus.on_aux,
    }

    def _receive_cost(self, message: Message) -> int:
        """The kinds ``_RECEIVE_COSTS`` cannot list: cost depends on the
        message's size or item count."""
        kind = message.kind
        if kind == INIT_KIND:
            cost = self.costs.verify_us + self.costs.hash_us(message.size)
            if self.config.commit.check_dealing:
                cost += self.costs.vss_check_dealing_us
            return cost
        if kind == DSHARE_KIND:
            return 2 * max(1, len(message.payload.get("items", ())))
        if kind == CATCHUP_RSP_KIND:
            return 2 * max(1, len(message.payload.get("items", ())))
        return 2

    def _process(self, message: Message, sender: int) -> None:
        # Both callers (``deliver`` and its deferred twin) have just
        # tested ``crashed``.
        payload = message.payload
        if not isinstance(payload, dict):
            payload = {}
        commit = self.commit
        pb = payload.get("pb")
        if pb is not None and commit is not None:
            if type(pb) is StatusReport:
                locked_j, min_j, accepted_j = pb
                commit.on_status(sender, locked_j, min_j, accepted_j)
            else:
                commit.malformed_reports += 1
        kind = message.kind
        handler = self._INSTANCE_HANDLERS.get(kind)
        if handler is not None:
            if kind == INIT_KIND and not is_cipher(
                payload.get("cipher"), self.obf.name
            ):
                # Junk at the door, before the instance is joined or the
                # cipher stamped, locked or dealing-checked.
                self.stats.malformed_messages += 1
                return
            if self._dispatch_is_default:
                iid = payload.get("iid")
                if type(iid) is InstanceId:
                    # Live instances first; ``_finished`` is disjoint from
                    # ``_instances`` (``_gc_instance``), so it only matters
                    # on a miss.
                    instance = self._instances.get(iid)
                    if instance is not None:
                        handler(instance, payload, sender)
                    elif iid not in self._finished:
                        handler(self._instance(iid), payload, sender)
            else:
                # Subclasses (attack nodes) hook instance dispatch.
                self._dispatch_instance(kind, payload, sender)
            return
        if kind == STATUS_KIND:
            return  # piggyback already consumed
        if kind == PROBE_KIND:
            self._on_probe(payload, sender)
        elif kind == PROBE_ACK_KIND:
            self._on_probe_ack(payload, sender)
        elif kind == CLIENT_TX_KIND:
            self._on_client_tx(payload, sender)
        elif kind == DSHARE_KIND:
            self._on_dshare(payload, sender)
        elif kind == CATCHUP_REQ_KIND:
            self._on_catchup_req(payload, sender)
        elif kind == CATCHUP_RSP_KIND:
            self._on_catchup_rsp(payload, sender)

    def _count_malformed(self) -> None:
        """A protocol instance dropped a message for its shape."""
        self.stats.malformed_messages += 1

    # ------------------------------------------------------------------
    # Warm-up distance probing (§IV-B1)
    # ------------------------------------------------------------------
    def _send_probe(self) -> None:
        ref = self.clock.now()
        self.services.broadcast(PROBE_KIND, {"ref": ref}, 8)

    def _on_probe(self, payload: dict, sender: int) -> None:
        ref = payload.get("ref")
        if not isinstance(ref, int):
            self.stats.malformed_messages += 1
            return
        self.send(
            sender,
            Message(PROBE_ACK_KIND, {"ref": ref, "seq": self.clock.now()}, 56),
        )

    def _on_probe_ack(self, payload: dict, sender: int) -> None:
        ref, seq = payload.get("ref"), payload.get("seq")
        if not (isinstance(ref, int) and isinstance(seq, int)):
            self.stats.malformed_messages += 1
            return
        self.estimator.record(sender, ref, seq)

    # ------------------------------------------------------------------
    # Client path and batching
    # ------------------------------------------------------------------
    def submit(self, tx: Transaction, client_pid: Optional[int] = None) -> None:
        """Accept a transaction for ordering (local API; clients use
        ``client.tx`` messages)."""
        if client_pid is not None:
            self._tx_origin[tx.key()] = client_pid
        if self.mempool.add(tx):
            self._maybe_propose()

    def _on_client_tx(self, payload: dict, sender: int) -> None:
        tx = payload.get("tx")
        if isinstance(tx, Transaction):
            self.submit(tx, client_pid=sender)

    def _batch_flush_tick(self) -> None:
        if len(self.mempool) > 0:
            self._propose_batch(self.mempool.take_batch())
        self.timers.set(
            "batch-flush", self.config.batch_timeout_us, self._batch_flush_tick
        )

    def _maybe_propose(self) -> None:
        while self.mempool.full:
            self._propose_batch(self.mempool.take_batch())

    # ------------------------------------------------------------------
    # ordered-propose (Algorithm 2)
    # ------------------------------------------------------------------
    def _propose_batch(self, txs: List[Transaction]) -> None:
        if not txs:
            return
        iid = InstanceId(self.pid, self._batch_counter)
        self._batch_counter += 1
        batch = Batch(self.pid, iid.batch_no, tuple(txs))
        plaintext = batch.serialize()
        # Line 29: obfuscate t.  Charge encryption + hashing to our CPU.
        self.charge(
            self.costs.vss_encrypt_us(self.n)
            + self.costs.hash_us(len(plaintext))
            + self.costs.sign_us
        )
        cipher = self.obf.encrypt(plaintext, self.rng, self.pid)
        # Lines 26-28: reference sequence number and predictions.
        s_ref = self.clock.now()
        self._s_ref[iid] = s_ref
        preds = self.estimator.predict(s_ref)
        self._proposed_at[iid] = self.sim.now
        self._own_batches[iid] = list(txs)
        self.stats.batches_proposed += 1
        self._trace("proposed", iid, txs=len(txs), s_ref=s_ref)
        instance = self._instance(iid)
        instance.propose(cipher, preds)

    # ------------------------------------------------------------------
    # Instance management
    # ------------------------------------------------------------------
    def _instance(self, iid: InstanceId) -> BinaryConsensus:
        instance = self._instances.get(iid)
        if instance is None:
            self.stats.instances_joined += 1
            instance = BinaryConsensus(
                self.services,
                iid,
                validate=lambda cipher, preds, iid=iid: self.commit.validate(
                    iid, cipher, preds
                ),
                on_decide=lambda v, m, iid=iid: self._on_decide(iid, v, m),
                perceive=lambda cipher: self.perceived.observe(cipher.cipher_id),
                on_vote_seq=lambda sender, seq, iid=iid: self._on_vote_seq(
                    iid, sender, seq
                ),
                on_message=lambda m, iid=iid: self._on_instance_message(iid, m),
            )
            self._instances[iid] = instance
        return instance

    def _gc_instance(self, iid: InstanceId) -> None:
        """Free a finished instance: from here on only ``_finished``
        remembers it, late traffic for it is dropped at dispatch, and the
        instance, its VVB/BV endpoints and their vote state die by
        reference count (the linger before this is called keeps
        FETCH/recovery served)."""
        self._finished.add(iid)
        instance = self._instances.pop(iid, None)
        if instance is not None:
            instance.discard()
        self._s_ref.pop(iid, None)
        self._proposed_at.pop(iid, None)
        self._preds.pop(iid, None)

    def _schedule_gc(self, iid: InstanceId) -> None:
        linger = 10 * self.services.delta_us
        self.sim.schedule(linger, lambda: self._gc_instance(iid))

    def _dispatch_instance(self, kind: str, payload: dict, sender: int) -> None:
        iid = payload.get("iid")
        if not isinstance(iid, InstanceId):
            return
        if iid in self._finished:
            return  # resolved and garbage-collected; late traffic
        handler = self._INSTANCE_HANDLERS.get(kind)
        if handler is not None:
            handler(self._instance(iid), payload, sender)

    def _on_vote_seq(self, iid: InstanceId, sender: int, seq_j: int) -> None:
        """Distance refresh: we are the broadcaster and ``sender`` told us
        its perceived sequence number for our transaction (§VI-B)."""
        s_ref = self._s_ref.get(iid)
        if s_ref is not None:
            self.estimator.record(sender, s_ref, seq_j)

    def _on_instance_message(self, iid: InstanceId, m: Tuple[Any, Tuple[int, ...]]) -> None:
        cipher, preds = m
        self._preds[iid] = preds
        self.commit.learn_cipher(iid, cipher)
        if iid in self._awaiting_message:
            self._awaiting_message.discard(iid)
            self.commit.on_accept(iid, cipher, preds)

    def _on_decide(
        self, iid: InstanceId, v: int, m: Optional[Tuple[Any, Tuple[int, ...]]]
    ) -> None:
        self._trace("decided", iid, value=v)
        if v == 1:
            self.stats.decided_accept += 1
            self._own_batches.pop(iid, None)
            if m is None:
                self._awaiting_message.add(iid)
            else:
                self._preds[iid] = m[1]
                self.commit.on_accept(iid, m[0], m[1])
        else:
            self.stats.decided_reject += 1
            self.commit.on_reject(iid)
            # SMR-Liveness: re-input our own rejected transactions; by the
            # time they are re-proposed the distance estimates will have
            # been refreshed by probe/vote piggybacks.
            txs = self._own_batches.pop(iid, None)
            if txs is not None:
                self.mempool.requeue(txs)
            self._schedule_gc(iid)

    # ------------------------------------------------------------------
    # Commit-reveal (Algorithm 4 lines 89-95)
    # ------------------------------------------------------------------
    def _on_commit_wave(self, wave: List[AcceptedEntry]) -> None:
        self.stats.waves += 1
        for entry in wave:
            self._trace("committed", entry.instance, seq=entry.seq)
            if entry.instance.proposer == self.pid:
                self.stats.batches_committed_own += 1
                proposed = self._proposed_at.get(entry.instance)
                if proposed is not None:
                    self.stats.own_batch_latencies_us.append(self.sim.now - proposed)
        items = self.commit.decryption_shares_for(wave)
        if items:
            self.stats.dshare_batches += 1
            self._broadcast_decryption_shares(items)

    def _broadcast_decryption_shares(
        self, items: List[Tuple[InstanceId, Any]]
    ) -> None:
        """Commit-reveal, Lemma 7: publish our decryption shares.

        Attack hook: selective-reveal subclasses withhold, delay, or
        per-victim target this broadcast without touching the commit rule.
        """
        self.services.broadcast(
            DSHARE_KIND,
            {"items": tuple(items)},
            sum(s.wire_size() for _, s in items),
        )

    def _on_dshare(self, payload: dict, sender: int) -> None:
        for item in payload.get("items", ()):
            try:
                iid, share = item
            except (TypeError, ValueError):
                continue
            if not isinstance(iid, InstanceId):
                continue
            if is_reveal_share(share, self.obf.name):
                self.commit.on_decryption_share(iid, share, sender)
            else:
                self.stats.malformed_dshares += 1

    def _on_execute(self, entry: AcceptedEntry, plaintext: bytes) -> None:
        try:
            batch = Batch.deserialize(
                entry.instance.proposer, entry.instance.batch_no, plaintext
            )
        except ValueError:
            return  # a Byzantine proposer encrypted garbage
        # First-commit-wins execution dedup: a Byzantine replica can copy a
        # victim's opaque cipher into its own instance (cipher replay), but
        # since the payload still carries the victim's identity, the copy
        # merely executes the victim's intent once — re-executions are
        # dropped here, so replays gain the attacker nothing (§VI-D).
        fresh = tuple(
            tx for tx in batch.txs if tx.key() not in self._executed_tx_keys
        )
        self._executed_tx_keys.update(tx.key() for tx in fresh)
        if len(fresh) != len(batch.txs):
            self.stats.replayed_txs_dropped += len(batch.txs) - len(fresh)
        batch = Batch(batch.proposer, batch.batch_no, fresh)
        self._trace("executed", entry.instance, txs=len(batch), seq=entry.seq)
        self._schedule_gc(entry.instance)
        self.stats.txs_executed += len(batch)
        for tx in batch.txs:
            client = self._tx_origin.pop(tx.key(), None)
            if client is not None:
                self.send(
                    client,
                    Message(
                        CLIENT_REPLY_KIND,
                        {"key": tx.key(), "seq": entry.seq},
                        24,
                    ),
                )
        self.mempool.drop_committed(batch.txs)
        if self.on_executed is not None:
            self.on_executed(entry, batch)

    # ------------------------------------------------------------------
    # Crash–recovery with state transfer
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Crash-stop.  The committed log (and its reveal material) is
        modelled as fsynced before every output, so it survives; all other
        protocol state is volatile and dies with the process."""
        if self.commit is not None:
            self._durable_snapshot = self.commit.snapshot()
        super().crash()

    def recover(self) -> None:
        """Come back as a fresh incarnation: restore the durable snapshot,
        wipe volatile state, and re-derive the committed prefix from peers
        before resuming normal commit processing."""
        if not self.crashed:
            return
        super().recover()
        self.recoveries += 1
        # Volatile protocol state is gone.
        for instance in self._instances.values():
            instance.discard()
        self._instances.clear()
        self._awaiting_message.clear()
        self._s_ref.clear()
        self._proposed_at.clear()
        self._preds.clear()
        self._own_batches.clear()
        self._tx_origin.clear()
        self.mempool = Mempool(self.config.batch_size)
        # The perceived-sequence cache is volatile too.  Keeping it would
        # let retransmitted pre-crash INITs replay with their old (cached)
        # observation times, pass Equation 1, and wedge ``min_pending`` on
        # instances the rest of the cluster finished long ago.
        self.perceived = PerceivedSequence(self.clock)
        if self.commit is None:
            return
        self.commit.perceived = self.perceived
        if self._durable_snapshot is not None:
            self.commit.restore(self._durable_snapshot)
        self._trace("recovered", None, log_len=len(self.commit.output_log))
        # Re-arm the periodic machinery the crash cancelled.
        self.timers.set(
            "status", self.config.status_interval_us, self._status_tick
        )
        self.timers.set(
            "batch-flush", self.config.batch_timeout_us, self._batch_flush_tick
        )
        self.timers.set("probe-refresh", PROBE_REFRESH_US, self._probe_refresh)
        # Distance estimates are stale: re-probe once.
        self._send_probe()
        # State transfer: suspend the commit rule and pull the committed
        # prefix from peers until a quorum confirms we have caught up.
        self._catchup_votes.clear()
        self._catchup_material.clear()
        self._catchup_pt_votes.clear()
        self._catchup_totals.clear()
        self.commit.begin_catchup()
        self._request_catchup()

    def _request_catchup(self) -> None:
        if self.commit is None or not self.commit.catching_up:
            return
        self.services.broadcast(
            CATCHUP_REQ_KIND, {"have": len(self.commit.output_log)}, 16
        )
        # Keep asking until done: requests or responses may be lost.
        self.timers.set(
            "catchup-retry", 2 * self.config.status_interval_us, self._request_catchup
        )

    def _on_catchup_req(self, payload: dict, sender: int) -> None:
        have = payload.get("have")
        if not isinstance(have, int) or have < 0 or self.commit is None:
            return
        total, items = self.commit.catchup_items(have, CATCHUP_CHUNK)
        self.send(
            sender,
            Message(
                CATCHUP_RSP_KIND,
                {"total": total, "have": have, "items": items},
            ),
        )

    def _on_catchup_rsp(self, payload: dict, sender: int) -> None:
        if self.commit is None or not self.commit.catching_up:
            return
        total = payload.get("total")
        base = payload.get("have")
        items = payload.get("items", ())
        if not (
            isinstance(total, int)
            and isinstance(base, int)
            and isinstance(items, (tuple, list))
        ):
            self.stats.malformed_messages += 1
            return
        self._catchup_totals[sender] = total
        for offset, item in enumerate(items):
            try:
                entry, cipher, plaintext = item
            except (TypeError, ValueError):
                continue
            if not isinstance(entry, AcceptedEntry) or not (
                plaintext is None or isinstance(plaintext, bytes)
            ):
                continue
            pos = base + offset
            if pos < len(self.commit.output_log):
                continue  # already adopted (or durably ours)
            self._catchup_votes.setdefault(pos, {}).setdefault(entry, set()).add(sender)
            if cipher is not None and (pos, entry) not in self._catchup_material:
                self._catchup_material[(pos, entry)] = (cipher, None)
            if plaintext is not None:
                self._catchup_pt_votes.setdefault(
                    (pos, entry, plaintext), set()
                ).add(sender)
        self._drain_catchup()

    def _drain_catchup(self) -> None:
        """Adopt quorum-confirmed log entries in order, then check whether
        a quorum says we have the whole log."""
        quorum = self.f + 1
        adopted = True
        while adopted:
            adopted = False
            pos = len(self.commit.output_log)
            candidates = self._catchup_votes.get(pos)
            if not candidates:
                break
            for entry, senders in candidates.items():
                if len(senders) < quorum:
                    continue
                # f+1 distinct replicas vouch for this entry at this
                # position, so at least one correct one does.
                cipher, _ = self._catchup_material.get((pos, entry), (None, None))
                plaintext = None
                for (p, e, pt), voters in self._catchup_pt_votes.items():
                    if p == pos and e == entry and len(voters) >= quorum:
                        plaintext = pt
                        break
                self.commit.adopt_entry(entry, cipher, plaintext)
                self._trace("catchup_adopt", entry.instance, seq=entry.seq, pos=pos)
                del self._catchup_votes[pos]
                adopted = True
                break
        caught_up = sum(
            1
            for total in self._catchup_totals.values()
            if total <= len(self.commit.output_log)
        )
        if caught_up >= quorum:
            self._finish_catchup()

    def _finish_catchup(self) -> None:
        self.timers.cancel("catchup-retry")
        self._catchup_votes.clear()
        self._catchup_material.clear()
        self._catchup_pt_votes.clear()
        self._catchup_totals.clear()
        self._trace("catchup_done", None, log_len=len(self.commit.output_log))
        self.commit.end_catchup()

    # ------------------------------------------------------------------
    # Heartbeat
    # ------------------------------------------------------------------
    def _status_tick(self) -> None:
        self.services.broadcast(STATUS_KIND, {}, 8)
        self.timers.set(
            "status", self.config.status_interval_us, self._status_tick
        )

    # ------------------------------------------------------------------
    # Introspection for tests and experiments
    # ------------------------------------------------------------------
    def output_sequence(self) -> List[Tuple[int, bytes]]:
        return self.commit.output_sequence() if self.commit else []

    def work_pending(self) -> bool:
        """Accepted-but-uncommitted or pending instances (the watchdog's
        liveness check)."""
        commit = self.commit
        return commit is not None and bool(commit.accepted or commit.pending)

    def executed_count(self) -> int:
        return self.commit.executed_count if self.commit else 0


__all__ = [
    "LyraNode",
    "LyraConfig",
    "NodeStats",
    "DEFAULT_WARMUP_ROUNDS",
    "DEFAULT_WARMUP_SPACING_US",
    "warmup_duration_us",
    "PROBE_KIND",
    "PROBE_ACK_KIND",
    "CLIENT_TX_KIND",
    "CLIENT_REPLY_KIND",
    "CATCHUP_REQ_KIND",
    "CATCHUP_RSP_KIND",
]
