"""Fino-style commit-reveal SMR (Malkhi & Szalachowski [23]) — simplified.

The paper's introduction contrasts Lyra with Fino: a leader-based protocol
that, like Lyra, obfuscates payloads with commit-reveal ("blind
order-fairness"), but where ordering is chosen by a leader.  The critique
(§I): obfuscation alone does not give order fairness — *"it does not
prevent a malicious leader from omitting transactions from up to f
processes.  Although the underlying DAG may resubmit a transaction t
later, t has effectively been reordered."*

This module reproduces exactly that trade-off with a minimal faithful
construction (we use our HotStuff substrate where Fino uses a DAG; the
leader's power over ordering — the property under study — is the same):

1. a replica batches client transactions, encrypts the batch with the
   hash-commit scheme, and submits the *cipher* to the current leader;
2. the leader sequences ciphers into blocks (it cannot read them, but it
   can see who proposed them);
3. once a block is decided, each proposer reveals its own ciphers'
   openings; replicas execute in block order upon reveal.

So: content-based front-running is impossible (like Lyra), but a
Byzantine leader can still discriminate by *proposer* — see
:class:`BlindCensoringLeaderFino` and the censorship experiment rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.baselines.hotstuff import Block, HotStuffParticipant, PHASE_KIND, PROPOSE_KIND, VOTE_KIND
from repro.core.batching import Mempool
from repro.core.node import CLIENT_REPLY_KIND, CLIENT_TX_KIND
from repro.core.obfuscation import HashCommitObfuscation
from repro.core.services import ProtocolServices
from repro.core.types import Batch, Transaction
from repro.crypto.cost import CryptoCosts, DEFAULT_COSTS
from repro.crypto.signatures import KeyRegistry
from repro.crypto.threshold import ThresholdScheme
from repro.crypto.vss_encryption import VssError
from repro.net.message import Message
from repro.sim.engine import MILLISECONDS, Simulator
from repro.sim.process import SimProcess
from repro.sim.rng import RngRegistry

REVEAL_KIND = "fino.reveal"


@dataclass(frozen=True)
class CipherRef:
    """What the leader sequences: an opaque cipher plus its proposer."""

    cipher: Any  # HashCommitCipher
    proposer: int
    batch_no: int

    @property
    def payload_id(self) -> bytes:
        return self.cipher.cipher_id

    def wire_size(self) -> int:
        return self.cipher.wire_size() + 8

    def canonical(self) -> tuple:
        return (self.cipher.cipher_id, self.proposer, self.batch_no)


@dataclass
class FinoConfig:
    batch_size: int = 800
    batch_timeout_us: int = 50 * MILLISECONDS
    costs: CryptoCosts = field(default_factory=lambda: DEFAULT_COSTS)


@dataclass
class FinoStats:
    batches_proposed: int = 0
    txs_executed: int = 0
    #: Client transactions, reveals and HotStuff messages dropped at the
    #: door: a field of the wrong type.
    malformed_messages: int = 0


class FinoNode(SimProcess):
    """One Fino-style replica: commit-reveal proposals, leader-sequenced."""

    def __init__(
        self,
        pid: int,
        sim: Simulator,
        *,
        n: int,
        f: int,
        registry: KeyRegistry,
        threshold: ThresholdScheme,
        obfuscation: HashCommitObfuscation,
        config: Optional[FinoConfig] = None,
        rng: Optional[RngRegistry] = None,
    ) -> None:
        super().__init__(pid, sim)
        self.n, self.f = n, f
        self.registry = registry
        self.threshold_scheme = threshold
        self.obf = obfuscation
        self.config = config or FinoConfig()
        self.costs = self.config.costs
        # Constant receive costs; ``_receive_cost`` covers the rest.
        self._RECEIVE_COSTS = {
            VOTE_KIND: self.costs.share_verify_us,
            PHASE_KIND: self.costs.threshold_verify_us,
            REVEAL_KIND: self.costs.open_commit_us,
        }
        self.rng = (rng or RngRegistry(0)).get("fino", str(pid))
        self.mempool = Mempool(self.config.batch_size)
        self.stats = FinoStats()

        self.services: Optional[ProtocolServices] = None
        self.hotstuff: Optional[HotStuffParticipant] = None
        self._batch_counter = 0
        self._tx_origin: Dict[Tuple[int, int], int] = {}
        # Decided-but-unrevealed ciphers, in decided order.
        self._pending_reveal: List[CipherRef] = []
        self._revealed: Dict[bytes, bytes] = {}  # cipher_id -> plaintext
        self._executed: Set[bytes] = set()
        self.executed_log: List[Tuple[int, bytes]] = []  # (height, cipher_id)
        self.on_executed: Optional[Callable[[Batch], None]] = None
        self._started = False

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
        self.hotstuff = HotStuffParticipant(self.services, on_decide=self._on_decide)

    def _count_malformed(self) -> None:
        self.stats.malformed_messages += 1

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.hotstuff.start()
        self.timers.set(
            "batch-flush", self.config.batch_timeout_us, self._flush_tick
        )

    # ------------------------------------------------------------------
    def _receive_cost(self, message: Message) -> int:
        if message.kind == PROPOSE_KIND:
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
                self.stats.malformed_messages += 1
        elif kind == REVEAL_KIND:
            self._on_reveal(payload, sender)
        elif self.hotstuff is not None:
            self.hotstuff.handle(kind, payload, sender)

    # ------------------------------------------------------------------
    # Propose path: encrypt, hand the cipher to the leader
    # ------------------------------------------------------------------
    def submit(self, tx: Transaction, client_pid: Optional[int] = None) -> None:
        if client_pid is not None:
            self._tx_origin[tx.key()] = client_pid
        if self.mempool.add(tx):
            while self.mempool.full:
                self._propose(self.mempool.take_batch())

    def _flush_tick(self) -> None:
        if len(self.mempool) > 0:
            self._propose(self.mempool.take_batch())
        self.timers.set(
            "batch-flush", self.config.batch_timeout_us, self._flush_tick
        )

    def _propose(self, txs: List[Transaction]) -> None:
        if not txs:
            return
        batch = Batch(self.pid, self._batch_counter, tuple(txs))
        self._batch_counter += 1
        self.charge(self.costs.commit_us + self.costs.hash_us(batch.wire_size()))
        cipher = self.obf.encrypt(batch.serialize(), self.rng, self.pid)
        self.stats.batches_proposed += 1
        self.hotstuff.submit(CipherRef(cipher, self.pid, batch.batch_no))

    # ------------------------------------------------------------------
    # Decide → reveal → execute
    # ------------------------------------------------------------------
    def _on_decide(self, block: Block) -> None:
        for ref in block.payloads:
            if not isinstance(ref, CipherRef):
                continue
            if ref.cipher.cipher_id in self._executed:
                continue
            self._pending_reveal.append(ref)
            if ref.proposer == self.pid:
                # Our cipher committed: broadcast the opening.
                try:
                    share = self.obf.partial_decrypt(ref.cipher, self.pid)
                except VssError:
                    continue
                self.services.broadcast(
                    REVEAL_KIND,
                    {"cid": ref.cipher.cipher_id, "share": share},
                    share.wire_size(),
                )
        self._drain()

    def _on_reveal(self, payload: dict, sender: int) -> None:
        cid = payload.get("cid")
        share = payload.get("share")
        if not isinstance(cid, bytes) or share is None:
            self.stats.malformed_messages += 1
            return
        for ref in self._pending_reveal:
            if ref.cipher.cipher_id == cid:
                if self.obf.verify_decryption_share(ref.cipher, share):
                    try:
                        self._revealed[cid] = self.obf.decrypt(ref.cipher, [share])
                    except VssError:
                        return
                break
        self._drain()

    def _drain(self) -> None:
        """Execute decided ciphers in order as their reveals arrive."""
        while self._pending_reveal:
            ref = self._pending_reveal[0]
            plaintext = self._revealed.pop(ref.cipher.cipher_id, None)
            if plaintext is None:
                return  # head-of-line blocked on its proposer's reveal
            self._pending_reveal.pop(0)
            self._executed.add(ref.cipher.cipher_id)
            self.executed_log.append((len(self.executed_log), ref.cipher.cipher_id))
            try:
                batch = Batch.deserialize(ref.proposer, ref.batch_no, plaintext)
            except ValueError:
                continue
            self.stats.txs_executed += len(batch)
            for tx in batch.txs:
                client = self._tx_origin.pop(tx.key(), None)
                if client is not None:
                    self.send(
                        client,
                        Message(CLIENT_REPLY_KIND, {"key": tx.key(), "seq": 0}, 24),
                    )
            self.mempool.drop_committed(batch.txs)
            if self.on_executed is not None:
                self.on_executed(batch)

    def output_sequence(self) -> List[Tuple[int, bytes]]:
        return list(self.executed_log)

    def work_pending(self) -> bool:
        """Unbatched transactions, decided ciphers awaiting their reveal,
        or undecided HotStuff blocks that carry payloads (the watchdog's
        liveness check)."""
        return (
            len(self.mempool) > 0
            or bool(self._pending_reveal)
            or self.hotstuff.payloads_pending()
        )


class BlindCensoringLeaderFino(FinoNode):
    """A Byzantine Fino leader: it cannot *read* any cipher, yet it can
    still discriminate by proposer and silently drop a victim's ciphers —
    the reordering power commit-reveal alone does not remove (§I)."""

    def __init__(self, *args, censored=(), **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.censored: Set[int] = set(censored)
        self.censored_count = 0

    def _process(self, message: Message, sender: int) -> None:
        if message.kind == "hs.request":
            payload = message.payload if isinstance(message.payload, dict) else {}
            ref = payload.get("payload")
            if isinstance(ref, CipherRef) and ref.proposer in self.censored:
                self.censored_count += 1
                return
        super()._process(message, sender)


__all__ = [
    "FinoNode",
    "FinoConfig",
    "FinoStats",
    "CipherRef",
    "BlindCensoringLeaderFino",
    "REVEAL_KIND",
]
