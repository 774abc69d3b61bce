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
:class:`~repro.attacks.pompe_attacks.BlindCensoringLeaderFino` and the
censorship experiment rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.baselines.hotstuff import Block, HotStuffParticipant, PHASE_KIND, PROPOSE_KIND, VOTE_KIND
from repro.core.obfuscation import HashCommitObfuscation
from repro.core.replica import CLIENT_TX_KIND, Replica
from repro.core.types import Batch, Transaction
from repro.crypto.cost import CryptoCosts, DEFAULT_COSTS
from repro.crypto.vss_encryption import VssError
from repro.net.message import Message
from repro.sim.engine import MILLISECONDS, Simulator

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


class FinoNode(Replica):
    """One Fino-style replica: commit-reveal proposals, leader-sequenced."""

    _RNG_STREAM = "fino"

    def __init__(
        self,
        pid: int,
        sim: Simulator,
        *,
        obfuscation: HashCommitObfuscation,
        config: Optional[FinoConfig] = None,
        **identity,
    ) -> None:
        super().__init__(pid, sim, config=config or FinoConfig(), **identity)
        self.obf = obfuscation
        # Constant receive costs; ``_receive_cost`` covers the rest.
        self._RECEIVE_COSTS = {
            VOTE_KIND: self.costs.share_verify_us,
            PHASE_KIND: self.costs.threshold_verify_us,
            REVEAL_KIND: self.costs.open_commit_us,
        }
        self.stats = FinoStats()
        self.hotstuff: Optional[HotStuffParticipant] = None
        # Decided-but-unrevealed ciphers, in decided order.
        self._pending_reveal: List[CipherRef] = []
        self._revealed: Dict[bytes, bytes] = {}  # cipher_id -> plaintext
        self._executed_ids: Set[bytes] = set()
        self.executed_log: List[Tuple[int, bytes]] = []  # (height, cipher_id)

    # ------------------------------------------------------------------
    def attach(self, network) -> None:
        super().attach(network)
        self.hotstuff = HotStuffParticipant(self.services, on_decide=self._on_decide)

    def _arm_timers(self) -> None:
        self.hotstuff.start()
        self._arm_batch_flush()

    # ------------------------------------------------------------------
    def _receive_cost(self, message: Message) -> int:
        if message.kind == PROPOSE_KIND:
            return self.costs.hash_us(message.size)
        return 2

    def _process(self, message: Message, sender: int) -> None:
        payload = message.payload if isinstance(message.payload, dict) else {}
        kind = message.kind
        if kind == CLIENT_TX_KIND:
            self._on_client_tx(payload, sender)
        elif kind == REVEAL_KIND:
            self._on_reveal(payload, sender)
        elif self.hotstuff is not None:
            self.hotstuff.handle(kind, payload, sender)

    # ------------------------------------------------------------------
    # Propose path: encrypt, hand the cipher to the leader
    # ------------------------------------------------------------------
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
            if ref.cipher.cipher_id in self._executed_ids:
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
            self._executed_ids.add(ref.cipher.cipher_id)
            self.executed_log.append((len(self.executed_log), ref.cipher.cipher_id))
            try:
                batch = Batch.deserialize(ref.proposer, ref.batch_no, plaintext)
            except ValueError:
                continue
            self._executed(batch)
            # The leader sequenced ciphers: execution is the first look.
            self._readable(batch)

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


__all__ = [
    "FinoNode",
    "FinoConfig",
    "FinoStats",
    "CipherRef",
    "REVEAL_KIND",
]
