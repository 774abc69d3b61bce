"""Byzantine Lyra replicas (§VI-D behaviours).

Each class deviates from :class:`~repro.core.node.LyraNode` in exactly one
way, so experiments can attribute effects:

- :class:`EquivocatingNode` — sends *different* (cipher, S_t) INITs to two
  halves of the network.  VVB-Unicity guarantees at most one version can
  gather 2f+1 validations, so the instance either delivers one version or
  rejects.
- :class:`SilentProposerNode` — sends its INIT to only ``reach`` replicas.
  The expiration timeout (Algorithm 1 lines 23-24) forces the instance to
  resolve (typically reject) instead of hanging, and forwards the INIT.
- :class:`FloodingNode` — proposes valid batches as fast as possible to
  dilute chain quality (§VI-D's flooding discussion).
- :class:`FutureSequenceNode` — requests sequence numbers far in the
  future to bloat correct replicas' memory; the ``future_bound_us``
  mitigation rejects them.
- :class:`PrefixStallerNode` — piggybacks artificially low locked /
  min-pending values to stall commit progress; the top-2f+1 selection rule
  (Algorithm 4 lines 83-85) makes it harmless for f < n/3.
- :class:`BackdatingNode` — Fig. 1's Mallory against Lyra: once it can
  read another proposer's payload (at execution), it proposes an instance
  whose predictions claim a sequence number just before that payload's.
  The acceptance window (Equation 1) rejects it at every correct replica.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.node import LyraNode
from repro.core.types import Batch, InstanceId, Transaction
from repro.core.vvb import INIT_KIND, message_digest
from repro.net.message import Message


class EquivocatingNode(LyraNode):
    """Broadcasts version A of its batch to even pids, version B to odd."""

    def _propose_batch(self, txs: List[Transaction]) -> None:
        if len(txs) < 1:
            return
        iid = InstanceId(self.pid, self._batch_counter)
        self._batch_counter += 1
        # Two conflicting versions of "the same" instance.
        batch_a = Batch(self.pid, iid.batch_no, tuple(txs))
        batch_b = Batch(self.pid, iid.batch_no, tuple(reversed(txs)))
        s_ref = self.clock.now()
        preds = self.estimator.predict(s_ref)
        self.stats.batches_proposed += 1
        for group, batch in ((0, batch_a), (1, batch_b)):
            cipher = self.obf.encrypt(batch.serialize(), self.rng, self.pid)
            digest = message_digest(iid, cipher.cipher_id, preds)
            sigma = self.services.signer.sign(digest)
            payload = {
                "iid": iid,
                "cipher": cipher,
                "preds": preds,
                "sigma": sigma,
                "pb": self.commit.piggyback(),
            }
            message = Message(INIT_KIND, payload, cipher.wire_size() + 128)
            for dst in self.network.pids():
                if dst % 2 == group:
                    self.send(dst, message)


class SilentProposerNode(LyraNode):
    """Sends its INIT to only the first ``reach`` replicas."""

    def __init__(self, *args, reach: int = 0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.reach = reach

    def _proto_broadcast(self, message: Message) -> None:
        if message.kind == INIT_KIND:
            message.payload["pb"] = self.commit.piggyback()
            targets = self.network.pids()[: self.reach]
            for dst in targets:
                self.send(dst, message)
            return
        super()._proto_broadcast(message)


class FloodingNode(LyraNode):
    """Proposes batches of junk transactions at a configurable rate."""

    def __init__(self, *args, flood_interval_us: int = 5_000, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.flood_interval_us = flood_interval_us
        self._flood_nonce = 0

    def start(self) -> None:
        super().start()
        self.timers.set("flood", self.flood_interval_us, self._flood_tick)

    def _flood_tick(self) -> None:
        txs = []
        for _ in range(self.config.batch_size):
            txs.append(
                Transaction(self.pid, self._flood_nonce, b"JUNK")
            )
            self._flood_nonce += 1
        self._propose_batch(txs)
        self.timers.set("flood", self.flood_interval_us, self._flood_tick)


class FutureSequenceNode(LyraNode):
    """Requests sequence numbers ``offset_us`` in the future (memory
    saturation attack, §VI-D)."""

    def __init__(self, *args, offset_us: int = 3_600_000_000, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.offset_us = offset_us

    def _propose_batch(self, txs: List[Transaction]) -> None:
        if not txs:
            return
        iid = InstanceId(self.pid, self._batch_counter)
        self._batch_counter += 1
        batch = Batch(self.pid, iid.batch_no, tuple(txs))
        cipher = self.obf.encrypt(batch.serialize(), self.rng, self.pid)
        s_ref = self.clock.now()
        self._s_ref[iid] = s_ref
        # Honest prediction plus a huge uniform shift: Equation 1 still
        # holds per-validator (|seq_i - S_t[i]| uses the *predicted* value,
        # which we shift consistently)... except validators perceive c_t at
        # the honest time, so the shift breaks Equation 1 unless it is
        # within lambda.  The shifted request instead targets the
        # future-bound check: s far beyond every acceptance window.
        preds = tuple(p + self.offset_us for p in self.estimator.predict(s_ref))
        self._proposed_at[iid] = self.sim.now
        self.stats.batches_proposed += 1
        self._instance(iid).propose(cipher, preds)


class PrefixStallerNode(LyraNode):
    """Reports absurdly low locked / min-pending values (Algorithm 4's
    remark: mitigated by using the 2f+1 *highest* reports)."""

    def _proto_broadcast(self, message: Message) -> None:
        if self.commit is not None:
            report = self.commit.piggyback()
            message.payload["pb"] = report._replace(
                locked=-(1 << 50), minp=-(1 << 50)
            )
            message.size += self.commit.piggyback_size()
            self._charge_send_cost(message)
            self.broadcast(message)
            return
        super()._proto_broadcast(message)


class CipherReplayNode(LyraNode):
    """Copies the first foreign cipher it sees into its own instance.

    The strongest "replay" available under commit-reveal: the attacker
    cannot read or re-author the payload, only duplicate the opaque cipher.
    Since the plaintext still carries the victim's identity, the duplicate
    merely executes the victim's intent (once — replicas dedup executions
    by transaction key), so the attack gains nothing.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.replayed_cipher_id = None

    def _dispatch_instance(self, kind, payload, sender):
        from repro.core.vvb import INIT_KIND

        if (
            kind == INIT_KIND
            and self.replayed_cipher_id is None
            and isinstance(payload.get("iid"), InstanceId)
            and payload["iid"].proposer != self.pid
            and payload.get("cipher") is not None
        ):
            cipher = payload["cipher"]
            self.replayed_cipher_id = cipher.cipher_id
            iid = InstanceId(self.pid, self._batch_counter)
            self._batch_counter += 1
            s_ref = self.clock.now()
            self._s_ref[iid] = s_ref
            preds = self.estimator.predict(s_ref)
            self._instance(iid).propose(cipher, preds)
        super()._dispatch_instance(kind, payload, sender)


class BackdatingNode(LyraNode):
    """Front-runs the first payload it can read, with a backdated request.

    Lyra payloads stay encrypted until their prefix commits, so the first
    moment this replica can react to another proposer's content is that
    batch's execution.  It then proposes one instance whose predictions
    claim ``seq - 1 000 µs`` at every replica — a lie by then, so every
    correct replica decides 0.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.backdated: Optional[InstanceId] = None

    def _on_execute(self, entry, plaintext: bytes) -> None:
        super()._on_execute(entry, plaintext)
        if self.backdated is None and entry.instance.proposer != self.pid:
            self._propose_backdated(entry.seq - 1_000)

    def _propose_backdated(self, seq: int) -> None:
        iid = InstanceId(self.pid, self._batch_counter)
        self._batch_counter += 1
        self.backdated = iid
        batch = Batch(self.pid, iid.batch_no, (Transaction(self.pid, 0),))
        cipher = self.obf.encrypt(batch.serialize(), self.rng, self.pid)
        self._s_ref[iid] = seq
        self._instance(iid).propose(cipher, (seq,) * self.n)


__all__ = [
    "BackdatingNode",
    "EquivocatingNode",
    "SilentProposerNode",
    "FloodingNode",
    "FutureSequenceNode",
    "PrefixStallerNode",
    "CipherReplayNode",
]
