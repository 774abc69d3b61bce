"""Byzantine behaviours against Pompē.

- :class:`CherryPickingOrdererNode` — Fig. 1's Mallory: watches the
  clear-text ordering phase; when the victim's transaction appears, she
  instantly issues her own front-running transaction, and biases its
  assigned timestamp downward by waiting for *all* timestamp replies and
  keeping only the lowest 2f+1 (an honest orderer takes the first quorum).
  Both moves are protocol-legal for a Byzantine node: the certificate
  still carries 2f+1 valid signatures.
- :class:`CensoringLeaderNode` — a HotStuff leader that silently omits
  certificates from victim proposers, demonstrating the leader-based
  censorship §I attributes to Fino-style protocols (and which leaderless
  Lyra removes by construction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Set

from repro.baselines.pompe import OrderingCert, PompeNode
from repro.core.types import Batch, Transaction
from repro.crypto.signatures import Signature

#: Body prefixes marking the victim's and the attacker's transactions in
#: attack experiments (the "content" Mallory profits from reacting to).
VICTIM_MARKER = b"VICTM"
ATTACK_MARKER = b"ATTCK"


def batch_contains(batch: Batch, marker: bytes) -> bool:
    return any(tx.body.startswith(marker) for tx in batch.txs)


@dataclass
class ObservingAttacker:
    """Bookkeeping shared by attack nodes: when the victim's payload was
    first observed and when the attack transaction was launched."""

    observed_at_us: Optional[int] = None
    attacked_at_us: Optional[int] = None

    @property
    def reacted(self) -> bool:
        return self.attacked_at_us is not None


class CherryPickingOrdererNode(PompeNode):
    """Mallory: observe clear-text batches, front-run, cherry-pick medians."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.attack = ObservingAttacker()
        self._attack_nonce = 0
        self.observe_batch = self._observe

    # -- observation + reaction ---------------------------------------
    def _observe(self, batch: Batch, sender: int) -> None:
        if self.attack.reacted or not batch_contains(batch, VICTIM_MARKER):
            return
        self.attack.observed_at_us = self.sim.now
        self.attack.attacked_at_us = self.sim.now
        front_run = Transaction(
            client_id=self.pid, nonce=self._attack_nonce, body=ATTACK_MARKER
        )
        self._attack_nonce += 1
        # Bypass batching: one-transaction batch, ordered immediately.
        self._start_ordering([front_run])

    # -- timestamp cherry-picking --------------------------------------
    def _on_order_ts(self, payload: dict, sender: int) -> None:
        digest = payload.get("digest")
        ts = payload.get("ts")
        sig = payload.get("sig")
        state = self._pending_order.get(digest)
        if state is None or not isinstance(ts, int) or not isinstance(sig, Signature):
            return
        if sender in state["replies"]:
            return
        if not self.registry.verify((digest, ts), sig, sender):
            return
        state["replies"][sender] = (ts, sig)
        quorum = 2 * self.f + 1
        # Byzantine deviation: wait for every replica's reply (or a 2Δ
        # timer) and then keep only the lowest 2f+1 timestamps.
        if len(state["replies"]) == quorum:
            self.timers.set(
                f"cherry-{digest.hex()[:12]}",
                2 * self.services.delta_us,
                lambda d=digest: self._finalize_cherry(d),
            )
        if len(state["replies"]) == self.n:
            self._finalize_cherry(digest)

    def _finalize_cherry(self, digest: bytes) -> None:
        state = self._pending_order.pop(digest, None)
        if state is None:
            return
        self.timers.cancel(f"cherry-{digest.hex()[:12]}")
        quorum = 2 * self.f + 1
        picked = sorted(
            ((pid, t, s) for pid, (t, s) in state["replies"].items()),
            key=lambda e: e[1],
        )[:quorum]
        times = sorted(t for _, t, _ in picked)
        median = times[self.f]
        cert = OrderingCert(state["batch"], digest, median, tuple(picked))
        self.stats.batches_ordered += 1
        self.hotstuff.submit(cert)


class CensoringLeaderNode(PompeNode):
    """A HotStuff leader that drops certificates from censored proposers."""

    def __init__(self, *args, censored: Iterable[int] = (), **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.censored: Set[int] = set(censored)
        self.censored_count = 0

    def _process(self, message, sender: int) -> None:
        if message.kind == "hs.request":
            payload = message.payload if isinstance(message.payload, dict) else {}
            cert = payload.get("payload")
            if (
                isinstance(cert, OrderingCert)
                and cert.batch.proposer in self.censored
            ):
                self.censored_count += 1
                return  # silently dropped
        super()._process(message, sender)

    def submit(self, tx, client_pid=None):  # own certs are never censored
        super().submit(tx, client_pid)


__all__ = [
    "CherryPickingOrdererNode",
    "CensoringLeaderNode",
    "ObservingAttacker",
    "VICTIM_MARKER",
    "ATTACK_MARKER",
    "batch_contains",
]
