"""Byzantine behaviours against the HotStuff baselines, Pompē and Fino.

- :class:`CherryPickingOrdererNode` — Fig. 1's colluding orderer: it biases
  the assigned timestamp of every batch it orders downward by waiting for
  *all* timestamp replies and keeping only the lowest 2f+1 (an honest
  orderer takes the first quorum).  Protocol-legal for a Byzantine node:
  the certificate still carries 2f+1 valid signatures.  The colocated MEV
  bot does the reacting; this replica only orders the bot's front-runs.
- :class:`CensoringLeaderNode` and :class:`BlindCensoringLeaderFino` — a
  HotStuff leader that silently omits the payloads of victim proposers,
  the leader-based censorship §I attributes to Fino-style protocols (and
  which leaderless Lyra removes by construction).  Fino's leader cannot
  read a cipher, yet it still sees who proposed it, so both share one drop.
"""

from __future__ import annotations

from typing import Iterable, Set

from repro.baselines.fino import CipherRef, FinoNode
from repro.baselines.hotstuff import REQUEST_KIND
from repro.baselines.pompe import OrderingCert, PompeNode


class CherryPickingOrdererNode(PompeNode):
    """Mallory's replica: cherry-picks the lowest 2f+1 timestamps."""

    def _on_timestamp_reply(self, digest: bytes, state: dict) -> None:
        # Byzantine deviation: wait for every replica's reply (or a 2Δ
        # timer) and then keep only the lowest 2f+1 timestamps.
        replies = len(state["replies"])
        if replies == 2 * self.f + 1:
            self.timers.set(
                f"cherry-{digest.hex()[:12]}",
                2 * self.services.delta_us,
                lambda d=digest: self._finalize_cherry(d),
            )
        if replies == self.n:
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


class _CensoringLeader:
    """The drop both censoring leaders share: a request whose payload
    (a certificate or a cipher) names a censored proposer never reaches
    the leader's queue.  Mixed in ahead of the protocol's replica class."""

    def __init__(self, *args, censored: Iterable[int] = (), **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.censored: Set[int] = set(censored)
        self.censored_count = 0

    def _process(self, message, sender: int) -> None:
        if message.kind == REQUEST_KIND:
            payload = message.payload if isinstance(message.payload, dict) else {}
            item = payload.get("payload")
            if (
                isinstance(item, (OrderingCert, CipherRef))
                and item.proposer in self.censored
            ):
                self.censored_count += 1
                return  # silently dropped
        super()._process(message, sender)


class CensoringLeaderNode(_CensoringLeader, PompeNode):
    """A Pompē HotStuff leader that drops certificates from censored
    proposers."""


class BlindCensoringLeaderFino(_CensoringLeader, FinoNode):
    """A Byzantine Fino leader: it cannot *read* any cipher, yet it can
    still discriminate by proposer and silently drop a victim's ciphers —
    the reordering power commit-reveal alone does not remove (§I)."""


__all__ = [
    "CherryPickingOrdererNode",
    "CensoringLeaderNode",
    "BlindCensoringLeaderFino",
]
