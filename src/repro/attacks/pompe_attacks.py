"""Byzantine behaviours against Pompē.

- :class:`CherryPickingOrdererNode` — Fig. 1's colluding orderer: it biases
  the assigned timestamp of every batch it orders downward by waiting for
  *all* timestamp replies and keeping only the lowest 2f+1 (an honest
  orderer takes the first quorum).  Protocol-legal for a Byzantine node:
  the certificate still carries 2f+1 valid signatures.  The colocated MEV
  bot does the reacting; this replica only orders the bot's front-runs.
- :class:`CensoringLeaderNode` — a HotStuff leader that silently omits
  certificates from victim proposers, demonstrating the leader-based
  censorship §I attributes to Fino-style protocols (and which leaderless
  Lyra removes by construction).
"""

from __future__ import annotations

from typing import Iterable, Set

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


__all__ = ["CherryPickingOrdererNode", "CensoringLeaderNode"]
