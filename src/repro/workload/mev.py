"""MEV-bot adversarial clients: sandwich attacks against observed swaps.

The bot is the workload-level half of the paper's Fig. 1 story.  It sits
next to ("colocated with") a replica and is *notified* whenever that
replica can read a transaction's content:

- Under **Pompē**, batches travel in clear text during the ordering phase
  (the replica's ``on_readable`` hook fires on the ordering request), so
  the bot sees every victim swap while
  its timestamp is still being negotiated — in time to submit a
  front-running swap and a closing back-run.
- Under **Lyra**, payloads are VSS-encrypted until after commit; the
  first moment any replica can read a swap is at execution, when its
  position is already locked.  The bot still reacts (``on_readable``
  fires at execution), but the front transaction can only land *after* the
  victim — the sandwich structurally fails.

Whether an attempt *succeeded* is judged post-hoc from the committed
order by :func:`repro.metrics.fairness.sandwich_stats`: success requires
``front < victim < back`` positions.  The asymmetry — nonzero success
rate under Pompē, zero under Lyra, same bot, same traffic — is the
fairness headline the workload engine exists to measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from repro.core.types import Batch, Transaction
from repro.sim.engine import Simulator
from repro.workload.amm import BUY, SELL, decode_swap, encode_swap
from repro.workload.clients import TxKey, _BaseClient, register_client


@dataclass
class SandwichAttempt:
    """One chased victim: the bot's front/back transaction identities."""

    victim: TxKey
    observed_at_us: int
    direction: int
    amount_in: int
    front: Optional[TxKey] = None
    back: Optional[TxKey] = None
    front_at_us: Optional[int] = None
    back_at_us: Optional[int] = None

    @property
    def launched(self) -> bool:
        """Both halves of the sandwich were actually submitted."""
        return self.front is not None and self.back is not None

    def to_dict(self) -> dict:
        return {
            "victim": list(self.victim),
            "front": list(self.front) if self.front else None,
            "back": list(self.back) if self.back else None,
            "observed_at_us": self.observed_at_us,
        }


#: A bot submits its front-run this long after it observes a swap (its
#: local processing).
REACT_DELAY_US = 500
#: It closes the sandwich this much later: late enough that the back-run's
#: honestly assigned timestamp lands after the victim's, which is exactly
#: what a sandwich wants.
BACK_DELAY_US = 200_000
#: Swaps one bot chases at most, so it stresses ordering fairness, not raw
#: throughput.
MAX_ATTEMPTS = 16


class MevBotClient(_BaseClient):
    """Chases every observed swap, up to :data:`MAX_ATTEMPTS` of them,
    with a front-run + back-run pair."""

    def __init__(
        self,
        pid: int,
        sim: Simulator,
        home: int,
        *,
        stop_at_us: Optional[int] = None,
    ) -> None:
        super().__init__(pid, sim, home)
        self.stop_at_us = stop_at_us
        self.attempts: List[SandwichAttempt] = []
        self._chased: Set[TxKey] = set()

    # -- observation ----------------------------------------------------
    def on_observed_batch(self, batch: Batch) -> None:
        """Cluster-wired tap: the colocated replica saw ``batch``'s content."""
        for tx in batch.txs:
            self.on_observed_tx(tx)

    def on_observed_tx(self, tx: Transaction) -> None:
        if self.crashed or len(self.attempts) >= MAX_ATTEMPTS:
            return
        if tx.client_id == self.pid or tx.key() in self._chased:
            return
        if self.stop_at_us is not None and self.sim.now >= self.stop_at_us:
            return
        decoded = decode_swap(tx)
        if decoded is None:
            return
        direction, amount = decoded
        self._chased.add(tx.key())
        attempt = SandwichAttempt(
            victim=tx.key(),
            observed_at_us=self.sim.now,
            direction=direction,
            amount_in=amount,
        )
        self.attempts.append(attempt)
        self.sim.schedule(REACT_DELAY_US, lambda: self._front(attempt))

    # -- the sandwich ---------------------------------------------------
    def _front(self, attempt: SandwichAttempt) -> None:
        if self.crashed:
            return
        tx = self._submit_one(
            body=encode_swap(attempt.direction, max(1, attempt.amount_in))
        )
        attempt.front = tx.key()
        attempt.front_at_us = self.sim.now
        self.sim.schedule(BACK_DELAY_US, lambda: self._back(attempt))

    def _back(self, attempt: SandwichAttempt) -> None:
        if self.crashed:
            return
        if self.stop_at_us is not None and self.sim.now >= self.stop_at_us:
            return  # run over: the sandwich stays half-open (not landed)
        reverse = SELL if attempt.direction == BUY else BUY
        tx = self._submit_one(
            body=encode_swap(reverse, max(1, attempt.amount_in))
        )
        attempt.back = tx.key()
        attempt.back_at_us = self.sim.now

    @classmethod
    def from_group(cls, pid, sim, home, group, ctx):
        return cls(pid, sim, home, stop_at_us=ctx.stop_at_us)


register_client("mev", MevBotClient)


__all__ = ["MevBotClient", "SandwichAttempt"]
