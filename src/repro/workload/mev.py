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


class MevBotClient(_BaseClient):
    """Chases observed swaps with a front-run + back-run pair.

    The bot reacts ``react_delay_us`` after observation (local processing)
    and closes the sandwich ``back_delay_us`` later — late enough that the
    back-run's honestly assigned timestamp lands after the victim's, which
    is exactly what a sandwich wants.  ``min_victim_amount`` filters for
    whale swaps worth chasing; ``max_attempts`` bounds adversarial volume
    so the bot stresses ordering fairness, not raw throughput.
    """

    def __init__(
        self,
        pid: int,
        sim: Simulator,
        home: int,
        *,
        react_delay_us: int = 500,
        back_delay_us: int = 200_000,
        min_victim_amount: int = 0,
        max_attempts: int = 16,
        stop_at_us: Optional[int] = None,
    ) -> None:
        super().__init__(pid, sim, home)
        self.react_delay_us = max(0, int(react_delay_us))
        self.back_delay_us = max(1, int(back_delay_us))
        self.min_victim_amount = min_victim_amount
        self.max_attempts = max_attempts
        self.stop_at_us = stop_at_us
        self.attempts: List[SandwichAttempt] = []
        self._chased: Set[TxKey] = set()

    # -- observation ----------------------------------------------------
    def on_observed_batch(self, batch: Batch) -> None:
        """Cluster-wired tap: the colocated replica saw ``batch``'s content."""
        for tx in batch.txs:
            self.on_observed_tx(tx)

    def on_observed_tx(self, tx: Transaction) -> None:
        if self.crashed or len(self.attempts) >= self.max_attempts:
            return
        if tx.client_id == self.pid or tx.key() in self._chased:
            return
        if self.stop_at_us is not None and self.sim.now >= self.stop_at_us:
            return
        decoded = decode_swap(tx)
        if decoded is None:
            return
        direction, amount = decoded
        if amount < self.min_victim_amount:
            return
        self._chased.add(tx.key())
        attempt = SandwichAttempt(
            victim=tx.key(),
            observed_at_us=self.sim.now,
            direction=direction,
            amount_in=amount,
        )
        self.attempts.append(attempt)
        self.sim.schedule(self.react_delay_us, lambda: self._front(attempt))

    # -- the sandwich ---------------------------------------------------
    def _front(self, attempt: SandwichAttempt) -> None:
        if self.crashed:
            return
        tx = self._submit_one(
            body=encode_swap(attempt.direction, max(1, attempt.amount_in))
        )
        attempt.front = tx.key()
        attempt.front_at_us = self.sim.now
        self.sim.schedule(self.back_delay_us, lambda: self._back(attempt))

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
        return cls(
            pid,
            sim,
            home,
            react_delay_us=group.react_delay_us,
            back_delay_us=group.back_delay_us,
            min_victim_amount=group.min_victim_amount,
            max_attempts=group.max_attempts,
            stop_at_us=ctx.stop_at_us,
        )


register_client("mev", MevBotClient)


__all__ = ["MevBotClient", "SandwichAttempt"]
