"""Transaction batching (§VI-B).

Consensus costs are amortised by batching: a node opens a new BOC instance
when it holds a full batch (800 transactions in the paper) *or* when a
timeout elapses since its last proposal — whichever comes first — so light
load does not translate into unbounded latency.
"""

from __future__ import annotations

from typing import List

from repro.core.types import Transaction

DEFAULT_BATCH_SIZE = 800
DEFAULT_BATCH_TIMEOUT_US = 50_000


class Mempool:
    """A FIFO of not-yet-proposed transactions with duplicate suppression."""

    def __init__(self, batch_size: int = DEFAULT_BATCH_SIZE) -> None:
        if batch_size < 1:
            raise ValueError("batch size must be at least 1")
        self.batch_size = batch_size
        self._queue: List[Transaction] = []
        self._seen: set = set()
        self.duplicates_dropped = 0

    def add(self, tx: Transaction) -> bool:
        """Queue a transaction; returns False for duplicates."""
        key = tx.key()
        if key in self._seen:
            self.duplicates_dropped += 1
            return False
        self._seen.add(key)
        self._queue.append(tx)
        return True

    @property
    def full(self) -> bool:
        return len(self._queue) >= self.batch_size

    def __len__(self) -> int:
        return len(self._queue)

    def take_batch(self) -> List[Transaction]:
        """Drain up to ``batch_size`` transactions (may be fewer on flush)."""
        batch, self._queue = self._queue[: self.batch_size], self._queue[self.batch_size :]
        return batch

    def requeue(self, txs) -> None:
        """Put transactions from a rejected batch back at the queue head
        (SMR-Liveness: correct processes continuously re-input their
        transactions until accepted).  Bypasses dedup — the keys are
        already registered."""
        self._queue[:0] = list(txs)

    def drop_committed(self, txs) -> None:
        """Release dedup memory for executed transactions."""
        for tx in txs:
            self._seen.discard(tx.key())


__all__ = ["Mempool", "DEFAULT_BATCH_SIZE", "DEFAULT_BATCH_TIMEOUT_US"]
