"""Bounded memoization for repeated cryptographic work.

Consensus re-verifies the same (digest, signer, tag) triples constantly:
every replica checks the same 2f+1 shares, relayed proofs are re-checked at
every hop, and retransmissions repeat all of it.  Verification is
referentially transparent — the same key always yields the same verdict —
so a small cache removes the redundant MAC work without changing any
observable behaviour (forged tags cache ``False`` just as honestly as valid
tags cache ``True``).  The same table also backs VSS decrypt plaintext
memoization, so stored values are arbitrary (verdicts, byte strings),
never ``None``.

The cache is FIFO-bounded so long adversarial runs cannot grow it without
limit.  Eviction happens in batches: popping a single entry per insert at
capacity degenerates into one eviction per ``put`` under adversarial churn,
so when full we drop the oldest 1/8th of the table at once and amortise the
cost.  Hit/miss counters are exposed for benchmarks and tests.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Optional


class MemoCache:
    """A bounded FIFO-eviction memo table.

    Values may be any non-``None`` object; ``None`` is reserved as the
    miss sentinel returned by :meth:`get`.
    """

    __slots__ = ("capacity", "hits", "misses", "evictions", "peak", "_entries")

    def __init__(self, capacity: int = 1 << 16) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: High-water occupancy: batch eviction drops ``size`` below
        #: it, so ``peak`` records how big the table actually got.
        self.peak = 0
        self._entries: Dict[Hashable, Any] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable) -> Optional[Any]:
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> Any:
        if value is None:
            raise ValueError("MemoCache cannot store None (miss sentinel)")
        entries = self._entries
        if key not in entries and len(entries) >= self.capacity:
            # Batch FIFO eviction: drop the oldest 1/8th (at least one) in
            # one pass instead of thrashing one-pop-per-insert at capacity.
            batch = max(1, self.capacity >> 3)
            it = iter(entries)
            oldest = [next(it) for _ in range(min(batch, len(entries)))]
            for stale in oldest:
                del entries[stale]
            self.evictions += len(oldest)
        entries[key] = value
        if len(entries) > self.peak:
            self.peak = len(entries)
        return value

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.peak = 0

    def stats(self) -> Dict[str, Any]:
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._entries),
            "peak": self.peak,
            "hit_rate": round(self.hits / total, 4) if total else 0.0,
        }


__all__ = ["MemoCache"]
