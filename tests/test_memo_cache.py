"""MemoCache boundary behaviour: batch eviction, counters, miss sentinel."""

import pytest

from repro.crypto.memo import MemoCache


class TestMemoCacheBasics:
    def test_miss_then_hit(self):
        cache = MemoCache(capacity=8)
        assert cache.get("k") is None
        cache.put("k", 42)
        assert cache.get("k") == 42
        assert cache.hits == 1
        assert cache.misses == 1

    def test_none_value_rejected(self):
        cache = MemoCache(capacity=8)
        with pytest.raises(ValueError):
            cache.put("k", None)

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            MemoCache(capacity=0)

    def test_contains_and_len(self):
        cache = MemoCache(capacity=8)
        cache.put("a", 1)
        assert "a" in cache
        assert "b" not in cache
        assert len(cache) == 1

    def test_put_returns_value(self):
        cache = MemoCache(capacity=8)
        assert cache.put("a", "v") == "v"


class TestBatchEviction:
    def test_no_eviction_below_capacity(self):
        cache = MemoCache(capacity=16)
        for i in range(16):
            cache.put(i, i)
        assert len(cache) == 16
        assert cache.evictions == 0

    def test_insert_at_capacity_evicts_oldest_batch(self):
        cache = MemoCache(capacity=16)
        for i in range(16):
            cache.put(i, i)
        cache.put(16, 16)
        # One insert at capacity drops the oldest 1/8th (16 >> 3 == 2).
        assert cache.evictions == 2
        assert len(cache) == 15
        assert 0 not in cache and 1 not in cache  # FIFO order: oldest first
        assert 2 in cache and 16 in cache

    def test_batch_is_at_least_one(self):
        cache = MemoCache(capacity=2)  # capacity >> 3 == 0, clamped to 1
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.evictions == 1
        assert "a" not in cache
        assert "b" in cache and "c" in cache

    def test_overwrite_existing_key_never_evicts(self):
        cache = MemoCache(capacity=4)
        for i in range(4):
            cache.put(i, i)
        cache.put(0, 99)  # key already present: no eviction at capacity
        assert cache.evictions == 0
        assert len(cache) == 4
        assert cache.get(0) == 99

    def test_churn_stays_bounded(self):
        cache = MemoCache(capacity=64)
        for i in range(10_000):
            cache.put(i, i)
        assert len(cache) <= 64
        assert cache.evictions >= 10_000 - 64

    def test_stats_shape(self):
        cache = MemoCache(capacity=8)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["evictions"] == 0
        assert stats["size"] == 1
        assert stats["hit_rate"] == 0.5

    def test_peak_survives_weakref_style_eviction(self):
        """Batch eviction leaves ``size`` below the high-water mark;
        ``peak`` must still report the table's largest occupancy."""
        cache = MemoCache(capacity=16)
        for key in range(17):
            cache.put(key, 1)
        stats = cache.stats()
        assert stats["size"] == 15  # the 17th put evicted the oldest 2
        assert stats["peak"] == 16
        cache.put(17, 1)
        assert cache.stats()["peak"] == 16  # refilling to peak keeps it

    def test_clear_resets_counters(self):
        cache = MemoCache(capacity=2)
        cache.put("a", 1)
        cache.get("a")
        cache.put("b", 2)
        cache.put("c", 3)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats() == {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "size": 0,
            "peak": 0,
            "hit_rate": 0.0,
        }
