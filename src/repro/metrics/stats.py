"""Latency statistics helpers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


def percentile(values: Sequence[float], p: float) -> float:
    """The p-th percentile (0-100) of ``values``; 0.0 for empty input."""
    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), p))


@dataclass(frozen=True)
class LatencySummary:
    """Consolidated latency figures (all in µs)."""

    count: int
    mean: float
    p50: float
    p90: float
    p99: float
    maximum: float

    @property
    def mean_ms(self) -> float:
        return self.mean / 1000.0

    @property
    def p50_ms(self) -> float:
        return self.p50 / 1000.0

    def row(self) -> str:
        """A human-readable table row."""
        return (
            f"count={self.count} mean={self.mean / 1000:.1f}ms "
            f"p50={self.p50 / 1000:.1f}ms p90={self.p90 / 1000:.1f}ms "
            f"p99={self.p99 / 1000:.1f}ms max={self.maximum / 1000:.1f}ms"
        )


def summarize_latencies(latencies_us: Sequence[float]) -> LatencySummary:
    """Summary statistics over a latency sample."""
    if not len(latencies_us):
        return LatencySummary(0, 0.0, 0.0, 0.0, 0.0, 0.0)
    arr = np.asarray(latencies_us, dtype=np.float64)
    return LatencySummary(
        count=int(arr.size),
        mean=float(arr.mean()),
        p50=float(np.percentile(arr, 50)),
        p90=float(np.percentile(arr, 90)),
        p99=float(np.percentile(arr, 99)),
        maximum=float(arr.max()),
    )


__all__ = ["LatencySummary", "percentile", "summarize_latencies"]
