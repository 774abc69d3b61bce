"""Low-overhead metrics registry: the observability layer's data plane.

Every instrumented layer (VVB/DBFT message dispatch, the Commit protocol,
commit-reveal, the reliable channel) emits into one
:class:`MetricsRegistry`, keyed by ``(layer, name, node)``.  Two emission
styles keep the hot path cheap:

- **push handles** — :meth:`MetricsRegistry.counter` / ``gauge`` /
  ``histogram`` return small bound objects whose ``inc``/``set``/``observe``
  is a couple of attribute writes.  With the registry disabled the same
  calls return shared null handles, so instrumented code pays one ``is
  None``-style check at wiring time and nothing per event.
- **scrape sources** — :meth:`MetricsRegistry.add_source` registers a
  zero-cost-until-snapshot callable returning ``{name: number}``; existing
  counter structs (``NodeStats``, ``FaultStats``,
  ``ReliableStats``, cache layers) are folded in at :meth:`snapshot` time
  without touching their hot paths at all.

Snapshots are plain JSON-serialisable dicts, so they ride inside
:class:`~repro.harness.cluster.ExperimentResult` across sweep worker
process boundaries and into the on-disk result cache.
:func:`merge_snapshots` aggregates them across sweep cells.

Metrics never feed back into the simulation: no RNG draws, no scheduled
events — enabling the registry cannot perturb a run's decided prefix.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Snapshot key for metrics not attributed to one node.
GLOBAL_NODE = "-"


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A last-write-wins sampled value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A bounded-memory distribution.

    Count/sum/min/max are exact over every observation; percentile queries
    run over a bounded sample ring (the most recent ``capacity``
    observations), so long runs cannot grow without bound.  Deterministic:
    no sampling randomness, just a ring cursor.
    """

    __slots__ = ("count", "total", "minimum", "maximum", "_samples", "_cap", "_pos")

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError("histogram capacity must be positive")
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self._samples: List[float] = []
        self._cap = capacity
        self._pos = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        if len(self._samples) < self._cap:
            self._samples.append(value)
        else:
            self._samples[self._pos] = value
            self._pos = (self._pos + 1) % self._cap

    def observe_many(self, values: Sequence[float]) -> None:
        """Bulk-observe a batch (one snapshot of per-pair estimator
        errors, a drained latency buffer): same semantics as observing
        each value in order, one call on the instrumentation site."""
        for value in values:
            self.observe(value)

    @property
    def samples(self) -> List[float]:
        return list(self._samples)

    def summary(self) -> Dict[str, float]:
        from repro.metrics.stats import summarize_latencies

        s = summarize_latencies(self._samples)
        return {
            "count": self.count,
            "sum": round(self.total, 3),
            "min": self.minimum if self.minimum is not None else 0.0,
            "max": self.maximum if self.maximum is not None else 0.0,
            "mean": round(self.total / self.count, 3) if self.count else 0.0,
            "p50": round(s.p50, 3),
            "p90": round(s.p90, 3),
            "p99": round(s.p99, 3),
        }


class _NullCounter:
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram:
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values: Sequence[float]) -> None:
        pass


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()

#: A scrape source: () -> {metric name: number}.
Source = Callable[[], Dict[str, float]]


def _node_key(node: Optional[int]) -> str:
    return GLOBAL_NODE if node is None else str(node)


class MetricsRegistry:
    """Counters, gauges and bounded histograms keyed by (layer, name, node)."""

    def __init__(self, *, enabled: bool = True, histogram_capacity: int = 4096) -> None:
        self.enabled = enabled
        self._hist_cap = histogram_capacity
        # (layer, name) -> node key -> instrument.
        self._counters: Dict[Tuple[str, str], Dict[str, Counter]] = {}
        self._gauges: Dict[Tuple[str, str], Dict[str, Gauge]] = {}
        self._histograms: Dict[Tuple[str, str], Dict[str, Histogram]] = {}
        # (layer, node key, fn) scrape sources, in registration order.
        self._sources: List[Tuple[str, str, Source]] = []

    # ------------------------------------------------------------------
    # Handles
    # ------------------------------------------------------------------
    def counter(self, layer: str, name: str, node: Optional[int] = None) -> Counter:
        if not self.enabled:
            return NULL_COUNTER  # type: ignore[return-value]
        slot = self._counters.setdefault((layer, name), {})
        key = _node_key(node)
        handle = slot.get(key)
        if handle is None:
            handle = slot[key] = Counter()
        return handle

    def gauge(self, layer: str, name: str, node: Optional[int] = None) -> Gauge:
        if not self.enabled:
            return NULL_GAUGE  # type: ignore[return-value]
        slot = self._gauges.setdefault((layer, name), {})
        key = _node_key(node)
        handle = slot.get(key)
        if handle is None:
            handle = slot[key] = Gauge()
        return handle

    def histogram(
        self, layer: str, name: str, node: Optional[int] = None
    ) -> Histogram:
        if not self.enabled:
            return NULL_HISTOGRAM  # type: ignore[return-value]
        slot = self._histograms.setdefault((layer, name), {})
        key = _node_key(node)
        handle = slot.get(key)
        if handle is None:
            handle = slot[key] = Histogram(self._hist_cap)
        return handle

    def add_source(
        self, layer: str, fn: Source, node: Optional[int] = None
    ) -> None:
        """Register a callable polled at snapshot time (never on hot paths).

        Sources survive crash–recovery: they are bound to the live object,
        so a recovered incarnation keeps reporting through the same entry.
        """
        if not self.enabled:
            return
        self._sources.append((layer, _node_key(node), fn))

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A plain JSON-serialisable view of every instrument and source."""
        if not self.enabled:
            return {}
        counters: Dict[str, Dict[str, Any]] = {}
        for (layer, name), per_node in sorted(self._counters.items()):
            values = {k: c.value for k, c in sorted(per_node.items())}
            counters[f"{layer}.{name}"] = {
                "per_node": values,
                "total": sum(values.values()),
            }
        # Scrape sources fold into the counter section: they report plain
        # numbers and aggregate the same way.
        scraped: Dict[str, Dict[str, Dict[str, float]]] = {}
        for layer, node_key, fn in self._sources:
            for name, value in fn().items():
                slot = scraped.setdefault(f"{layer}.{name}", {})
                slot[node_key] = slot.get(node_key, 0) + value
        for full_name, values in sorted(scraped.items()):
            entry = counters.setdefault(full_name, {"per_node": {}, "total": 0})
            for node_key, value in sorted(values.items()):
                entry["per_node"][node_key] = (
                    entry["per_node"].get(node_key, 0) + value
                )
            entry["total"] = sum(entry["per_node"].values())

        gauges: Dict[str, Dict[str, Any]] = {}
        for (layer, name), per_node in sorted(self._gauges.items()):
            gauges[f"{layer}.{name}"] = {
                "per_node": {k: g.value for k, g in sorted(per_node.items())}
            }

        histograms: Dict[str, Dict[str, Any]] = {}
        for (layer, name), per_node in sorted(self._histograms.items()):
            pooled: List[float] = []
            node_summaries: Dict[str, Dict[str, float]] = {}
            for key, hist in sorted(per_node.items()):
                node_summaries[key] = hist.summary()
                pooled.extend(hist._samples)
            all_hist = Histogram(max(1, len(pooled)))
            for v in pooled:
                all_hist.observe(v)
            histograms[f"{layer}.{name}"] = {
                "per_node": node_summaries,
                "all": all_hist.summary(),
            }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }


def _merge_hist_summaries(parts: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Combine histogram summaries: count/sum/min/max merge exactly;
    percentiles are count-weighted means (an approximation, good enough
    for cross-cell aggregates where exact pooling is unavailable)."""
    live = [p for p in parts if p.get("count")]
    if not live:
        return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
                "p50": 0.0, "p90": 0.0, "p99": 0.0}
    count = sum(p["count"] for p in live)
    total = sum(p["sum"] for p in live)
    out: Dict[str, float] = {
        "count": count,
        "sum": round(total, 3),
        "min": min(p["min"] for p in live),
        "max": max(p["max"] for p in live),
        "mean": round(total / count, 3),
    }
    for q in ("p50", "p90", "p99"):
        out[q] = round(sum(p[q] * p["count"] for p in live) / count, 3)
    return out


def merge_snapshots(snapshots: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate registry snapshots across sweep cells.

    Counters sum; gauges keep per-snapshot values out (they are
    point-in-time readings, meaningless summed) and report the mean;
    histogram summaries merge via :func:`_merge_hist_summaries`.
    """
    live = [s for s in snapshots if s]
    merged: Dict[str, Any] = {
        "cells": len(live),
        "counters": {},
        "gauges": {},
        "histograms": {},
    }
    for snap in live:
        for name, entry in snap.get("counters", {}).items():
            slot = merged["counters"].setdefault(name, {"total": 0})
            slot["total"] += entry.get("total", 0)
    gauge_acc: Dict[str, List[float]] = {}
    for snap in live:
        for name, entry in snap.get("gauges", {}).items():
            for value in entry.get("per_node", {}).values():
                gauge_acc.setdefault(name, []).append(value)
    for name, values in gauge_acc.items():
        merged["gauges"][name] = {"mean": sum(values) / len(values)}
    hist_acc: Dict[str, List[Dict[str, float]]] = {}
    for snap in live:
        for name, entry in snap.get("histograms", {}).items():
            if "all" in entry:
                hist_acc.setdefault(name, []).append(entry["all"])
    for name, parts in hist_acc.items():
        merged["histograms"][name] = {"all": _merge_hist_summaries(parts)}
    return merged


__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "merge_snapshots",
    "GLOBAL_NODE",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
]
