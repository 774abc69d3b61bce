"""The counter table behind a traced run's ``ExperimentResult.metrics``.

Every instrumented layer (node stats, the Commit protocol, commit-reveal,
the wire, fault injector, reliable channel, cache layers, workload)
registers a scrape source with :meth:`MetricsRegistry.add_source`: a
callable returning ``{name: number}`` from counters the layer keeps
anyway, polled only at :meth:`snapshot` time, so no hot path pays for
it.  Per-phase latencies are not counters: the trace
(:mod:`repro.metrics.tracelog`) holds one event per phase per node,
:func:`repro.metrics.spans.decompose_phases` derives them, and the
cluster stores that proposer-side decomposition beside the snapshot in
``ExperimentResult.metrics["phases"]``.

Snapshots are plain JSON-serialisable dicts, so they ride inside
:class:`~repro.harness.cluster.ExperimentResult` across sweep worker
process boundaries and into the on-disk result cache.

Sources never feed back into the simulation: no RNG draws, no scheduled
events — registering them cannot perturb a run's decided prefix.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

#: Snapshot key for metrics not attributed to one node.
GLOBAL_NODE = "-"

#: A scrape source: () -> {metric name: number}.
Source = Callable[[], Dict[str, float]]


class MetricsRegistry:
    """Scrape sources keyed by (layer, node), read at snapshot time."""

    def __init__(self) -> None:
        # (layer, node key, fn) scrape sources, in registration order.
        self._sources: List[Tuple[str, str, Source]] = []

    def add_source(
        self, layer: str, fn: Source, node: Optional[int] = None
    ) -> None:
        """Register a callable polled at snapshot time (never on hot paths).

        Sources survive crash–recovery: they are bound to the live object,
        so a recovered incarnation keeps reporting through the same entry.
        """
        self._sources.append((layer, GLOBAL_NODE if node is None else str(node), fn))

    def snapshot(self) -> Dict[str, Any]:
        """``{"counters": {"layer.name": {"per_node", "total"}}}``: every
        source's values, summed per node and across nodes."""
        scraped: Dict[str, Dict[str, float]] = {}
        for layer, node_key, fn in self._sources:
            for name, value in fn().items():
                slot = scraped.setdefault(f"{layer}.{name}", {})
                slot[node_key] = slot.get(node_key, 0) + value
        counters: Dict[str, Dict[str, Any]] = {}
        for full_name, values in sorted(scraped.items()):
            per_node = dict(sorted(values.items()))
            counters[full_name] = {
                "per_node": per_node,
                "total": sum(per_node.values()),
            }
        return {"counters": counters}


__all__ = ["MetricsRegistry", "GLOBAL_NODE"]
