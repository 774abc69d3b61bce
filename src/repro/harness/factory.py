"""Cluster construction: one factory, one cluster, a protocol adapter each.

:func:`build_cluster` is the single entry point for sweeps, benchmarks and
the CLI.  Every protocol runs the same :class:`~repro.harness.cluster.Cluster`
— topology, workload, network options, fault plans, watchdog, metrics and
result consolidation are written once — and differs only in the adapter
that :data:`~repro.harness.cluster.PROTOCOLS` maps its name to.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.harness.cluster import PROTOCOLS, Cluster
from repro.harness.config import ExperimentConfig


def available_protocols() -> Tuple[str, ...]:
    """Protocol names with an adapter, sorted."""
    return tuple(sorted(PROTOCOLS))


def build_cluster(
    config: ExperimentConfig,
    *,
    protocol: str = "lyra",
    node_classes: Optional[Dict[int, type]] = None,
    node_kwargs: Optional[Dict[int, dict]] = None,
) -> Cluster:
    """Construct (but do not run) a cluster for ``protocol``.

    ``node_classes`` / ``node_kwargs`` inject Byzantine node subclasses per
    pid.  Raises ``ValueError`` for an unknown protocol and for config
    features the protocol cannot honour.
    """
    return Cluster(
        config, protocol=protocol, node_classes=node_classes, node_kwargs=node_kwargs
    )


__all__ = ["build_cluster", "available_protocols"]
