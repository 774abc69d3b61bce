"""Cluster construction: one factory, one cluster, a protocol adapter each.

:func:`build_cluster` is the single entry point for sweeps, benchmarks and
the CLI.  Every protocol runs the same :class:`~repro.harness.cluster.Cluster`
— topology, workload, network options, fault plans, watchdog, metrics and
result consolidation are written once — and differs only in the adapter
that :data:`~repro.harness.cluster.PROTOCOLS` maps its name to.
"""

from __future__ import annotations

from typing import Tuple

from repro.harness.cluster import PROTOCOLS, Cluster
from repro.harness.config import ExperimentConfig


def available_protocols() -> Tuple[str, ...]:
    """Protocol names with an adapter, sorted."""
    return tuple(sorted(PROTOCOLS))


def build_cluster(config: ExperimentConfig, *, protocol: str = "lyra") -> Cluster:
    """Construct (but do not run) a cluster for ``protocol``.

    Attack replicas come from ``config.attack_nodes``.  Raises
    ``ValueError`` for an unknown protocol, for config features the
    protocol cannot honour and for an attack replica of another protocol.
    """
    return Cluster(config, protocol=protocol)


__all__ = ["build_cluster", "available_protocols"]
