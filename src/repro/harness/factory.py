"""Unified cluster construction: one factory for every protocol.

:func:`build_cluster` is the single entry point for sweeps, benchmarks and
the CLI: a registry keyed by protocol name whose builders all take the same
``(config, *, node_classes, node_kwargs)`` signature and return a cluster
whose ``run()`` yields the shared
:class:`~repro.harness.cluster.ExperimentResult` schema.

New baselines self-register with :func:`register_protocol`, which makes
them reachable from the sweep runner and the ``--protocol`` CLI flag with
no further plumbing.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.harness.cluster import LyraCluster
from repro.harness.config import ExperimentConfig
from repro.harness.pompe_cluster import PompeCluster

#: A builder takes (config, *, node_classes, node_kwargs) and returns a
#: cluster object exposing ``run(*, skip_safety_check=False)``.
ClusterBuilder = Callable[..., object]

_REGISTRY: Dict[str, ClusterBuilder] = {}


def register_protocol(name: str, builder: ClusterBuilder) -> None:
    """Register (or replace) a protocol's cluster builder."""
    _REGISTRY[name.lower()] = builder


def available_protocols() -> Tuple[str, ...]:
    """Registered protocol names, sorted."""
    return tuple(sorted(_REGISTRY))


def build_cluster(
    config: ExperimentConfig,
    *,
    protocol: str = "lyra",
    node_classes: Optional[Dict[int, type]] = None,
    node_kwargs: Optional[Dict[int, dict]] = None,
):
    """Construct (but do not run) a cluster for ``protocol``.

    ``node_classes`` / ``node_kwargs`` inject Byzantine node subclasses per
    pid.
    """
    builder = _REGISTRY.get(protocol.lower())
    if builder is None:
        raise ValueError(
            f"unknown protocol {protocol!r}; available: {', '.join(available_protocols())}"
        )
    return builder(config, node_classes=node_classes, node_kwargs=node_kwargs)


register_protocol("lyra", LyraCluster)
register_protocol("pompe", PompeCluster)


__all__ = [
    "build_cluster",
    "register_protocol",
    "available_protocols",
    "ClusterBuilder",
]
