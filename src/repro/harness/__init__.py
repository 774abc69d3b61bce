"""Experiment harness: the cluster, sweeps and figure regenerators.

- :func:`build_cluster` — the factory: assemble a full simulated
  deployment from an :class:`ExperimentConfig` as one :class:`Cluster`,
  with the protocol's adapter (Lyra, Pompē or Fino) supplying the
  replicas and their taps.  It is the only way a deployment is built.
- :mod:`repro.harness.sweep` — parallel (config, seed) grid sweeps with
  content-addressed result caching.
- :mod:`repro.harness.experiments` — one entry point per paper artefact
  (Fig. 1, Fig. 2, Fig. 3, plus the ablations listed in DESIGN.md §4).
"""

from repro.harness.config import ExperimentConfig
from repro.harness.cluster import Cluster, ExperimentResult
from repro.harness.factory import available_protocols, build_cluster
from repro.harness.sweep import (
    SweepCell,
    SweepReport,
    grid_cells,
    run_sweep,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "Cluster",
    "build_cluster",
    "available_protocols",
    "SweepCell",
    "SweepReport",
    "grid_cells",
    "run_sweep",
]
