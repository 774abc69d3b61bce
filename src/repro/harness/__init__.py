"""Experiment harness: cluster builders, sweeps and figure regenerators.

- :func:`build_cluster` — the unified factory: assemble a full simulated
  deployment for any registered protocol from an :class:`ExperimentConfig`.
- :mod:`repro.harness.sweep` — parallel (config, seed) grid sweeps with
  content-addressed result caching.
- :mod:`repro.harness.experiments` — one entry point per paper artefact
  (Fig. 1, Fig. 2, Fig. 3, plus the ablations listed in DESIGN.md §4).
"""

from repro.harness.config import ExperimentConfig
from repro.harness.cluster import ExperimentResult, LyraCluster
from repro.harness.factory import (
    available_protocols,
    build_cluster,
    register_protocol,
)
from repro.harness.pompe_cluster import PompeCluster
from repro.harness.sweep import (
    SweepCell,
    SweepReport,
    grid_cells,
    run_sweep,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "LyraCluster",
    "PompeCluster",
    "build_cluster",
    "register_protocol",
    "available_protocols",
    "SweepCell",
    "SweepReport",
    "grid_cells",
    "run_sweep",
]
