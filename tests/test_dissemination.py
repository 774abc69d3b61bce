"""Broadcast dissemination strategies (``repro.net.dissemination``) and
their sweep cache keys.

The load-bearing property is bit-determinism: a degenerate tree must
reproduce the all2all decided prefix exactly, and relaying strategies
must stay safe and reproduce their own digest run after run.
"""

from __future__ import annotations

import pytest

from repro.bench.suite import prefix_digest
from repro.harness.config import ExperimentConfig
from repro.harness.factory import build_cluster
from repro.harness.sweep import cell_key
from repro.net.dissemination import (
    DISSEMINATION_STRATEGIES,
    GossipDissemination,
    TreeDissemination,
    make_dissemination,
)
from repro.sim.engine import MILLISECONDS


def _config(**overrides) -> ExperimentConfig:
    defaults = dict(
        n_nodes=4,
        seed=2,
        batch_size=8,
        clients_per_node=1,
        client_window=4,
        duration_us=1000 * MILLISECONDS,
        warmup_rounds=2,
        warmup_spacing_us=150 * MILLISECONDS,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def _run(cfg: ExperimentConfig):
    """``(result, decided-prefix digest)`` of one single-process run."""
    cluster = build_cluster(cfg)
    result = cluster.run()
    return result, prefix_digest(cluster)


class TestDisseminationConstruction:
    def test_all2all_is_the_null_strategy(self):
        assert make_dissemination("all2all", fanout=8, seed=1) is None

    def test_known_strategies(self):
        assert set(DISSEMINATION_STRATEGIES) == {"all2all", "tree", "gossip"}
        assert isinstance(
            make_dissemination("tree", fanout=2, seed=1), TreeDissemination
        )
        assert isinstance(
            make_dissemination("gossip", fanout=2, seed=1), GossipDissemination
        )

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="dissemination"):
            make_dissemination("flood", fanout=2, seed=1)

    def test_config_validates_knobs(self):
        with pytest.raises(ValueError, match="dissemination"):
            ExperimentConfig(dissemination="flood")
        with pytest.raises(ValueError, match="fanout"):
            ExperimentConfig(fanout=0)
        cfg = _config(dissemination="tree", fanout=3)
        assert ExperimentConfig.from_dict(cfg.to_dict()).dissemination == "tree"


@pytest.mark.slow
def test_degenerate_tree_equals_all2all():
    # fanout >= n-1: every relay is a direct send, so the schedule must
    # be byte-identical to the default broadcast — the CI n=4 gate.
    _, base = _run(_config())
    _, tree = _run(_config(dissemination="tree", fanout=8))
    assert tree == base


@pytest.mark.slow
def test_relaying_tree_safe_and_deterministic():
    cfg = _config(n_nodes=6, dissemination="tree", fanout=2)
    result, digest = _run(cfg)
    _, again = _run(cfg)
    assert digest == again
    assert result.safety_violation is None
    stats = result.wire_stats["dissemination"]
    assert stats["strategy"] == "tree"
    assert stats["tree_broadcasts"] > 0 and stats["relays"] > 0


@pytest.mark.slow
def test_gossip_safe_and_deterministic():
    cfg = _config(n_nodes=6, dissemination="gossip", fanout=3)
    result, digest = _run(cfg)
    _, again = _run(cfg)
    assert digest == again
    assert result.safety_violation is None
    assert not result.invariant_violations
    stats = result.wire_stats["dissemination"]
    assert stats["strategy"] == "gossip"
    assert stats["pushes"] > 0 and stats["deliveries"] > 0


class TestCacheKeys:
    def test_dissemination_changes_cell_key(self):
        base = cell_key(_config(), "lyra")
        assert cell_key(_config(dissemination="tree"), "lyra") != base
        assert cell_key(_config(dissemination="gossip"), "lyra") != base

    def test_fanout_changes_cell_key(self):
        assert cell_key(_config(fanout=4), "lyra") != cell_key(
            _config(fanout=8), "lyra"
        )
