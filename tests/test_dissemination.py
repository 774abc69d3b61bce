"""Broadcast dissemination (``repro.net.dissemination``) and its sweep
cache keys.

The load-bearing property is bit-determinism: a degenerate tree must
reproduce the all2all decided prefix exactly, and a relaying tree must
stay safe and reproduce its own digest run after run.
"""

from __future__ import annotations

import pytest

from repro.bench.suite import prefix_digest
from repro.harness.config import ExperimentConfig, closed_loop_config
from repro.harness.factory import build_cluster
from repro.harness.sweep import cell_key
from repro.net.dissemination import DISSEMINATION_STRATEGIES, TreeDissemination
from repro.net.faults import CrashEvent, FaultPlan
from repro.sim.engine import MILLISECONDS, SECONDS


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
        assert build_cluster(_config()).network.tree is None

    def test_known_strategies(self):
        assert DISSEMINATION_STRATEGIES == ("all2all", "tree")
        tree = build_cluster(_config(dissemination="tree", fanout=2)).network.tree
        assert isinstance(tree, TreeDissemination) and tree.fanout == 2

    def test_unknown_strategy_rejected(self):
        # Rejected when the config is built, so every protocol, ``sweep``
        # and ``experiment`` refuse it alike.
        for name in ("gossip", "flood"):
            with pytest.raises(ValueError, match="dissemination.*all2all.*tree"):
                ExperimentConfig(dissemination=name)

    def test_cli_refuses_gossip(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--dissemination", "gossip"])
        assert exit_info.value.code == 2
        assert "all2all" in capsys.readouterr().err

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


@pytest.mark.parametrize("protocol", ["lyra", "pompe", "fino"])
def test_crashed_relay_starves_its_subtree(protocol):
    """A crashed relay's subtree never receives the broadcasts routed
    through it, and no protocol here re-pulls them, so commits stop.  The
    watchdog must see that stall on every protocol: each replica class
    reports its own pending work, and one stall is one violation."""
    plan = FaultPlan(crashes=(CrashEvent(pid=1, crash_at_us=1500 * MILLISECONDS),))
    cfg = closed_loop_config(
        7, 1, 6 * SECONDS, dissemination="tree", fanout=2, fault_plan=plan
    )
    result = build_cluster(cfg, protocol=protocol).run()
    assert result.wire_stats["dissemination"]["dead_relays"] > 0
    stalls = [v for v in result.invariant_violations if "post-gst-liveness" in v]
    assert len(stalls) == 1, stalls


class TestCacheKeys:
    def test_dissemination_changes_cell_key(self):
        base = cell_key(_config(), "lyra")
        assert cell_key(_config(dissemination="tree"), "lyra") != base

    def test_fanout_changes_cell_key(self):
        assert cell_key(_config(fanout=4), "lyra") != cell_key(
            _config(fanout=8), "lyra"
        )
