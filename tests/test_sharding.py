"""Partitioned simulation core (``repro.sim.shard``) and dissemination
strategies (``repro.net.dissemination``).

The load-bearing property is bit-determinism: a sharded run's decided
prefixes must be byte-identical to the single-process run's, for any
shard count, with faults, crashes and wire coalescing in play.
Everything else (planning, rejection, stats plumbing, the bench gates)
is scaffolding around that oracle.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.harness.config import ExperimentConfig
from repro.harness.sweep import cell_key
from repro.net.dissemination import (
    DISSEMINATION_STRATEGIES,
    GossipDissemination,
    TreeDissemination,
    make_dissemination,
)
from repro.net.faults import CrashEvent, FaultPlan, LinkFault
from repro.sim.engine import MILLISECONDS
from repro.sim.shard import ShardPlan, plan_shards, run_sharded
from repro.workload.spec import ClientGroup, WorkloadSpec


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


def _chaos_config(seed: int = 2) -> ExperimentConfig:
    plan = FaultPlan(
        links=(
            LinkFault(drop_rate=0.15, duplicate_rate=0.05, corrupt_rate=0.02),
        ),
        crashes=(
            CrashEvent(
                pid=2,
                crash_at_us=600 * MILLISECONDS,
                recover_at_us=1000 * MILLISECONDS,
            ),
        ),
    )
    return _config(
        seed=seed,
        duration_us=1500 * MILLISECONDS,
        fault_plan=plan,
        reliable_channels=True,
    )


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
class TestPlanning:
    def test_region_aligned_split_gets_wan_epoch(self):
        # 2 shards over 3 regions: contiguous region groups, so the epoch
        # bound is an inter-region floor — tens of milliseconds.
        plan = plan_shards(_config(n_nodes=6), 2)
        assert plan.n_shards == 2
        assert plan.epoch_us > 10_000
        assert sorted(pid for pids in plan.node_pids for pid in pids) == list(
            range(6)
        )

    def test_more_shards_than_regions_round_robin(self):
        plan = plan_shards(_config(n_nodes=4), 4)
        assert plan.n_shards == 4
        # Same-region links now cross shards: the epoch is intra-region.
        assert 1 <= plan.epoch_us < 10_000

    def test_single_shard_collapses(self):
        plan = plan_shards(_config(), 1)
        assert plan.n_shards == 1 and plan.epoch_us == 0

    def test_out_of_range_shard_count_rejected(self):
        with pytest.raises(ValueError, match="n_shards"):
            plan_shards(_config(), 5)
        with pytest.raises(ValueError, match="n_shards"):
            plan_shards(_config(), 0)

    def test_shard_of_maps_every_pid(self):
        plan = plan_shards(_config(n_nodes=6), 3)
        owners = {plan.shard_of(pid) for pid in range(6)}
        assert owners == set(range(plan.n_shards))
        with pytest.raises(KeyError):
            ShardPlan(1, 0, [[0]]).shard_of(7)


class TestRejections:
    def test_partial_synchrony_rejected(self):
        with pytest.raises(ValueError, match="gst_us"):
            run_sharded(_config(gst_us=1000), 2)

    def test_observability_rejected(self):
        with pytest.raises(ValueError, match="tracing/metrics"):
            run_sharded(_config(tracing=True), 2)
        with pytest.raises(ValueError, match="tracing/metrics"):
            run_sharded(_config(metrics=True), 2)

    def test_fairness_workload_rejected(self):
        spec = WorkloadSpec(
            groups=(ClientGroup(one_per_node=True),), fairness=True
        )
        with pytest.raises(ValueError, match="fairness"):
            run_sharded(_config(workload=spec), 2)

    def test_mev_workload_rejected(self):
        spec = WorkloadSpec(
            groups=(
                ClientGroup(one_per_node=True),
                ClientGroup(name="bots", client="mev", count=1),
            ),
            fairness=False,
        )
        with pytest.raises(ValueError, match="MEV"):
            run_sharded(_config(workload=spec), 2)


# ----------------------------------------------------------------------
# The digest oracle
# ----------------------------------------------------------------------
def _pair(cfg: ExperimentConfig, n_shards: int):
    single = run_sharded(cfg, 1)
    sharded = run_sharded(cfg, n_shards)
    return single, sharded


@pytest.mark.slow
@pytest.mark.parametrize("seed", [1, 5])
def test_goodcase_sharded_bit_identical(seed):
    single, sharded = _pair(_config(seed=seed), 2)
    assert sharded.digest() == single.digest()
    assert sharded.result.committed_count == single.result.committed_count
    assert sharded.result.executed_total == single.result.executed_total
    # Full event-count parity: remote clients are neutered with their
    # timer chains cancelled and the duplicate per-worker watchdog tick
    # chains are subtracted at merge time.
    assert sharded.result.events_processed == single.result.events_processed
    assert sharded.barriers > 0 and sharded.frames_exchanged > 0


@pytest.mark.slow
def test_chaos_sharded_bit_identical():
    # Lossy links, a crash/recover mid-run, reliable channels: the
    # per-link fault streams and retransmission state are all
    # sender-side, so the partition must stay exact.
    single, sharded = _pair(_chaos_config(), 2)
    assert sharded.digest() == single.digest()
    assert sharded.result.events_processed == single.result.events_processed
    assert sharded.result.safety_violation is None
    assert not sharded.result.invariant_violations


@pytest.mark.slow
def test_coalesced_sharded_bit_identical():
    cfg = _config(coalesce=True, coalesce_window_us=1000)
    single, sharded = _pair(cfg, 2)
    assert sharded.digest() == single.digest()
    # The wire counters are merged across workers, not lost.
    assert sharded.result.wire_stats.get("frames_sent", 0) > 0


@pytest.mark.slow
def test_shard_count_invariance():
    # 1, 2 and 4 workers decide the same prefixes.  Four shards over
    # three regions forces the round-robin assignment with a sub-ms
    # epoch, so this also exercises the many-small-barriers regime.
    cfg = _config(duration_us=800 * MILLISECONDS)
    digests = {run_sharded(cfg, k).digest() for k in (1, 2, 4)}
    assert len(digests) == 1


@pytest.mark.slow
def test_worker_cpu_accounting_present():
    sharded = run_sharded(_config(), 2)
    assert len(sharded.worker_loop_cpu_s) == 2
    assert all(cpu >= 0.0 for cpu in sharded.worker_loop_cpu_s)


# ----------------------------------------------------------------------
# Dissemination strategies
# ----------------------------------------------------------------------
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
    base = run_sharded(_config(), 1)
    tree = run_sharded(_config(dissemination="tree", fanout=8), 1)
    assert tree.digest() == base.digest()


@pytest.mark.slow
def test_relaying_tree_safe_deterministic_and_shardable():
    cfg = _config(n_nodes=6, dissemination="tree", fanout=2)
    single = run_sharded(cfg, 1)
    again = run_sharded(cfg, 1)
    sharded = run_sharded(cfg, 2)
    assert single.digest() == again.digest() == sharded.digest()
    assert single.result.safety_violation is None
    stats = single.result.wire_stats["dissemination"]
    assert stats["strategy"] == "tree"
    assert stats["tree_broadcasts"] > 0 and stats["relays"] > 0


@pytest.mark.slow
def test_gossip_safe_deterministic_and_shardable():
    cfg = _config(n_nodes=6, dissemination="gossip", fanout=3)
    single = run_sharded(cfg, 1)
    again = run_sharded(cfg, 1)
    sharded = run_sharded(cfg, 2)
    assert single.digest() == again.digest() == sharded.digest()
    assert single.result.safety_violation is None
    assert not single.result.invariant_violations
    stats = single.result.wire_stats["dissemination"]
    assert stats["strategy"] == "gossip"
    assert stats["pushes"] > 0 and stats["deliveries"] > 0


# ----------------------------------------------------------------------
# Cache keys and bench gates
# ----------------------------------------------------------------------
class TestCacheKeys:
    def test_dissemination_changes_cell_key(self):
        base = cell_key(_config(), "lyra")
        assert cell_key(_config(dissemination="tree"), "lyra") != base
        assert cell_key(_config(dissemination="gossip"), "lyra") != base

    def test_fanout_changes_cell_key(self):
        assert cell_key(_config(fanout=4), "lyra") != cell_key(
            _config(fanout=8), "lyra"
        )


class TestBenchGates:
    def _report(self, macro):
        return {"macro": macro}

    def test_check_sharding_passes_on_identical_pair(self):
        from repro.bench.suite import check_sharding

        macro = {
            "cell": {
                "prefix_sha256": "aa",
                "events": 100,
                "committed": 5,
                "executed_total": 9,
            },
            "cell_sharded": {
                "prefix_sha256": "aa",
                "events": 100,
                "committed": 5,
                "executed_total": 9,
                "shards": 2,
            },
        }
        assert check_sharding(self._report(macro)) == []

    def test_check_sharding_fails_on_divergence(self):
        from repro.bench.suite import check_sharding

        macro = {
            "cell": {
                "prefix_sha256": "aa",
                "events": 100,
                "committed": 5,
                "executed_total": 9,
            },
            "cell_sharded": {
                "prefix_sha256": "bb",
                "events": 103,
                "committed": 4,
                "executed_total": 9,
                "shards": 2,
            },
        }
        failures = check_sharding(self._report(macro))
        assert any("digest" in f for f in failures)
        assert any("committed" in f for f in failures)
        assert any("events" in f for f in failures)

    def test_check_sharding_requires_a_pair(self):
        from repro.bench.suite import check_sharding

        assert check_sharding(self._report({"cell": {}}))

    def test_check_dissemination_degenerate_tree_gate(self):
        from repro.bench.suite import check_dissemination

        macro = {
            "cell": {"prefix_sha256": "aa"},
            "cell_tree": {
                "prefix_sha256": "bb",
                "dissemination": "tree",
                "fanout": 8,
                "n": 4,
            },
        }
        failures = check_dissemination(self._report(macro))
        assert any("degenerate tree" in f for f in failures)
        macro["cell_tree"]["prefix_sha256"] = "aa"
        assert check_dissemination(self._report(macro)) == []

    def test_check_dissemination_relaying_tree_not_digest_gated(self):
        from repro.bench.suite import check_dissemination

        macro = {
            "cell": {"prefix_sha256": "aa"},
            "cell_tree": {
                "prefix_sha256": "bb",
                "dissemination": "tree",
                "fanout": 2,
                "n": 32,
            },
        }
        assert check_dissemination(self._report(macro)) == []

    def test_check_dissemination_flags_safety(self):
        from repro.bench.suite import check_dissemination

        macro = {
            "cell": {"prefix_sha256": "aa"},
            "cell_gossip": {
                "prefix_sha256": "bb",
                "dissemination": "gossip",
                "fanout": 3,
                "n": 8,
                "safety_violation": "prefix divergence",
            },
        }
        failures = check_dissemination(self._report(macro))
        assert any("safety" in f for f in failures)
