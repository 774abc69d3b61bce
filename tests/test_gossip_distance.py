"""Epidemic (gossip) distance estimation: unit behaviour of
``GossipDistanceEstimator``, the wired ``distance_mode="gossip"`` cluster
path, crash/recovery re-estimation (churn), and the warm-up
configuration-unification regression guards."""

import pytest

from repro.bench.suite import prefix_digest
from repro.core.clocks import true_distance_us
from repro.core.distance import DistanceEstimator
from repro.core.gossip_distance import (
    DEFAULT_GOSSIP_FANOUT,
    GossipDistanceEstimator,
    HOP_DECAY,
)
from repro.core.node import (
    DEFAULT_WARMUP_ROUNDS,
    DEFAULT_WARMUP_SPACING_US,
    LyraConfig,
    warmup_duration_us,
)
from repro.harness import ExperimentConfig, build_cluster
from repro.net.faults import CrashEvent, FaultPlan
from repro.sim.engine import MILLISECONDS, SECONDS


def gossip_config(
    n=8,
    seed=11,
    *,
    rounds=6,
    fanout=3,
    duration_us=1500 * MILLISECONDS,
    **overrides,
):
    return ExperimentConfig(
        n_nodes=n,
        seed=seed,
        batch_size=8,
        clients_per_node=1,
        client_window=4,
        duration_us=duration_us,
        warmup_rounds=2,
        warmup_spacing_us=150 * MILLISECONDS,
        distance_mode="gossip",
        gossip_rounds=rounds,
        gossip_fanout=fanout,
        **overrides,
    )


class TestGossipEstimatorUnit:
    def test_peers_for_round_is_seeded_and_bounded(self):
        est = GossipDistanceEstimator(16, 3, fanout=4, seed=9)
        twin = GossipDistanceEstimator(16, 3, fanout=4, seed=9)
        for r in range(8):
            peers = est.peers_for_round(r)
            # Pure function of (seed, pid, incarnation, round).
            assert peers == twin.peers_for_round(r)
            assert len(peers) == 4
            assert len(set(peers)) == 4
            assert 3 not in peers
        # A different seed, pid, or incarnation walks a different sequence.
        other = GossipDistanceEstimator(16, 3, fanout=4, seed=10)
        assert any(
            est.peers_for_round(r) != other.peers_for_round(r) for r in range(8)
        )
        assert any(
            est.peers_for_round(r) != est.peers_for_round(r, incarnation=1)
            for r in range(8)
        )

    def test_begin_round_wire_accounting(self):
        est = GossipDistanceEstimator(8, 0, fanout=3, seed=1)
        for r in range(5):
            assert len(est.begin_round(r)) == 3
        assert est.rounds_started == 5
        assert est.requests_sent == 15
        assert est.max_requests_per_round == 3

    def test_fanout_capped_at_peer_count(self):
        # n=3 with fanout=5: only two peers exist.
        est = GossipDistanceEstimator(3, 0, fanout=5, seed=1)
        assert sorted(est.peers_for_round(0)) == [1, 2]

    def test_merge_composes_via_relay(self):
        # 0 measures d_01 = 100 directly; 1's summary carries d_12 = 40.
        # The relayed candidate is d_02 = d_01 + d_12 = 140 at half weight.
        est = GossipDistanceEstimator(3, 0, fanout=2, seed=1)
        est.record(1, s_ref=0, seq_j=100)
        merged = est.merge(1, [(2, 40.0, 1.0)])
        assert merged == 1
        assert est.distance(2) == pytest.approx(140.0)
        assert est.peers_measured() == 2
        assert est.coverage() == 1.0

    def test_merge_without_direct_distance_is_noop(self):
        # No d_0,via yet: the detour sum has no first leg, nothing merges.
        est = GossipDistanceEstimator(3, 0, fanout=2, seed=1)
        assert est.merge(1, [(2, 40.0, 1.0)]) == 0
        assert est.distance(2) is None

    def test_direct_sample_supersedes_gossip(self):
        est = GossipDistanceEstimator(3, 0, fanout=2, seed=1)
        est.record(1, 0, 100)
        est.merge(1, [(2, 40.0, 1.0)])
        est.record(2, 0, 90)  # direct measurement arrives later
        assert est.distance(2) == 90.0
        # And direct peers are skipped on subsequent merges.
        assert est.merge(1, [(2, 500.0, 1.0)]) == 0

    def test_weighted_averaging_across_relays(self):
        est = GossipDistanceEstimator(4, 0, fanout=2, seed=1)
        est.record(1, 0, 100)
        est.merge(1, [(3, 40.0, 1.0)])  # candidate 140, weight 0.5
        est.record(2, 0, 200)
        est.merge(2, [(3, 10.0, 1.0)])  # candidate 210, weight 0.5
        assert est.distance(3) == pytest.approx((140.0 + 210.0) / 2)

    def test_hop_decay_fades_multi_hop_detours(self):
        est = GossipDistanceEstimator(4, 0, fanout=2, seed=1)
        est.record(1, 0, 100)
        # A relayed entry that was itself relayed ships at weight 0.5 and
        # lands here at 0.25: two hops of decay.
        est.merge(1, [(3, 40.0, HOP_DECAY)])
        assert est._gossip[3][1] == pytest.approx(HOP_DECAY * HOP_DECAY)

    def test_malformed_and_out_of_range_entries_skipped(self):
        est = GossipDistanceEstimator(3, 0, fanout=2, seed=1)
        est.record(1, 0, 100)
        vector = [
            (0, 10.0, 1.0),  # self
            (1, 10.0, 1.0),  # the relay itself
            (9, 10.0, 1.0),  # out of range
            (2, 10.0, 0.0),  # zero weight
            ("x", 10.0, 1.0),  # junk pid
            (2,),  # malformed tuple
        ]
        assert est.merge(1, vector) == 0

    def test_incarnation_bump_drops_stale_entries(self):
        est = GossipDistanceEstimator(3, 0, fanout=2, seed=1)
        est.record(1, 0, 100)
        est.merge(1, [(2, 40.0, 1.0)])
        assert est.peers_measured() == 2
        # Peer 2 recovered with a higher incarnation: its relayed entry is
        # stale (the new clock may sit anywhere).
        est.note_incarnation(2, 1)
        assert est.distance(2) is None
        assert est.stale_entries_dropped == 1
        # Replays at the old incarnation don't resurrect anything.
        est.note_incarnation(2, 0)
        assert est.distance(2) is None

    def test_converged_round_records_first_full_coverage(self):
        est = GossipDistanceEstimator(3, 0, fanout=2, seed=1)
        est.begin_round(0)
        est.record(1, 0, 100)
        assert est.converged_round is None
        est.merge(1, [(2, 40.0, 1.0)])
        assert est.converged_round == 1
        stats = est.gossip_stats()
        assert stats["converged_round"] == 1
        assert stats["coverage"] == 1.0

    def test_invalid_fanout(self):
        with pytest.raises(ValueError):
            GossipDistanceEstimator(4, 0, fanout=0)


class TestWarmupConfigUnification:
    def test_single_source_of_truth_for_spacing(self):
        # Regression: LyraConfig defaulted to 150 ms while
        # ExperimentConfig used 200 ms — a cluster built from defaults
        # had its client start gate disagree with the node warm-up.
        assert LyraConfig().warmup_spacing_us == DEFAULT_WARMUP_SPACING_US
        assert (
            ExperimentConfig().warmup_spacing_us == DEFAULT_WARMUP_SPACING_US
        )
        assert LyraConfig().warmup_rounds == DEFAULT_WARMUP_ROUNDS
        assert ExperimentConfig().warmup_rounds == DEFAULT_WARMUP_ROUNDS

    def test_duration_formulas_agree(self):
        exp_cfg = ExperimentConfig(warmup_rounds=3, warmup_spacing_us=90_000)
        lyra_cfg = LyraConfig(warmup_rounds=3, warmup_spacing_us=90_000)
        expected = warmup_duration_us(3, 90_000)
        assert exp_cfg.client_start_us() == expected
        assert lyra_cfg.warmup_duration_us() == expected

    def test_default_mode_is_probe_with_plain_estimator(self):
        cluster = build_cluster(ExperimentConfig(n_nodes=4, seed=3))
        for node in cluster.nodes:
            assert type(node.estimator) is DistanceEstimator


class TestGossipClusterIntegration:
    def test_gossip_cluster_converges_and_respects_wire_bound(self):
        cluster = build_cluster(gossip_config(n=8, seed=11), protocol="lyra")
        result = cluster.run()
        assert result.safety_violation is None
        assert not result.invariant_violations
        assert result.committed_count > 0
        stats = cluster.gossip_distance_stats()
        assert stats["nodes"] == 8
        assert stats["converged_nodes"] == 8
        assert stats["min_coverage"] == 1.0
        # The O(n·fanout) bound: no node ever contacted more than fanout
        # peers in a single round.
        assert stats["max_requests_per_round"] <= cluster.config.gossip_fanout
        # Estimates are accurate enough that λ-validation keeps margin:
        # mean error well under the default λ.
        err = cluster.distance_error_stats()
        assert err["pairs_estimated"] == err["pairs_total"]
        assert err["abs_error_us_mean"] < cluster.config.lambda_us

    def test_gossip_run_is_deterministic(self):
        digests, stats = [], []
        for _ in range(2):
            cluster = build_cluster(gossip_config(n=6, seed=5), protocol="lyra")
            cluster.run()
            digests.append(prefix_digest(cluster))
            stats.append(cluster.gossip_distance_stats())
        assert digests[0] == digests[1]
        assert stats[0] == stats[1]

    @pytest.mark.slow
    def test_gossip_converges_at_n32(self):
        # The acceptance cell: open-membership scale (n=32), constant
        # fan-out — every pairwise d_ij estimate converges network-wide
        # without any node probing all peers.
        cluster = build_cluster(
            gossip_config(n=32, seed=7, duration_us=1200 * MILLISECONDS),
            protocol="lyra",
        )
        result = cluster.run()
        assert result.safety_violation is None
        stats = cluster.gossip_distance_stats()
        assert stats["converged_nodes"] == 32
        assert stats["min_coverage"] == 1.0
        assert stats["max_requests_per_round"] <= DEFAULT_GOSSIP_FANOUT
        # Constant egress per node per round, NOT n-1: the whole point.
        assert DEFAULT_GOSSIP_FANOUT < 31


class TestGossipChurn:
    @pytest.mark.slow
    def test_crash_recovery_triggers_reestimation(self):
        # Satellite: kill a node mid-run, recover it, and require the
        # epidemic layer to re-converge without operator action.
        crash = CrashEvent(
            pid=2, crash_at_us=2 * SECONDS, recover_at_us=2500 * MILLISECONDS
        )
        cfg = gossip_config(
            n=6,
            seed=13,
            duration_us=5 * SECONDS,
            fault_plan=FaultPlan(crashes=(crash,)),
            reliable_channels=True,
        )
        cluster = build_cluster(cfg, protocol="lyra")
        result = cluster.run()
        assert result.safety_violation is None
        assert not result.invariant_violations
        recovered = cluster.nodes[2]
        assert recovered.recoveries == 1
        # Peers saw the bumped incarnation and dropped stale entries...
        dropped = sum(
            node.estimator.stale_entries_dropped
            for node in cluster.nodes
            if node.pid != 2
        )
        assert dropped > 0
        # ...and the re-estimation burst rebuilt full coverage everywhere,
        # including on the recovered incarnation itself.
        stats = cluster.gossip_distance_stats()
        assert stats["converged_nodes"] == 6
        assert stats["min_coverage"] == 1.0
        # Lemma-2 margin after churn: every rebuilt estimate is close
        # enough to ground truth that Equation-1 validation keeps its λ
        # slack (estimator error ≪ λ, so the (n−f)-th-rank sequence bound
        # still holds with margin).
        for node in cluster.nodes:
            for peer in cluster.nodes:
                if peer.pid == node.pid:
                    continue
                est = node.estimator.distance(peer.pid)
                assert est is not None
                truth = true_distance_us(
                    node.clock,
                    peer.clock,
                    cluster.latency.base_us(node.pid, peer.pid),
                )
                assert abs(est - truth) < cfg.lambda_us
