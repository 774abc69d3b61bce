"""Focused unit tests for LyraNode internals: CPU cost accounting, message
dispatch, batching triggers, piggyback attachment, probe flow, the
warm-up defaults shared with the harness, and the services wiring."""

import pytest

from repro.core.node import (
    DEFAULT_WARMUP_ROUNDS,
    DEFAULT_WARMUP_SPACING_US,
    LyraConfig,
    LyraNode,
    PROBE_ACK_KIND,
    PROBE_KIND,
    warmup_duration_us,
)
from repro.core.commit import DSHARE_KIND, STATUS_KIND, StatusReport
from repro.core.distance import DistanceEstimator
from repro.core.replica import CLIENT_TX_KIND
from repro.core.services import ProtocolServices
from repro.core.types import Transaction
from repro.core.vvb import DELIVER_KIND, INIT_KIND, VOTE1_KIND
from repro.core.obfuscation import make_obfuscation
from repro.crypto.cost import DEFAULT_COSTS, FREE_COSTS
from repro.crypto.signatures import KeyRegistry
from repro.crypto.threshold import ThresholdScheme
from repro.harness import ExperimentConfig, build_cluster
from repro.net.latency import UniformLatencyModel
from repro.net.message import Message
from repro.net.network import Network, NetworkConfig
from repro.sim.engine import MILLISECONDS, Simulator
from repro.sim.rng import RngRegistry


def build_pair(costs=DEFAULT_COSTS, **cfg_kwargs):
    """Two wired LyraNodes on a fast uniform network."""
    sim = Simulator()
    n, f = 4, 1
    registry = KeyRegistry(3)
    threshold = ThresholdScheme(3, n, seed=3)
    obf = make_obfuscation("vss", 3, n, seed=3)
    net = Network(
        sim,
        UniformLatencyModel(1 * MILLISECONDS),
        config=NetworkConfig(
            delta_us=5 * MILLISECONDS, bandwidth_enabled=False
        ),
    )
    nodes = []
    for pid in range(n):
        cfg = LyraConfig(batch_size=2, costs=costs, **cfg_kwargs)
        node = LyraNode(
            pid,
            sim,
            n=n,
            f=f,
            registry=registry,
            threshold=threshold,
            obfuscation=obf,
            config=cfg,
            rng=RngRegistry(3),
        )
        nodes.append(node)
        net.register(node)
    return sim, nodes, net


class TestReceiveCosts:
    def test_init_costs_verification_and_dealing_check(self):
        sim, nodes, net = build_pair()
        node = nodes[0]
        msg = Message(INIT_KIND, {}, 1000)
        cost = node._receive_cost(msg)
        assert cost >= DEFAULT_COSTS.verify_us + DEFAULT_COSTS.vss_check_dealing_us

    def test_vote1_costs_share_verification(self):
        sim, nodes, net = build_pair()
        assert nodes[0]._RECEIVE_COSTS[VOTE1_KIND] == DEFAULT_COSTS.share_verify_us

    def test_deliver_costs_threshold_verification(self):
        sim, nodes, net = build_pair()
        assert (
            nodes[0]._RECEIVE_COSTS[DELIVER_KIND] == DEFAULT_COSTS.threshold_verify_us
        )

    def test_cheap_kinds(self):
        sim, nodes, net = build_pair()
        for kind in (STATUS_KIND, PROBE_KIND, PROBE_ACK_KIND, CLIENT_TX_KIND):
            assert nodes[0]._RECEIVE_COSTS[kind] <= 3

    def test_table_holds_every_constant_kind_and_follows_the_cost_profile(self):
        """The per-node table is the class's fixed kinds plus the two that
        come from ``costs``; the size- and payload-dependent kinds stay in
        ``_receive_cost``."""
        sim, nodes, net = build_pair(costs=DEFAULT_COSTS.scaled(2.0))
        node = nodes[0]
        table = node._RECEIVE_COSTS
        assert table == {
            **LyraNode._FIXED_RECEIVE_COSTS,
            VOTE1_KIND: 2 * DEFAULT_COSTS.share_verify_us,
            DELIVER_KIND: 2 * DEFAULT_COSTS.threshold_verify_us,
        }
        assert not {INIT_KIND, DSHARE_KIND} & set(table)
        items = {"items": (1, 2, 3)}
        assert node._receive_cost(Message(DSHARE_KIND, items)) == 6

    def test_cpu_queue_defers_processing(self):
        sim, nodes, net = build_pair()
        node = nodes[0]
        # Saturate the CPU, then deliver: processing must happen at the
        # CPU-free time, not at network-arrival time.
        node.cpu.acquire(50_000)
        nodes[1].send(0, Message(STATUS_KIND, {"pb": None}))
        sim.run()
        # Delivery event at 1ms; processing deferred past 50ms.
        assert node.messages_received == 1
        assert sim.now >= 50_000


class TestBatching:
    def test_full_batch_triggers_proposal(self):
        sim, nodes, net = build_pair(costs=FREE_COSTS)
        node = nodes[0]
        node.start()
        sim.run(until=1_000_000)  # warm up distances
        node.submit(Transaction(9, 0))
        assert node.stats.batches_proposed == 0  # 1 < batch_size=2
        node.submit(Transaction(9, 1))
        assert node.stats.batches_proposed == 1

    def test_timeout_flushes_partial_batch(self):
        sim, nodes, net = build_pair(costs=FREE_COSTS)
        node = nodes[0]
        node.start()
        sim.run(until=1_000_000)
        node.submit(Transaction(9, 0))
        sim.run(until=sim.now + node.config.batch_timeout_us + 1000)
        assert node.stats.batches_proposed == 1

    def test_empty_flush_is_noop(self):
        sim, nodes, net = build_pair(costs=FREE_COSTS)
        node = nodes[0]
        node.start()
        sim.run(until=500_000)
        assert node.stats.batches_proposed == 0


class TestPiggyback:
    def test_broadcasts_carry_commit_state(self):
        sim, nodes, net = build_pair()
        seen = []
        net.add_trace_hook(
            lambda t, s, d, m: seen.append(m)
            if m.kind == STATUS_KIND
            else None
        )
        for node in nodes:
            node.start()
        sim.run(until=100_000)
        assert seen
        pb = seen[0].payload.get("pb")
        assert type(pb) is StatusReport
        assert pb._fields == ("locked", "minp", "acc")
        assert type(pb.locked) is int and type(pb.minp) is int and pb.acc == ()

    def test_point_to_point_not_piggybacked(self):
        sim, nodes, net = build_pair()
        seen = []
        net.add_trace_hook(
            lambda t, s, d, m: seen.append(m)
            if m.kind == PROBE_ACK_KIND
            else None
        )
        for node in nodes:
            node.start()
        sim.run(until=500_000)
        assert seen
        assert "pb" not in seen[0].payload


class TestProbing:
    def test_warmup_measures_all_peers(self):
        sim, nodes, net = build_pair()
        for node in nodes:
            node.start()
        sim.run(until=2_000_000)
        for node in nodes:
            assert node.estimator.coverage() == 1.0

    def test_distances_close_to_network_latency(self):
        sim, nodes, net = build_pair()
        for node in nodes:
            node.start()
        sim.run(until=2_000_000)
        # Uniform 1 ms latency, zero skew: every distance ≈ 1000 µs.
        d = nodes[0].estimator.distance(2)
        assert d is not None and 500 <= d <= 2000


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

    def test_cluster_nodes_learn_distances_from_probes(self):
        cluster = build_cluster(ExperimentConfig(n_nodes=4, seed=3))
        for node in cluster.nodes:
            assert type(node.estimator) is DistanceEstimator


class TestServices:
    def test_quorum_arithmetic(self):
        sim, nodes, net = build_pair()
        services = nodes[0].services
        assert services.quorum == 3  # n - f
        assert services.small_quorum == 2  # f + 1

    def test_invalid_resilience_rejected(self):
        with pytest.raises(ValueError):
            ProtocolServices(
                pid=0,
                n=3,
                f=1,  # 3 <= 3f: invalid
                sim=Simulator(),
                delta_us=1000,
                signer=KeyRegistry(1).signer(0),
                registry=KeyRegistry(1),
                threshold=ThresholdScheme(3, 4, seed=1),
            )

    def test_threshold_signer_autoconstructed(self):
        sim, nodes, net = build_pair()
        services = nodes[0].services
        share = services.threshold_signer.share_sign("m")
        assert services.threshold.share_verify("m", share, 0)


class TestInstanceGc:
    def test_finished_instances_reclaimed(self):
        from tests.helpers import quick_lyra_config
        from repro.harness import build_cluster

        cfg = quick_lyra_config(duration_us=6_000_000)
        cluster = build_cluster(cfg)
        result = cluster.run()
        assert result.committed_count > 0
        for node in cluster.nodes:
            # Most instances resolved long before the horizon: their
            # state is gone, only the finished-marker set remembers them.
            assert len(node._instances) < node.stats.instances_joined
            assert len(node._finished) > 0

    def test_late_traffic_for_finished_instance_ignored(self):
        from tests.helpers import quick_lyra_config
        from repro.harness import build_cluster
        from repro.core.vvb import VOTE0_KIND

        cfg = quick_lyra_config(duration_us=6_000_000)
        cluster = build_cluster(cfg)
        cluster.run()
        node = cluster.nodes[0]
        iid = next(iter(node._finished))
        before = len(node._instances)
        node._dispatch_instance(VOTE0_KIND, {"iid": iid, "seq": 1}, sender=1)
        assert len(node._instances) == before  # not resurrected


class TestBatchFlushRequeueInteraction:
    def test_requeued_txs_flushed_by_timer(self):
        # A rejected batch put back via requeue must ride the next
        # batch-flush tick — re-proposal needs no new client traffic.
        sim, nodes, net = build_pair(costs=FREE_COSTS)
        node = nodes[0]
        node.start()
        sim.run(until=1_000_000)
        node.submit(Transaction(9, 0))
        node.mempool.requeue(node.mempool.take_batch())
        before = node.stats.batches_proposed
        sim.run(until=sim.now + node.config.batch_timeout_us + 1000)
        assert node.stats.batches_proposed == before + 1
        assert node.mempool.duplicates_dropped == 0

    def test_recovery_reproposal_neither_duplicates_nor_drops(self):
        # Crash wipes the volatile mempool; after recovery a client
        # retransmission of the same transaction must be accepted (not
        # suppressed as a duplicate of pre-crash state) and proposed once
        # by the re-armed batch-flush timer.
        sim, nodes, net = build_pair(costs=FREE_COSTS)
        node = nodes[0]
        node.start()
        sim.run(until=1_000_000)
        node.submit(Transaction(9, 0))
        node.crash()
        node.recover()
        assert len(node.mempool) == 0  # volatile state is gone
        node.submit(Transaction(9, 0))  # retransmission accepted
        assert len(node.mempool) == 1
        node.submit(Transaction(9, 0))  # but only once
        assert len(node.mempool) == 1
        assert node.mempool.duplicates_dropped == 1
        before = node.stats.batches_proposed
        sim.run(until=sim.now + node.config.batch_timeout_us + 1000)
        assert node.stats.batches_proposed == before + 1
        assert len(node.mempool) == 0  # nothing dropped, nothing stuck
