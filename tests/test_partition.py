"""Network-partition scenarios: safety during the split, liveness after
healing (the classic partial-synchrony stress test)."""

import pytest

from repro.harness import ExperimentConfig, build_cluster
from repro.net.adversary import PartitionAdversary, PartitionEvent
from repro.sim.engine import MILLISECONDS, SECONDS
from repro.workload.clients import ClosedLoopClient


def build_partitioned(heal_at_us, seed=53, n=4):
    cfg = ExperimentConfig(
        n_nodes=n,
        seed=seed,
        batch_size=5,
        clients_per_node=1,
        client_window=3,
        duration_us=10 * SECONDS,
        warmup_rounds=2,
        warmup_spacing_us=150 * MILLISECONDS,
    )
    cluster = build_cluster(cfg)
    # 2-2 split: neither side holds a 2f+1 = 3 quorum.
    cluster.network.adversary = split({0, 1}, heal_at_us)
    return cluster


def split(group, heal_at_us):
    """One episode isolating ``group`` from everyone else until heal."""
    return PartitionAdversary(
        schedule=[PartitionEvent(groups=(frozenset(group),), heal_at_us=heal_at_us)]
    )


class TestAdversaryUnit:
    def test_same_side_unaffected(self):
        adv = split({0, 1}, heal_at_us=1000)
        assert adv.extra_delay_us(0, 1, 10, now=0) == 0
        assert adv.extra_delay_us(2, 3, 10, now=0) == 0

    def test_cross_partition_held_until_heal(self):
        adv = split({0, 1}, heal_at_us=1000)
        assert adv.extra_delay_us(0, 2, 10, now=400) == 600
        assert adv.extra_delay_us(2, 0, 10, now=999) == 1
        assert adv.extra_delay_us(0, 2, 10, now=1000) == 0

    def test_gst_is_heal_time(self):
        assert split({0}, 777).gst() == 777


class TestPartitionEvent:
    def test_validates_groups(self):
        with pytest.raises(ValueError, match="at least one group"):
            PartitionEvent(groups=(), heal_at_us=100)
        with pytest.raises(ValueError, match="two groups"):
            PartitionEvent(
                groups=(frozenset({0, 1}), frozenset({1, 2})), heal_at_us=100
            )
        with pytest.raises(ValueError, match="heal_at_us"):
            PartitionEvent(groups=(frozenset({0}),), heal_at_us=50, start_us=50)

    def test_side_and_remainder_group(self):
        ev = PartitionEvent(
            groups=(frozenset({0, 1}), frozenset({2})), heal_at_us=1000
        )
        assert ev.side(0) == 0
        assert ev.side(2) == 1
        assert ev.side(5) == -1  # implicit remainder group

    def test_active_window(self):
        ev = PartitionEvent(
            groups=(frozenset({0}),), start_us=100, heal_at_us=200
        )
        assert not ev.active(99)
        assert ev.active(100)
        assert ev.active(199)
        assert not ev.active(200)


class TestScheduledAdversary:
    def test_three_way_split(self):
        adv = PartitionAdversary(
            schedule=[
                PartitionEvent(
                    groups=(frozenset({0, 1}), frozenset({2, 3})),
                    heal_at_us=1000,
                )
            ]
        )
        # 4,5 form the remainder group: isolated from both listed groups.
        assert adv.extra_delay_us(0, 1, 10, now=0) == 0
        assert adv.extra_delay_us(4, 5, 10, now=0) == 0
        assert adv.extra_delay_us(0, 2, 10, now=400) == 600
        assert adv.extra_delay_us(0, 4, 10, now=400) == 600
        assert adv.extra_delay_us(2, 5, 10, now=999) == 1

    def test_per_event_heal_times(self):
        adv = PartitionAdversary(
            schedule=[
                PartitionEvent(groups=(frozenset({0}),), heal_at_us=1000),
                PartitionEvent(
                    groups=(frozenset({0, 1}),),
                    start_us=2000,
                    heal_at_us=3000,
                ),
            ]
        )
        # First episode isolates 0; second isolates {0,1}.
        assert adv.extra_delay_us(0, 1, 10, now=500) == 500
        assert adv.extra_delay_us(0, 1, 10, now=1500) == 0  # between episodes
        assert adv.extra_delay_us(0, 2, 10, now=2500) == 500
        assert adv.extra_delay_us(0, 1, 10, now=2500) == 0  # same side now
        assert adv.gst() == 3000

    def test_overlapping_events_take_max_delay(self):
        adv = PartitionAdversary(
            schedule=[
                PartitionEvent(groups=(frozenset({0}),), heal_at_us=1000),
                PartitionEvent(groups=(frozenset({0}),), heal_at_us=5000),
            ]
        )
        assert adv.extra_delay_us(0, 1, 10, now=100) == 4900

    def test_ctor_forms_mutually_exclusive(self):
        # ``schedule`` is the only form: positional groups and an empty
        # schedule are refused.
        with pytest.raises(TypeError):
            PartitionAdversary({0}, 100)
        with pytest.raises(ValueError, match="at least one"):
            PartitionAdversary(schedule=[])


class TestRepeatedSplitsLiveness:
    def test_cluster_survives_two_episodes(self):
        cfg = ExperimentConfig(
            n_nodes=4,
            seed=53,
            batch_size=5,
            clients_per_node=1,
            client_window=3,
            duration_us=10 * SECONDS,
            warmup_rounds=2,
            warmup_spacing_us=150 * MILLISECONDS,
        )
        cluster = build_cluster(cfg)
        cluster.network.adversary = PartitionAdversary(
            schedule=[
                PartitionEvent(
                    groups=(frozenset({0, 1}),),
                    start_us=1 * SECONDS,
                    heal_at_us=2 * SECONDS,
                ),
                PartitionEvent(
                    groups=(frozenset({2, 3}),),
                    start_us=3 * SECONDS,
                    heal_at_us=4 * SECONDS,
                ),
            ]
        )
        result = cluster.run()
        assert result.safety_violation is None
        assert result.committed_count > 0


class TestMinorityPartition:
    def test_no_quorum_no_commits_during_split(self):
        """A 2-2 split leaves no side with 2f+1 = 3 replicas: nothing can
        commit while the partition holds — and nothing unsafe happens."""
        cluster = build_partitioned(heal_at_us=8 * SECONDS)
        cluster.sim.run(until=7 * SECONDS)
        for node in cluster.nodes:
            assert len(node.output_sequence()) == 0
        from repro.core.smr import check_prefix_consistency

        outputs = {n.pid: n.output_sequence() for n in cluster.nodes}
        assert check_prefix_consistency(outputs) is None

    def test_liveness_resumes_after_heal(self):
        cluster = build_partitioned(heal_at_us=3 * SECONDS)
        result = cluster.run()
        assert result.safety_violation is None
        assert result.committed_count > 0
        # All four replicas converge on the same log.
        lens = {len(n.output_sequence()) for n in cluster.nodes}
        assert max(lens) > 0
