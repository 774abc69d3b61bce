"""Network-partition scenarios: safety during the split, liveness after
healing (the classic partial-synchrony stress test)."""

import pytest

from repro.harness import ExperimentConfig, build_cluster
from repro.net.faults import FaultInjector, FaultPlan, partition_faults
from repro.net.message import Message
from repro.sim.engine import MILLISECONDS, SECONDS
from repro.sim.rng import RngRegistry


def partition_config(links, gst_us, seed=53, n=4):
    return ExperimentConfig(
        n_nodes=n,
        seed=seed,
        batch_size=5,
        clients_per_node=1,
        client_window=3,
        duration_us=10 * SECONDS,
        warmup_rounds=2,
        warmup_spacing_us=150 * MILLISECONDS,
        fault_plan=FaultPlan(links=links, gst_us=gst_us),
    )


def build_partitioned(heal_at_us, seed=53, n=4):
    # 2-2 split: neither side holds a 2f+1 = 3 quorum.
    return build_cluster(
        partition_config(split({0, 1}, heal_at_us, n), heal_at_us, seed, n)
    )


def split(group, heal_at_us, n=4):
    """One episode isolating ``group`` from the other replicas until heal."""
    return partition_faults([group], n, heal_at_us=heal_at_us)


def hold(links, src, dst, now):
    """How long ``links`` hold a ``src -> dst`` frame sent at ``now``."""
    injector = FaultInjector(FaultPlan(links=links, gst_us=1 << 40), RngRegistry(0))
    return injector.decide(src, dst, Message("x"), now).delay_us


class TestAdversaryUnit:
    def test_same_side_unaffected(self):
        links = split({0, 1}, heal_at_us=1000)
        assert hold(links, 0, 1, now=0) == 0
        assert hold(links, 2, 3, now=0) == 0

    def test_cross_partition_held_until_heal(self):
        links = split({0, 1}, heal_at_us=1000)
        assert hold(links, 0, 2, now=400) == 600
        assert hold(links, 2, 0, now=999) == 1
        assert hold(links, 0, 2, now=1000) == 0

    def test_gst_is_heal_time(self):
        # Every hold ends at the heal, so a plan's GST can be no earlier.
        assert {lf.end_us for lf in split({0}, 777)} == {777}
        with pytest.raises(ValueError, match="gst_us"):
            FaultPlan(links=split({0}, 777), gst_us=776)


class TestPartitionEvent:
    def test_validates_groups(self):
        with pytest.raises(ValueError, match="at least one group"):
            partition_faults([], 4, heal_at_us=100)
        with pytest.raises(ValueError, match="two groups"):
            partition_faults([{0, 1}, {1, 2}], 4, heal_at_us=100)
        with pytest.raises(ValueError, match="heal_at_us"):
            partition_faults([{0}], 4, heal_at_us=50, start_us=50)
        with pytest.raises(ValueError, match="not replicas"):
            partition_faults([{0, 4}], 4, heal_at_us=100)

    def test_side_and_remainder_group(self):
        links = partition_faults([{0, 1}, {2}], 6, heal_at_us=1000)
        # One hold rule per side; 3, 4, 5 form the implicit remainder.
        assert [(lf.src, lf.dst) for lf in links] == [
            ((0, 1), (2, 3, 4, 5)),
            ((2,), (0, 1, 3, 4, 5)),
            ((3, 4, 5), (0, 1, 2)),
        ]
        assert all(lf.hold and lf.end_us == 1000 for lf in links)
        assert hold(links, 5, 3, now=0) == 0
        assert hold(links, 5, 2, now=0) == 1000

    def test_active_window(self):
        links = partition_faults([{0}], 4, start_us=100, heal_at_us=200)
        assert hold(links, 0, 1, now=99) == 0
        assert hold(links, 0, 1, now=100) == 100
        assert hold(links, 0, 1, now=199) == 1
        assert hold(links, 0, 1, now=200) == 0


class TestScheduledAdversary:
    def test_three_way_split(self):
        links = partition_faults([{0, 1}, {2, 3}], 6, heal_at_us=1000)
        # 4,5 form the remainder group: isolated from both listed groups.
        assert hold(links, 0, 1, now=0) == 0
        assert hold(links, 4, 5, now=0) == 0
        assert hold(links, 0, 2, now=400) == 600
        assert hold(links, 0, 4, now=400) == 600
        assert hold(links, 2, 5, now=999) == 1

    def test_per_event_heal_times(self):
        links = split({0}, 1000) + partition_faults(
            [{0, 1}], 4, start_us=2000, heal_at_us=3000
        )
        # First episode isolates 0; second isolates {0,1}.
        assert hold(links, 0, 1, now=500) == 500
        assert hold(links, 0, 1, now=1500) == 0  # between episodes
        assert hold(links, 0, 2, now=2500) == 500
        assert hold(links, 0, 1, now=2500) == 0  # same side now
        assert max(lf.end_us for lf in links) == 3000

    def test_overlapping_events_take_max_delay(self):
        links = split({0}, 1000) + split({0}, 5000)
        assert hold(links, 0, 1, now=100) == 4900

    def test_ctor_forms_mutually_exclusive(self):
        # The heal time is keyword-only, and an empty partition is refused.
        with pytest.raises(TypeError):
            partition_faults([{0}], 4, 100)
        with pytest.raises(ValueError, match="at least one"):
            partition_faults([], 4, heal_at_us=100)


class TestRepeatedSplitsLiveness:
    def test_cluster_survives_two_episodes(self):
        links = partition_faults(
            [{0, 1}], 4, start_us=1 * SECONDS, heal_at_us=2 * SECONDS
        ) + partition_faults([{2, 3}], 4, start_us=3 * SECONDS, heal_at_us=4 * SECONDS)
        result = build_cluster(partition_config(links, 4 * SECONDS)).run()
        assert result.safety_violation is None
        assert result.committed_count > 0


class TestWatchdogGst:
    def test_partition_healing_after_measurement_start_is_not_a_stall(self):
        """The partition example's rig, healing at 5 s: the plan's GST
        reaches the watchdog, so the split's silence is not reported as a
        post-GST liveness violation."""
        heal = 5 * SECONDS
        cfg = partition_config(split({0, 1}, heal), heal, seed=71)
        assert heal > cfg.measurement_start_us() + 3 * SECONDS
        cluster = build_cluster(cfg)
        result = cluster.run()
        assert result.invariant_violations == []
        assert cluster.watchdog.gst_us == heal
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
