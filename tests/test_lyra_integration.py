"""End-to-end integration tests: full Lyra clusters over the simulated WAN.

These are the paper's Theorem 4 in executable form: safety, liveness,
obfuscation-until-commit, lower-bounded sequence numbers, and execution
determinism across replicas.
"""

import pytest

from repro.core.smr import check_lower_bounded, check_output_sorted
from repro.harness import build_cluster
from repro.net.faults import FaultPlan, LinkFault
from repro.sim.engine import MILLISECONDS, SECONDS

from tests.helpers import quick_lyra_config


@pytest.fixture(scope="module")
def baseline_run():
    cluster = build_cluster(quick_lyra_config())
    result = cluster.run()
    return cluster, result


class TestLiveness:
    def test_transactions_commit(self, baseline_run):
        _, result = baseline_run
        assert result.committed_count > 0
        assert result.executed_total > 0

    def test_clients_measure_latency(self, baseline_run):
        _, result = baseline_run
        assert result.latencies_us
        assert 0 < result.avg_latency_us < 3 * SECONDS

    def test_all_instances_accepted_in_good_case(self, baseline_run):
        _, result = baseline_run
        assert result.accepted_instances > 0
        assert result.rejected_instances == 0


class TestSafety:
    def test_prefix_consistency(self, baseline_run):
        _, result = baseline_run
        assert result.safety_violation is None

    def test_outputs_sorted(self, baseline_run):
        cluster, _ = baseline_run
        for node in cluster.nodes:
            assert check_output_sorted(node.output_sequence()) is None

    def test_lower_bounded_sequence_numbers(self, baseline_run):
        """Definition 6 / Lemma 2, checked against ground truth."""
        cluster, _ = baseline_run
        decided = {}
        for node in cluster.nodes:
            for entry in node.commit.output_log:
                decided[entry.cipher_id] = entry.seq
        perceived = {
            node.pid: dict(node.perceived._perceived)
            for node in cluster.nodes
        }
        lam = cluster.config.lambda_us
        violations = check_lower_bounded(decided, perceived, lam)
        assert violations == [], violations


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        r1 = build_cluster(quick_lyra_config()).run()
        r2 = build_cluster(quick_lyra_config()).run()
        assert r1.committed_count == r2.committed_count
        assert r1.avg_latency_us == r2.avg_latency_us
        assert r1.events_processed == r2.events_processed

    def test_different_seed_different_schedule(self):
        r1 = build_cluster(quick_lyra_config(seed=2)).run()
        r2 = build_cluster(quick_lyra_config(seed=3)).run()
        assert r1.events_processed != r2.events_processed


class TestConfigurations:
    def test_hash_commit_obfuscation_mode(self):
        cfg = quick_lyra_config(obfuscation="hash")
        result = build_cluster(cfg).run()
        assert result.committed_count > 0
        assert result.safety_violation is None

    def test_seven_nodes_two_faults_tolerated_config(self):
        cfg = quick_lyra_config(n_nodes=7, duration_us=4 * SECONDS)
        result = build_cluster(cfg).run()
        assert result.committed_count > 0
        assert result.safety_violation is None

    def test_bandwidth_disabled_still_commits(self):
        cfg = quick_lyra_config(bandwidth_enabled=False)
        result = build_cluster(cfg).run()
        assert result.committed_count > 0

    def test_partial_synchrony_liveness_after_gst(self):
        """Messages adversarially delayed before GST; commits after."""
        random_delays = LinkFault(
            reorder_rate=1.0, reorder_delay_us=300 * MILLISECONDS, end_us=1 * SECONDS
        )
        cfg = quick_lyra_config(
            fault_plan=FaultPlan(links=(random_delays,), gst_us=1 * SECONDS),
            duration_us=7 * SECONDS,
        )
        result = build_cluster(cfg).run()
        assert result.committed_count > 0
        assert result.safety_violation is None

    def test_crash_fault_tolerated(self):
        cfg = quick_lyra_config(n_nodes=4, clients_per_node=0, duration_us=6 * SECONDS)
        cluster = build_cluster(cfg)
        # Clients only on surviving replicas.
        from repro.workload.clients import ClosedLoopClient

        for home in range(3):
            cpid = cluster.topology.place(cluster.topology.region_of(home))
            client = ClosedLoopClient(
                cpid, cluster.sim, home, window=4, start_at_us=cfg.client_start_us()
            )
            cluster.clients.append(client)
            cluster.network.register(client, replica=False)
        cluster.sim.schedule(
            cfg.client_start_us() + 500 * MILLISECONDS,
            cluster.nodes[3].crash,
        )
        result = cluster.run(skip_safety_check=True)
        from repro.core.smr import check_prefix_consistency

        outputs = {
            node.pid: node.output_sequence() for node in cluster.nodes[:3]
        }
        assert check_prefix_consistency(outputs) is None
        assert result.committed_count > 0


class TestClientPath:
    def test_duplicate_submission_suppressed(self, baseline_run):
        cluster, _ = baseline_run
        node = cluster.nodes[0]
        from repro.core.types import Transaction

        tx = Transaction(4242, 0)
        node.submit(tx)
        before = node.stats.batches_proposed
        node.submit(tx)  # duplicate
        assert node.mempool.duplicates_dropped >= 1

    def test_replies_reach_the_submitting_client(self, baseline_run):
        cluster, _ = baseline_run
        for client in cluster.clients:
            assert client.stats.completed > 0
            # closed loop: completed <= submitted
            assert client.stats.completed <= client.stats.submitted
