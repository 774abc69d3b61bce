"""Attack-scenario tests: Fig. 1 front-running, Byzantine Lyra replicas,
and the censoring Pompē and Fino leaders.

These are the paper's headline security claims as executable assertions:
the front-run lands on clear-text ordering and is structurally impossible
under Lyra's commit-reveal (§V-E, Theorem 4).
"""

import pytest

from repro.harness.byzantine_runner import (
    byzantine_cases,
    run_byzantine_case,
    run_censorship_case,
)
from repro.harness.experiments import fig1_config, fig1_frontrunning
from repro.harness.factory import build_cluster
from repro.net.latency import triangle_violations


def run_fig1(protocol, **cell):
    """One run of the Fig. 1 cell; fails unless the watchdog and the
    end-of-run safety check stay clean."""
    cluster = build_cluster(fig1_config(**cell), protocol=protocol)
    result = cluster.run()
    assert result.invariant_violations == []
    assert result.safety_violation is None
    assert result.fairness["counts"]["incomplete"] == 0
    return cluster, result.fairness["sandwich"], result


class TestFig1Analytic:
    """The Fig. 1 cell's geometry, without a simulation."""

    def test_triangle_violation_makes_attack_feasible(self):
        violations = triangle_violations(fig1_config().regions)
        assert ("tokyo", "singapore", "saopaulo", 10.0) in violations

    def test_no_far_validators_no_attack(self):
        # With the five far validators in Tokyo, beside Alice, no path
        # through Mallory's Singapore beats a direct one.
        assert triangle_violations(fig1_config(far_region="tokyo").regions) == []

    def test_scenario_shape(self):
        config = fig1_config()
        assert (config.n_nodes, config.resolved_f()) == (7, 2)
        assert config.regions == ["tokyo", "singapore"] + ["saopaulo"] * 5


class TestFig1EndToEnd:
    """Alice's one AMM swap from Tokyo, Mallory's MEV bot at the Singapore
    replica (pid 1), five validators on Carole's side of the world."""

    def test_attack_succeeds_against_pompe(self):
        _, sandwich, _ = run_fig1("pompe")
        assert sandwich["attempts"] == 1
        assert sandwich["successes"] >= 1

    def test_no_triangle_violation_no_sandwich(self):
        # With the five far validators in Tokyo no path through Singapore
        # beats Alice's, so the bot still chases the swap but loses.
        _, sandwich, _ = run_fig1("pompe", far_region="tokyo")
        assert sandwich["attempts"] == 1
        assert sandwich["successes"] == 0

    def test_attack_fails_against_lyra(self):
        cluster, sandwich, result = run_fig1("lyra", attack_nodes={1: "backdate"})
        assert sandwich["attempts"] == 1
        assert sandwich["successes"] == 0
        # Mallory read Alice's swap only at execution and then proposed a
        # backdated instance: every correct replica decided it 0, and it
        # is the only instance any replica rejected.
        backdated = cluster.nodes[1].backdated
        assert backdated is not None
        for node in cluster.nodes:
            if node.pid != 1:
                assert node.stats.decided_reject == 1
                assert backdated not in node.commit._accepted_ever
        assert result.rejected_instances == cluster.n

    def test_rows_pinned(self):
        rows = fig1_frontrunning()
        assert [tuple(row.values()) for row in rows] == [
            ("pompe", "saopaulo", 1, 1, 0, 0, None),
            ("pompe", "tokyo", 1, 0, 0, 0, None),
            ("lyra", "saopaulo", 1, 0, 7, 0, None),
        ]
        assert list(rows[0]) == [
            "system",
            "far_validators",
            "attempts",
            "sandwiches",
            "rejected",
            "violations",
            "safety",
        ]


@pytest.mark.slow
class TestByzantineLyra:
    @pytest.mark.parametrize("case", byzantine_cases())
    def test_cluster_stays_safe_and_live(self, case):
        row = run_byzantine_case(case)
        assert row["safety_violation"] is None, row
        assert row["live"], row

    def test_equivocator_cannot_get_two_versions_accepted(self):
        row = run_byzantine_case("equivocator")
        # Some of the equivocator's instances resolve; none may be
        # double-accepted (prefix consistency already guarantees it, and
        # liveness shows the cluster shrugged it off).
        assert row["safety_violation"] is None

    def test_future_sequence_instances_rejected(self):
        row = run_byzantine_case("future-sequence")
        assert row["rejected"] > 0  # the §VI-D mitigation fires


@pytest.mark.slow
class TestCensorship:
    def test_leader_censors_pompe_but_not_lyra(self):
        rows = run_censorship_case()
        pompe_row = next(r for r in rows if r["system"].startswith("pompe"))
        fino_row = next(r for r in rows if r["system"].startswith("fino"))
        lyra_row = next(r for r in rows if r["system"] == "lyra")
        assert pompe_row["victim_completed"] == 0
        assert pompe_row["others_completed"] > 0
        assert pompe_row["certs_censored"] > 0
        # Blind to content, Fino's leader still starves the victim.
        assert fino_row["victim_completed"] == 0
        assert fino_row["others_completed"] > 0
        assert fino_row["certs_censored"] > 0
        assert lyra_row["victim_completed"] > 0


@pytest.mark.slow
class TestCipherReplay:
    def test_replayed_cipher_executes_victim_intent_once(self):
        """A Byzantine replica duplicates a victim's opaque cipher into its
        own instance.  Both instances may commit, but replicas execute the
        payload once (first commit wins), the victim's client still gets
        its reply, and the attacker — unable to read or re-author the
        payload — extracts nothing."""
        from repro.attacks.byzantine import CipherReplayNode
        from repro.harness import ExperimentConfig, build_cluster
        from repro.workload.clients import ClosedLoopClient

        cfg = ExperimentConfig(
            n_nodes=4,
            seed=31,
            batch_size=3,
            clients_per_node=0,
            duration_us=6_000_000,
            warmup_rounds=2,
            warmup_spacing_us=150_000,
        )
        cluster = build_cluster(cfg, node_classes={3: CipherReplayNode})
        client = ClosedLoopClient(
            cluster.topology.place(cluster.topology.region_of(0)),
            cluster.sim,
            0,
            window=3,
            start_at_us=cfg.client_start_us(),
        )
        cluster.clients.append(client)
        cluster.network.register(client, replica=False)
        result = cluster.run(skip_safety_check=True)

        attacker = cluster.nodes[3]
        assert attacker.replayed_cipher_id is not None  # the replay ran
        # The victim's client is unaffected: replies keep flowing.
        assert client.stats.completed > 0
        # No correct replica executed any transaction twice.
        dropped = [node.stats.replayed_txs_dropped for node in cluster.nodes[:3]]
        committed_ciphers = [
            cid for _, cid in cluster.nodes[0].output_sequence()
        ]
        if committed_ciphers.count(attacker.replayed_cipher_id) > 1:
            # The duplicate committed: dedup must have fired.
            assert all(d > 0 for d in dropped)
        # Safety among correct replicas.
        from repro.core.smr import check_prefix_consistency

        outputs = {
            node.pid: node.output_sequence() for node in cluster.nodes[:3]
        }
        assert check_prefix_consistency(outputs) is None
