"""Attack-scenario tests: Fig. 1 front-running, Byzantine Lyra replicas,
and the censoring Pompē and Fino leaders.

These are the paper's headline security claims as executable assertions:
the front-run lands on clear-text ordering and is structurally impossible
under Lyra's commit-reveal (§V-E, Theorem 4).
"""

import pytest

from repro.attacks.frontrun import Fig1Scenario, run_fig1_lyra, run_fig1_pompe
from repro.harness.byzantine_runner import (
    byzantine_cases,
    run_byzantine_case,
    run_censorship_case,
)
from repro.harness.experiments import fig1_frontrunning


class TestFig1Analytic:
    def test_triangle_violation_makes_attack_feasible(self):
        scenario = Fig1Scenario()
        victim_ts, attacker_ts = scenario.median_timestamps_ms()
        assert attacker_ts < victim_ts
        assert scenario.analytic_attack_wins()

    def test_no_far_validators_no_attack(self):
        # With validators co-located with the victim, arrival order favours
        # the victim and the attack fails at the median level.
        scenario = Fig1Scenario(far_region="tokyo", n_far=5)
        assert not scenario.analytic_attack_wins()

    def test_scenario_shape(self):
        scenario = Fig1Scenario(n_far=5)
        assert scenario.n == 7
        assert scenario.f == 2
        assert len(scenario.regions()) == 7


@pytest.mark.slow
class TestFig1EndToEnd:
    def test_attack_succeeds_against_pompe(self):
        outcome = run_fig1_pompe(Fig1Scenario())
        assert outcome.attacker_observed_plaintext
        assert outcome.attack_succeeded is True
        assert outcome.attacker_position < outcome.victim_position
        assert outcome.invariant_violations == []

    def test_attack_fails_against_lyra(self):
        outcome = run_fig1_lyra(Fig1Scenario())
        # The victim commits; the attacker could read the payload only
        # after commit, and its backdated injection was rejected.
        assert outcome.victim_position is not None
        assert outcome.attack_succeeded is False
        assert outcome.attacker_rejected is True
        assert outcome.attacker_observed_plaintext  # but only post-commit
        assert outcome.invariant_violations == []

    def test_rows_pinned(self):
        """The exact Fig. 1 rows of the hand-wired deployments that the
        shared cluster replaced."""
        rows = fig1_frontrunning()
        assert [(r["system"], r["attack_succeeded"], r["detail"]) for r in rows] == [
            ("arrival-analysis", True, "victim median 150.0ms vs attacker 140.0ms"),
            (
                "pompe",
                True,
                "observed at 1035461us, attacked at 1035461us, "
                "executed order: victim@1 attacker@0",
            ),
            (
                "lyra",
                False,
                "plaintext visible at 2380427us (post-commit), backdated "
                "attack decision=0, victim@0 attacker@None",
            ),
        ]
        assert rows[2]["attacker_rejected"] is True


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
