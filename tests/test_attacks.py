"""Attack-scenario tests: Fig. 1 front-running, Byzantine Lyra replicas,
the censoring Pompē and Fino leaders, and the one attack registry they
all resolve through.

These are the paper's headline security claims as executable assertions:
the front-run lands on clear-text ordering and is structurally impossible
under Lyra's commit-reveal (§V-E, Theorem 4).
"""

import json
from dataclasses import replace

import pytest

from repro.harness.cluster import check_cell
from repro.harness.config import ExperimentConfig
from repro.harness.experiments import (
    BYZ_CASES,
    CENSOR_CASES,
    byzantine_behaviours,
    byzantine_config,
    censorship_comparison,
    censorship_config,
    fig1_config,
    fig1_frontrunning,
)
from repro.harness.factory import build_cluster
from repro.harness.sweep import SweepCell
from repro.net.faults import CrashEvent, FaultPlan
from repro.net.latency import triangle_violations
from repro.sim.engine import SECONDS
from repro.workload.spec import ClientGroup, WorkloadSpec


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


def run_byzantine(case):
    """One BYZ cell; the watchdog and the safety check cover the three
    correct replicas."""
    cluster = build_cluster(byzantine_config(case))
    return cluster, cluster.run()


@pytest.mark.slow
class TestByzantineLyra:
    @pytest.mark.parametrize("case", list(BYZ_CASES))
    def test_cluster_stays_safe_and_live(self, case):
        cluster, result = run_byzantine(case)
        assert cluster.attackers == (frozenset() if case == "baseline" else {3})
        assert result.safety_violation is None
        assert result.invariant_violations == []
        assert result.fairness["latency"]["correct"]["count"] > 0

    def test_equivocator_cannot_get_two_versions_accepted(self):
        # Some of the equivocator's instances resolve; none may be
        # double-accepted (prefix consistency among the correct replicas
        # guarantees it, and liveness shows the cluster shrugged it off).
        _, result = run_byzantine("equivocator")
        assert result.safety_violation is None
        assert result.rejected_instances > 0

    def test_future_sequence_instances_rejected(self):
        _, result = run_byzantine("future-sequence")
        assert result.rejected_instances > 0  # the §VI-D mitigation fires

    def test_rows_pinned(self):
        rows = byzantine_behaviours()
        assert [tuple(row.values()) for row in rows] == [
            ("baseline", 150, 28, 0, 703.0, None, True),
            ("equivocator", 150, 26, 4, 715.8, None, True),
            ("silent-proposer", 140, 24, 36, 750.1, None, True),
            ("flooder", 150, 64, 0, 703.0, None, True),
            ("flooder-limited", 150, 39, 458, 702.0, None, True),
            ("future-sequence", 150, 27, 4, 701.0, None, True),
            ("prefix-staller", 145, 25, 0, 719.0, None, True),
        ]
        assert list(rows[0]) == [
            "case",
            "correct_clients_completed",
            "accepted",
            "rejected",
            "latency_ms",
            "safety_violation",
            "live",
        ]


@pytest.mark.slow
class TestCensorship:
    def test_leader_censors_pompe_but_not_lyra(self):
        rows = {row["system"]: row for row in censorship_comparison()}
        pompe_row = rows["pompe+censoring-leader"]
        fino_row = rows["fino+blind-censoring-leader"]
        assert pompe_row["victim_completed"] == 0
        assert pompe_row["others_completed"] > 0
        # Blind to content, Fino's leader still starves the victim.
        assert fino_row["victim_completed"] == 0
        assert fino_row["others_completed"] > 0
        assert rows["lyra"]["victim_completed"] > 0
        # The leader's own bookkeeping, read off the same cells.
        for _, protocol, leader in CENSOR_CASES[:2]:
            cluster = build_cluster(censorship_config(leader=leader), protocol=protocol)
            cluster.run()
            assert cluster.nodes[0].censored_count > 0, protocol

    def test_rows_pinned(self):
        assert censorship_comparison() == [
            {
                "system": "pompe+censoring-leader",
                "victim_completed": 0,
                "others_completed": 135,
            },
            {
                "system": "fino+blind-censoring-leader",
                "victim_completed": 0,
                "others_completed": 123,
            },
            {"system": "lyra", "victim_completed": 39, "others_completed": 117},
        ]

    def test_a_censor_cell_round_trips_with_its_key(self):
        cell = SweepCell("pompe", censorship_config(leader="censor-leader"))
        config = ExperimentConfig.from_dict(
            json.loads(json.dumps(cell.config.to_dict()))
        )
        assert config == cell.config
        assert SweepCell("pompe", config).key == cell.key
        assert config.attack_nodes == {
            0: {"name": "censor-leader", "kwargs": {"censored": [2]}}
        }


class TestAttackRegistry:
    """One registry for all three protocols: the class names its protocol."""

    @pytest.mark.parametrize(
        "protocol, attack, replica",
        [
            ("lyra", {0: "censor-leader"}, "CensoringLeaderNode is not a LyraNode"),
            ("pompe", {1: "backdate"}, "BackdatingNode is not a PompeNode"),
            ("fino", {0: "censor-leader"}, "CensoringLeaderNode is not a FinoNode"),
            ("pompe", {0: "blind-censor-leader"}, "is not a PompeNode"),
        ],
        ids=[
            "censor-under-lyra",
            "backdate-under-pompe",
            "pompe-censor-under-fino",
            "fino-censor-under-pompe",
        ],
    )
    def test_a_class_of_another_protocol_is_refused(self, protocol, attack, replica):
        config = ExperimentConfig(attack_nodes=attack)
        with pytest.raises(ValueError, match=f"{protocol} cannot honour") as err:
            check_cell(config, protocol)
        assert replica in str(err.value)

    def test_the_sweep_cli_refuses_it_before_any_cell_runs(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro.__main__ as cli

        build = cli.config_from_args
        monkeypatch.setattr(
            cli,
            "config_from_args",
            lambda *a: replace(build(*a), attack_nodes={0: "censor-leader"}),
        )
        cache = tmp_path / "cache"
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["sweep", "--protocol", "pompe,lyra", "--cache-dir", str(cache)])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "lyra cannot honour: attack_nodes[0]='censor-leader'" in captured.err
        assert captured.out == ""
        assert not cache.exists()

    def test_the_oracles_cover_the_correct_replicas_only(self):
        """A crash plus an attacker within ``f``: the watchdog samples the
        other replicas and counts the attacker against the budget."""
        plan = FaultPlan(crashes=(CrashEvent(pid=2, crash_at_us=1 * SECONDS),))
        config = replace(fig1_config(), fault_plan=plan)
        cluster = build_cluster(config, protocol="pompe")
        assert cluster.attackers == {1}
        assert [node.pid for node in cluster.watchdog.nodes] == [0, 2, 3, 4, 5, 6]
        assert cluster.watchdog.attackers == 1


@pytest.mark.slow
class TestCipherReplay:
    def test_replayed_cipher_executes_victim_intent_once(self):
        """A Byzantine replica duplicates a victim's opaque cipher into its
        own instance.  Both instances may commit, but replicas execute the
        payload once (first commit wins), the victim's client still gets
        its reply, and the attacker — unable to read or re-author the
        payload — extracts nothing."""
        cfg = ExperimentConfig(
            n_nodes=4,
            seed=31,
            batch_size=3,
            workload=WorkloadSpec(
                groups=(ClientGroup(name="victim", count=1, home=0, window=3),)
            ),
            duration_us=6_000_000,
            warmup_rounds=2,
            warmup_spacing_us=150_000,
            attack_nodes={3: "cipher-replay"},
        )
        cluster = build_cluster(cfg)
        result = cluster.run()

        attacker = cluster.nodes[3]
        assert attacker.replayed_cipher_id is not None  # the replay ran
        # The victim's client is unaffected: replies keep flowing.
        assert result.fairness["latency"]["victim"]["count"] > 0
        # No correct replica executed any transaction twice.
        dropped = [node.stats.replayed_txs_dropped for node in cluster.nodes[:3]]
        committed_ciphers = [
            cid for _, cid in cluster.nodes[0].output_sequence()
        ]
        if committed_ciphers.count(attacker.replayed_cipher_id) > 1:
            # The duplicate committed: dedup must have fired.
            assert all(d > 0 for d in dropped)
        # Safety among the correct replicas, which the cluster checks.
        assert result.safety_violation is None
        assert result.invariant_violations == []
