"""Attack-corpus acceptance tests: selective reveal and piggyback forgery
must fail against hardened Lyra, the deliberately weakened validation knob
must demonstrably corrupt ordering (proving the oracle catches the bug
class), and the pb_pull recovery path must survive message loss and a
crashed responder."""

import dataclasses

import pytest

from repro.attacks.corpus import CORPUS, PiggybackForgeryNode, SelectiveRevealNode
from repro.attacks.fuzz import run_schedule
from repro.attacks.registry import ATTACK_NODE_CLASSES, resolve_attack_nodes
from repro.harness import ExperimentConfig, build_cluster
from repro.net.faults import CrashEvent, FaultPlan, LinkFault
from repro.sim.engine import MILLISECONDS, SECONDS


def _small_config(**kw):
    base = dict(
        n_nodes=4,
        seed=3,
        batch_size=8,
        clients_per_node=1,
        client_window=4,
        duration_us=4 * SECONDS,
        warmup_rounds=2,
        warmup_spacing_us=150 * MILLISECONDS,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestSelectiveReveal:
    def test_withholding_prober_never_decrypts_precommit(self):
        """Lemma 7: the (2f+1, n) threshold means f withheld share sets
        cannot block reveal, and one replica's own share plus eavesdropped
        honest shares pre-commit stay below the threshold."""
        outcome = run_schedule(CORPUS["selective-reveal-withhold"].schedule(1))
        assert outcome.ok
        assert outcome.probe_attempts > 0  # the attack actually probed
        assert outcome.probe_successes == 0  # ...and never broke secrecy
        # Withheld shares never block execution: every replica executed.
        assert outcome.executed_total > 0
        lens = set(outcome.committed_lens.values())
        assert lens != {0}

    def test_targeted_starvation_fails(self):
        outcome = run_schedule(CORPUS["selective-reveal-targeted"].schedule(1))
        assert outcome.ok
        assert outcome.probe_successes == 0


class TestPiggybackForgery:
    @pytest.mark.parametrize(
        "case",
        ["pb-forge-stale", "pb-forge-inflate", "pb-forge-equivocate"],
    )
    def test_full_report_forgeries_fail(self, case):
        """Lemmas 4-6: a single forged report always falls inside the
        min-of-top-2f+1 selection, so the derived bounds stay honest."""
        outcome = run_schedule(CORPUS[case].schedule(1))
        assert outcome.ok, outcome.violations

    @pytest.mark.parametrize("case", ["pbd-forge-marker", "pbd-forge-bogus"])
    def test_delta_marker_forgeries_fail(self, case):
        outcome = run_schedule(CORPUS[case].schedule(1))
        assert outcome.ok, outcome.violations

    def test_weakened_quorum_corrupts_ordering_and_oracle_catches_it(self):
        """Oracle calibration: with report_quorum deliberately weakened to
        1 the same inflate forgery rushes premature commits in divergent
        orders — the watchdog must flag it.  The identical schedule with
        the safe 2f+1 quorum stays clean, pinning the violation on the
        knob rather than on load or chaos."""
        weakened = CORPUS["pb-forge-inflate-weakened"].schedule(1)
        bad = run_schedule(weakened)
        assert not bad.ok
        kinds = {v.split("]", 1)[1].split(":")[0].strip() for v in bad.violations}
        assert kinds & {"ordered-output", "prefix-agreement"}

        control = dataclasses.replace(weakened, report_quorum=None)
        good = run_schedule(control)
        assert good.ok, good.violations

    def test_forger_counters_and_expectations_table(self):
        """Every corpus case declares whether the oracle must fire; only
        the weakened-knob case may expect a violation."""
        weak = [c.name for c in CORPUS.values() if c.expect_violation]
        assert weak == ["pb-forge-inflate-weakened"]
        assert len(CORPUS) >= 9


class TestRegistry:
    def test_all_attack_classes_registered(self):
        from repro.attacks.byzantine import CipherReplayNode

        assert ATTACK_NODE_CLASSES["cipher-replay"] is CipherReplayNode
        assert ATTACK_NODE_CLASSES["selective-reveal"] is SelectiveRevealNode
        assert ATTACK_NODE_CLASSES["piggyback-forgery"] is PiggybackForgeryNode

    def test_resolve_bare_and_structured_specs(self):
        cfg = _small_config(
            attack_nodes={
                1: "cipher-replay",
                "2": {"name": "selective-reveal", "kwargs": {"mode": "delay"}},
            }
        )
        assert cfg.attack_nodes == {
            1: {"name": "cipher-replay", "kwargs": {}},
            2: {"name": "selective-reveal", "kwargs": {"mode": "delay"}},
        }
        classes, kwargs = resolve_attack_nodes(cfg.attack_nodes)
        assert classes[1] is ATTACK_NODE_CLASSES["cipher-replay"]
        assert classes[2] is SelectiveRevealNode
        assert kwargs == {1: {}, 2: {"mode": "delay"}}

    @pytest.mark.parametrize(
        "spec,problem",
        [
            ({1: "no-such-attack"}, "no-such-attack"),
            ({1: {"name": "no-such-attack"}}, "no-such-attack"),
            ({9: "cipher-replay"}, "unknown pid 9"),
            ({-1: "cipher-replay"}, "unknown pid -1"),
            ({1: {"name": "cipher-replay", "junk": 1}}, "junk"),
            ({1: 7}, "registry name"),
        ],
        ids=["name", "structured-name", "pid-9", "pid-negative", "extra-key", "junk"],
    )
    def test_config_rejects_bad_attack_specs_at_construction(self, spec, problem):
        """The one attack-spec check: a spec the registry cannot build is
        refused when the config is made, not when the cluster is."""
        with pytest.raises(ValueError, match=problem):
            _small_config(attack_nodes=spec)

    def test_config_attack_nodes_builds_attack_replicas(self):
        cfg = _small_config(
            attack_nodes={1: {"name": "selective-reveal", "kwargs": {"mode": "withhold"}}},
            duration_us=2 * SECONDS,
        )
        cluster = build_cluster(cfg, protocol="lyra")
        assert isinstance(cluster.nodes[1], SelectiveRevealNode)
        assert cluster.nodes[1].mode == "withhold"
        assert type(cluster.nodes[0]).__name__ == "LyraNode"

    def test_config_attack_nodes_round_trip(self):
        import json

        cfg = _small_config(attack_nodes={2: "piggyback-forgery"})
        data = json.loads(json.dumps(cfg.to_dict()))
        back = ExperimentConfig.from_dict(data)
        assert back.attack_nodes == {
            2: {"name": "piggyback-forgery", "kwargs": {}}
        }


class TestJointResilienceBudget:
    def test_crashes_plus_byzantine_over_f_rejected(self):
        plan = FaultPlan(
            crashes=(CrashEvent(pid=2, crash_at_us=1 * SECONDS),)
        )
        # One crash alone is fine at f=1...
        plan.validate_for(4, 1)
        # ...but one crash plus a *different* Byzantine replica is 2 > f.
        with pytest.raises(ValueError, match="jointly exceed"):
            plan.validate_for(4, 1, byzantine=(1,))
        # A crashed attacker counts once, not twice.
        plan.validate_for(4, 1, byzantine=(2,))

    def test_byzantine_alone_over_f_rejected(self):
        with pytest.raises(ValueError, match="exceed f"):
            FaultPlan().validate_for(4, 1, byzantine=(0, 1))
        with pytest.raises(ValueError, match="unknown pid"):
            FaultPlan().validate_for(4, 1, byzantine=(7,))

    def test_cluster_builder_enforces_joint_budget(self):
        cfg = _small_config(
            attack_nodes={1: "cipher-replay"},
            fault_plan=FaultPlan(
                crashes=(CrashEvent(pid=2, crash_at_us=1 * SECONDS),)
            ),
            reliable_channels=True,
        )
        with pytest.raises(ValueError, match="jointly exceed"):
            build_cluster(cfg, protocol="lyra")


class TestPbPullRecovery:
    def _run(self, plan):
        cfg = _small_config(
            fault_plan=plan,
            reliable_channels=True,
            delta_piggyback=True,
        )
        cluster = build_cluster(cfg, protocol="lyra")
        result = cluster.run()
        sent = sum(n.stats.pb_pulls_sent for n in cluster.nodes)
        served = sum(n.stats.pb_pulls_served for n in cluster.nodes)
        return cluster, result, sent, served

    def test_pull_recovery_under_message_loss(self):
        """Dropped full reports leave peers holding markers that reference
        unseen state; the pb_pull path must fire, be answered, and leave
        every invariant intact."""
        plan = FaultPlan(
            links=(LinkFault(drop_rate=0.25, reorder_rate=0.2),)
        )
        cluster, result, sent, served = self._run(plan)
        assert sent > 0
        assert served > 0
        assert result.safety_violation is None
        assert result.invariant_violations == []
        assert all(len(n.output_sequence()) > 0 for n in cluster.nodes)

    def test_pull_recovery_with_crashed_responder(self):
        """Pulls aimed at a crashed replica go unanswered; the cluster
        must neither stall nor diverge, and the responder must serve
        again after recovery."""
        plan = FaultPlan(
            links=(LinkFault(drop_rate=0.25, reorder_rate=0.2),),
            crashes=(
                CrashEvent(
                    pid=2,
                    crash_at_us=1500 * MILLISECONDS,
                    recover_at_us=2500 * MILLISECONDS,
                ),
            ),
        )
        cluster, result, sent, served = self._run(plan)
        assert sent > 0
        assert served > 0
        assert result.safety_violation is None
        assert result.invariant_violations == []
        # Progress happened despite the crash window.
        assert all(len(n.output_sequence()) > 0 for n in cluster.nodes)
