"""Attack-corpus tests: the ``reveal-before-commit`` check (Lemma 7)
flags a correct replica that releases its share early, and the
deliberately weakened validation knob must demonstrably corrupt ordering
(proving the oracle catches the bug class).  Every corpus case's verdict
and outcome is pinned as a ``corpus_<case>`` row of
``repro.bench.suite.CELLS``, which ``tests/test_bench.py`` checks."""

import dataclasses

import pytest

from repro.attacks.corpus import CORPUS, PiggybackForgeryNode, SelectiveRevealNode
from repro.attacks.fuzz import is_clean, run_schedule
from repro.attacks.registry import ATTACK_NODE_CLASSES, resolve_attack_nodes
from repro.harness import ExperimentConfig, build_cluster
from repro.harness.config import closed_loop_config
from repro.net.faults import CrashEvent, FaultPlan
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


def _release_at_decide(node):
    """Mutate ``node`` to release its decryption share of every accepted
    instance as soon as it is accepted (decided 1, cipher in hand), before
    the instance is committed."""
    accept = node.commit.on_accept

    def on_accept(iid, cipher, preds):
        accept(iid, cipher, preds)
        share = node.obf.partial_decrypt(cipher, node.pid)
        node._broadcast_decryption_shares([(iid, share)])

    node.commit.on_accept = on_accept


class TestRevealBeforeCommit:
    """Lemma 7 in every Lyra run: the cluster's watchdog flags a correct
    replica's share that arrives before its sender committed the
    instance."""

    def test_correct_replica_releasing_at_decide_is_flagged(self):
        cluster = build_cluster(closed_loop_config(4, 1, 1500 * MILLISECONDS))
        _release_at_decide(cluster.nodes[0])
        result = cluster.run()
        flagged = [v for v in result.invariant_violations if "reveal-before-commit" in v]
        assert flagged and "by pid 0" in flagged[0]
        assert result.safety_violation is None

    def test_attacker_releasing_at_decide_is_not_flagged(self):
        """Up to f attackers may release early: their shares stay below the
        2f+1 threshold, so the check covers correct senders only."""
        config = closed_loop_config(
            4, 1, 1500 * MILLISECONDS, attack_nodes={0: "selective-reveal"}
        )
        cluster = build_cluster(config)
        _release_at_decide(cluster.nodes[0])
        assert cluster.run().invariant_violations == []


def _run_case(name):
    cluster = build_cluster(CORPUS[name].schedule(1))
    return cluster, cluster.run()


class TestSelectiveReveal:
    def test_withheld_shares_never_block_reveal(self):
        """Lemma 7's threshold: f withheld share sets are never needed,
        so every correct replica still executes, and as much as the
        others."""
        cluster, result = _run_case("selective-reveal-withhold")
        assert cluster.nodes[1].withheld_batches > 0
        assert result.invariant_violations == []
        executed = {node.executed_count() for node in cluster.correct_nodes()}
        assert len(executed) == 1 and executed.pop() > 0

    def test_targeted_starvation_fails(self):
        """The starved victim reaches the threshold from the other correct
        replicas and executes as much as they do."""
        cluster, result = _run_case("selective-reveal-targeted")
        assert cluster.nodes[1].withheld_batches > 0
        assert result.invariant_violations == []
        victim, *others = cluster.correct_nodes()
        assert victim.pid == 0
        assert {node.executed_count() for node in others} == {victim.executed_count()}


class TestPiggybackForgery:
    @pytest.mark.parametrize(
        "case",
        ["pb-forge-stale", "pb-forge-inflate", "pb-forge-equivocate"],
    )
    def test_full_report_forgeries_fail(self, case):
        """Lemmas 4-6: a single forged report always falls inside the
        min-of-top-2f+1 selection, so the derived bounds stay honest."""
        cluster, result = _run_case(case)
        assert cluster.nodes[1].forged_reports > 0
        assert result.invariant_violations == [], result.invariant_violations
        assert result.safety_violation is None

    def test_weakened_quorum_corrupts_ordering_and_oracle_catches_it(self):
        """Oracle calibration: with report_quorum deliberately weakened to
        1 the same inflate forgery rushes premature commits in divergent
        orders — the watchdog must flag it.  The identical schedule with
        the safe 2f+1 quorum stays clean, pinning the violation on the
        knob rather than on load or chaos."""
        weakened = CORPUS["pb-forge-inflate-weakened"].schedule(1)
        bad = run_schedule(weakened)
        assert not is_clean(bad)
        kinds = {
            v.split("]", 1)[1].split(":")[0].strip()
            for v in bad["invariant_violations"]
        }
        assert kinds & {"ordered-output", "prefix-agreement"}

        control = dataclasses.replace(weakened, report_quorum=None)
        good = run_schedule(control)
        assert is_clean(good), good["invariant_violations"]

    def test_forger_counters_and_expectations_table(self):
        """Every corpus case declares whether the oracle must fire; only
        the weakened-knob case may expect a violation."""
        weak = [c.name for c in CORPUS.values() if c.expect_violation]
        assert weak == ["pb-forge-inflate-weakened"]
        assert len(CORPUS) >= 7


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
