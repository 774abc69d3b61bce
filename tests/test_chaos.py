"""Chaos-engine integration tests: the acceptance scenario of the chaos
subsystem — lossy links, duplication, corruption, and crash–recovery with
state transfer — must leave every safety invariant intact, and the whole
run must be bit-deterministic."""

from repro.core.smr import check_prefix_consistency, is_prefix
from repro.harness import ExperimentConfig, build_cluster
from repro.metrics.tracelog import install_lyra_tracing
from repro.net.faults import CrashEvent, FaultPlan, LinkFault
from repro.sim.engine import MILLISECONDS, SECONDS


def chaos_config(seed=7, crashes=(), loss=0.15, duration_us=5 * SECONDS):
    plan = FaultPlan(
        links=(
            LinkFault(
                drop_rate=loss,
                duplicate_rate=0.05,
                reorder_rate=0.03,
                corrupt_rate=0.02,
            ),
        ),
        crashes=tuple(crashes),
    )
    return ExperimentConfig(
        n_nodes=4,
        seed=seed,
        batch_size=8,
        clients_per_node=1,
        client_window=4,
        duration_us=duration_us,
        warmup_rounds=2,
        warmup_spacing_us=150 * MILLISECONDS,
        fault_plan=plan,
        reliable_channels=True,
    )


class TestChaosAcceptance:
    def test_loss_dup_and_crash_recovery_stay_safe_and_catch_up(self):
        """The ISSUE acceptance scenario: ≤20% loss, duplication, one
        (k ≤ f) crash–recovery.  All committed prefixes must agree, and
        the recovered replica must catch up to the cluster's stable
        prefix before the run ends."""
        crash = CrashEvent(
            pid=2, crash_at_us=2 * SECONDS, recover_at_us=3 * SECONDS
        )
        cluster = build_cluster(chaos_config(crashes=(crash,)), protocol="lyra")
        result = cluster.run()

        assert result.safety_violation is None
        assert result.invariant_violations == []
        assert result.invariant_checks > 0
        outputs = {n.pid: n.output_sequence() for n in cluster.nodes}
        assert check_prefix_consistency(outputs) is None
        # Progress happened despite the chaos.
        assert all(len(log) > 0 for log in outputs.values())
        # The recovered replica's committed prefix covers every entry at
        # or below the stable bound every peer agrees on.
        recovered = cluster.nodes[2]
        assert recovered.recoveries == 1
        assert not recovered.commit.catching_up
        min_stable = min(
            n.commit.stable for n in cluster.nodes if n.pid != 2
        )
        recovered_seqs = {seq for seq, _ in outputs[2]}
        for pid, log in outputs.items():
            for seq, cid in log:
                if seq <= min_stable:
                    assert seq in recovered_seqs, (
                        f"recovered replica missing stable entry seq={seq} "
                        f"(stable bound {min_stable}, from pid {pid})"
                    )
        # The transport actually exercised the fault machinery.
        assert result.fault_stats["dropped"] > 0
        assert result.fault_stats["retransmits"] > 0
        assert result.fault_stats["corrupt_detected"] > 0

    def test_crash_stop_without_recovery_tolerated(self):
        crash = CrashEvent(pid=3, crash_at_us=2 * SECONDS)  # down for good
        cluster = build_cluster(chaos_config(crashes=(crash,)), protocol="lyra")
        result = cluster.run()
        assert result.safety_violation is None
        assert result.invariant_violations == []
        live_logs = [
            n.output_sequence() for n in cluster.nodes if n.pid != 3
        ]
        assert all(len(log) > 0 for log in live_logs)
        # The crashed replica's frozen log is a prefix of the live ones.
        dead_log = cluster.nodes[3].output_sequence()
        assert all(is_prefix(dead_log, log) for log in live_logs)

    def test_no_commit_regression_across_recovery(self):
        crash = CrashEvent(
            pid=1, crash_at_us=1_500 * MILLISECONDS, recover_at_us=2_500 * MILLISECONDS
        )
        cfg = chaos_config(seed=3, crashes=(crash,), loss=0.2)
        cluster = build_cluster(cfg, protocol="lyra")
        node = cluster.nodes[1]
        observed = []
        cluster.sim.schedule_at(
            crash.crash_at_us - 1,
            lambda: observed.append(list(node.output_sequence())),
        )
        result = cluster.run()
        assert result.invariant_violations == []
        pre_crash_log = observed[0]
        assert is_prefix(pre_crash_log, node.output_sequence())


class TestChaosDeterminism:
    def _run(self):
        crash = CrashEvent(
            pid=2, crash_at_us=2 * SECONDS, recover_at_us=3 * SECONDS
        )
        cluster = build_cluster(chaos_config(crashes=(crash,)), protocol="lyra")
        trace = install_lyra_tracing(cluster)
        result = cluster.run()
        return cluster, result, trace

    def test_same_seed_identical_report_and_tracelog(self):
        c1, r1, t1 = self._run()
        c2, r2, t2 = self._run()
        assert c1.watchdog.report.to_dict() == c2.watchdog.report.to_dict()
        assert r1.fault_stats == r2.fault_stats
        assert [e.to_json() for e in t1.events] == [e.to_json() for e in t2.events]
        assert [n.output_sequence() for n in c1.nodes] == [
            n.output_sequence() for n in c2.nodes
        ]


class TestWatchdog:
    def test_watchdog_always_on(self):
        # Even a fault-free run samples invariants.
        cfg = ExperimentConfig(
            n_nodes=4,
            seed=1,
            batch_size=8,
            clients_per_node=1,
            client_window=3,
            duration_us=3 * SECONDS,
            warmup_rounds=2,
            warmup_spacing_us=150 * MILLISECONDS,
        )
        cluster = build_cluster(cfg, protocol="lyra")
        result = cluster.run()
        assert result.invariant_checks > 0
        assert result.invariant_violations == []

    def test_commit_regression_detected(self):
        from repro.metrics.invariants import InvariantWatchdog
        from repro.sim.engine import Simulator

        class FakeNode:
            def __init__(self, pid):
                self.pid = pid
                self.crashed = False
                self.log = [(1, b"a"), (2, b"b")]

            def output_sequence(self):
                return list(self.log)

            def work_pending(self):
                return False

        sim = Simulator()
        nodes = [FakeNode(0), FakeNode(1)]
        dog = InvariantWatchdog(sim, nodes, f=0)
        dog.check_now()
        assert dog.report.ok
        nodes[0].log = [(1, b"a")]  # the log shrank: regression
        dog.check_now()
        assert not dog.report.ok
        assert any(
            v.check == "commit-regression" for v in dog.report.violations
        )

    def test_prefix_divergence_detected(self):
        from repro.metrics.invariants import InvariantWatchdog
        from repro.sim.engine import Simulator

        class FakeNode:
            def __init__(self, pid, log):
                self.pid = pid
                self.crashed = False
                self.log = log

            def output_sequence(self):
                return list(self.log)

            def work_pending(self):
                return False

        sim = Simulator()
        nodes = [
            FakeNode(0, [(1, b"a"), (2, b"b")]),
            FakeNode(1, [(1, b"a"), (2, b"c")]),
        ]
        dog = InvariantWatchdog(sim, nodes, f=0)
        dog.check_now()
        assert any(
            v.check == "prefix-agreement" for v in dog.report.violations
        )


class TestChaosCli:
    def test_chaos_run_passes(self, capsys):
        from repro.__main__ import main

        rc = main(
            [
                "run",
                "--loss",
                "0.1",
                "--dup",
                "0.02",
                "--reorder",
                "0.02",
                "--corrupt",
                "0.01",
                "--crash",
                "2:1500:2500",
                "--duration-ms",
                "4000",
                "--batch",
                "8",
                "--window",
                "3",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert out.rstrip().endswith("RESULT: PASS")
        assert "recovered x1" in out
        assert "invariant checks run" in out
