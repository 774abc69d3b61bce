"""Tests for the Pompē baseline: ordering phase, median assignment,
timestamp-ordered execution, end-to-end runs, ordering linearizability,
and what the shared cluster gives it (watchdog, fault plans, reliable
channels) or refuses."""

import pytest

from repro.baselines.pompe import PompeNode
from repro.harness.factory import build_cluster
from repro.net.faults import CrashEvent, FaultPlan, LinkFault
from repro.sim.engine import MILLISECONDS, SECONDS

from tests.helpers import quick_lyra_config, record_decide_arrivals


@pytest.fixture(scope="module")
def pompe_run():
    cfg = quick_lyra_config(duration_us=5 * SECONDS)
    cluster = build_cluster(cfg, protocol="pompe")
    result = cluster.run()
    return cluster, result


class TestEndToEnd:
    def test_transactions_execute(self, pompe_run):
        _, result = pompe_run
        assert result.committed_count > 0
        assert result.executed_total > 0
        assert result.sim_wall_s > 0

    def test_prefix_consistency(self, pompe_run):
        _, result = pompe_run
        assert result.safety_violation is None

    def test_execution_in_timestamp_order(self, pompe_run):
        cluster, _ = pompe_run
        for node in cluster.nodes:
            log = node.executed_log
            assert log == sorted(log), f"pid {node.pid} executed out of ts order"

    def test_latency_higher_than_lyra(self, pompe_run):
        """Fig. 2's direction: Pompē needs more message rounds."""
        _, pompe_result = pompe_run
        lyra_result = build_cluster(
            quick_lyra_config(duration_us=5 * SECONDS), protocol="lyra"
        ).run()
        # ~10 delays vs ~3 delays + commit lag: Pompē should not be faster
        # by any meaningful margin on the same topology.
        assert pompe_result.avg_latency_us > 0.75 * lyra_result.avg_latency_us

    def test_determinism(self):
        cfg = quick_lyra_config(duration_us=3 * SECONDS)
        r1 = build_cluster(cfg, protocol="pompe").run()
        r2 = build_cluster(cfg, protocol="pompe").run()
        assert r1.committed_count == r2.committed_count
        assert r1.events_processed == r2.events_processed


class TestOrderingPhase:
    def _cluster(self):
        cfg = quick_lyra_config(clients_per_node=0, duration_us=3 * SECONDS)
        return build_cluster(cfg, protocol="pompe")

    def test_median_within_correct_clock_range(self):
        """Ordering linearizability: the assigned median of 2f+1 signed
        timestamps lies within the range of the signers' clocks."""
        cluster = self._cluster()
        certs = []
        for node in cluster.nodes:
            node.on_executed = lambda cert, certs=certs: certs.append(cert)
        from repro.core.types import Transaction

        cluster.sim.schedule(
            500 * MILLISECONDS,
            lambda: cluster.nodes[1].submit(Transaction(77, 0)),
        )
        for node in cluster.nodes:
            node.start()
        cluster.sim.run(until=4 * SECONDS)
        assert certs
        cert = certs[0]
        times = [t for _, t, _ in cert.endorsements]
        assert min(times) <= cert.assigned_ts <= max(times)
        assert cert.assigned_ts == sorted(times)[len(times) // 2]

    def test_cert_carries_quorum_of_valid_signatures(self):
        cluster = self._cluster()
        got = []
        cluster.nodes[0].on_executed = got.append
        from repro.core.types import Transaction

        cluster.sim.schedule(
            500 * MILLISECONDS,
            lambda: cluster.nodes[0].submit(Transaction(88, 0)),
        )
        for node in cluster.nodes:
            node.start()
        cluster.sim.run(until=4 * SECONDS)
        assert got
        cert = got[0]
        f = (len(cluster.nodes) - 1) // 3
        assert len(cert.endorsements) == 2 * f + 1
        for pid, ts, sig in cert.endorsements:
            assert cluster.registry.verify((cert.batch_digest, ts), sig, pid)

    def test_observe_hook_sees_cleartext(self):
        """The attack surface: batches are readable during ordering."""
        cluster = self._cluster()
        observed = []
        cluster.nodes[2].observe_batch = lambda batch, sender: observed.append(
            (batch, sender)
        )
        from repro.core.types import Transaction

        tx = Transaction(99, 0, b"SECRET-INTENT")
        cluster.sim.schedule(
            500 * MILLISECONDS, lambda: cluster.nodes[0].submit(tx)
        )
        for node in cluster.nodes:
            node.start()
        cluster.sim.run(until=2 * SECONDS)
        assert observed
        batch, sender = observed[0]
        assert sender == 0
        assert any(t.body.startswith(b"SECRET-INTENT") for t in batch.txs)


LOSSY = FaultPlan(links=(LinkFault(drop_rate=0.1, duplicate_rate=0.05),))


class ReverseDrainNode(PompeNode):
    """Executes each drained set of certificates in descending timestamp
    order: the shape of an out-of-order execution, on demand."""

    def _drain_executions(self) -> None:
        ready = sorted(
            (c for c in self._decided.values() if c.assigned_ts <= self._watermark),
            key=lambda c: (c.assigned_ts, c.batch_digest),
            reverse=True,
        )
        for cert in ready:
            del self._decided[cert.batch_digest]
            self._executed.add(cert.batch_digest)
            self.executed_log.append((cert.assigned_ts, cert.batch_digest))
            self._execute(cert)


class TestSharedCluster:
    """Pompē runs the same cluster as Lyra: watchdog, fault plans, reliable
    channels and network options apply, and what it cannot honour is a
    named rejection."""

    def test_watchdog_runs_on_a_default_run(self, pompe_run):
        cluster, result = pompe_run
        assert result.invariant_checks > 0
        assert result.invariant_checks == cluster.watchdog.ticks + 1
        assert result.invariant_violations == []

    def test_watchdog_flags_out_of_order_execution(self):
        # Two-transaction batches: several certificates become executable
        # at once, so a reversed drain shows.
        cfg = quick_lyra_config(duration_us=3 * SECONDS, batch_size=2, jitter=0.0)
        honest = build_cluster(cfg, protocol="pompe").run()
        assert honest.invariant_violations == []
        cluster = build_cluster(
            cfg,
            protocol="pompe",
            node_classes={pid: ReverseDrainNode for pid in range(4)},
        )
        result = cluster.run()
        assert any("ordered-output" in v for v in result.invariant_violations)
        # The end-of-run check now includes ordered output too.
        assert "out of order" in (result.safety_violation or "")

    def test_lossy_links_with_reliable_channels(self):
        """The fault plan and the reliable channels are honoured, the run
        still commits, and the watchdog agrees with the end-of-run check."""
        cfg = quick_lyra_config(
            duration_us=3 * SECONDS, fault_plan=LOSSY, reliable_channels=True
        )
        result = build_cluster(cfg, protocol="pompe").run()
        assert result.committed_count > 0
        stats = result.fault_stats
        assert stats["dropped"] > 0 and stats["duplicated"] > 0
        assert stats["retransmits"] > 0 and stats["dup_frames"] > 0
        assert (result.safety_violation is None) == (not result.invariant_violations)

    def test_lossy_links_decide_strictly_by_height(self):
        """A retransmitted HotStuff ``decide`` for height h lands after
        h+1's, yet every replica hands blocks to Pompē by height, so the
        replicas agree and execute in timestamp order."""
        cfg = quick_lyra_config(
            duration_us=3 * SECONDS,
            fault_plan=LOSSY,
            reliable_channels=True,
            jitter=0.0,
        )
        cluster = build_cluster(cfg, protocol="pompe")
        arrivals = record_decide_arrivals(cluster)
        result = cluster.run()
        assert result.invariant_violations == []
        assert result.safety_violation is None
        assert any(heights != sorted(heights) for heights in arrivals.values())
        for node in cluster.nodes:
            handed = [b.height for b in node.hotstuff.decided_blocks]
            assert handed == sorted(handed)

    def test_colluding_orderer_counts_against_the_crash_budget(self):
        from repro.workload.spec import ClientGroup, WorkloadSpec

        spec = WorkloadSpec(
            groups=(
                ClientGroup(name="mev", client="mev", count=1, home=1, collude=True),
            )
        )
        plan = FaultPlan(crashes=(CrashEvent(pid=2, crash_at_us=1 * SECONDS),))
        cfg = quick_lyra_config(workload=spec, fault_plan=plan)
        with pytest.raises(ValueError, match="jointly exceed"):
            build_cluster(cfg, protocol="pompe")

    def test_crash_stop_is_honoured(self):
        plan = FaultPlan(crashes=(CrashEvent(pid=3, crash_at_us=1 * SECONDS),))
        cfg = quick_lyra_config(duration_us=3 * SECONDS, fault_plan=plan)
        cluster = build_cluster(cfg, protocol="pompe")
        result = cluster.run()
        assert cluster.nodes[3].crashed
        assert result.safety_violation is None
        assert result.invariant_violations == []
        assert len(cluster.nodes[0].executed_log) > len(
            cluster.nodes[3].executed_log
        )

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"tracing": True}, "tracing"),
            ({"attack_nodes": {1: "equivocate"}}, "attack_nodes"),
            ({"report_quorum": 3}, "report_quorum"),
            (
                {
                    "fault_plan": FaultPlan(
                        crashes=(
                            CrashEvent(
                                pid=3,
                                crash_at_us=1 * SECONDS,
                                recover_at_us=2 * SECONDS,
                            ),
                        )
                    )
                },
                "recover_at_us",
            ),
        ],
        ids=[
            "tracing",
            "attack_nodes",
            "report_quorum",
            "recover",
        ],
    )
    def test_unsupported_config_is_rejected(self, overrides, field):
        cfg = quick_lyra_config(**overrides)
        with pytest.raises(ValueError, match=field):
            build_cluster(cfg, protocol="pompe")
        build_cluster(cfg, protocol="lyra")  # Lyra honours every one
