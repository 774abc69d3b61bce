"""Tests for the Fino-style baseline: blind order-fairness works for
content (no pre-commit plaintext), but a blind Byzantine leader can still
censor by proposer — the paper's §I critique.  Plus what the shared
cluster gives it (watchdog, MEV tap) or refuses."""

import pytest

from repro.attacks.pompe_attacks import BlindCensoringLeaderFino
from repro.baselines.fino import FinoConfig, FinoNode
from repro.core.obfuscation import HashCommitObfuscation
from repro.core.types import Transaction
from repro.crypto.signatures import KeyRegistry
from repro.crypto.threshold import ThresholdScheme
from repro.net.latency import UniformLatencyModel
from repro.net.network import Network, NetworkConfig
from repro.sim.engine import MILLISECONDS, SECONDS, Simulator
from repro.sim.rng import RngRegistry
from repro.harness.factory import build_cluster
from repro.net.faults import CrashEvent, FaultPlan
from repro.workload.clients import ClosedLoopClient
from repro.workload.spec import ClientGroup, WorkloadSpec

from tests.helpers import quick_lyra_config, record_decide_arrivals

DELAY = 10 * MILLISECONDS


def build_fino(n=4, leader_cls=FinoNode, leader_kwargs=None, seed=61):
    f = (n - 1) // 3
    sim = Simulator()
    registry = KeyRegistry(seed)
    threshold = ThresholdScheme(2 * f + 1, n, seed=seed)
    obf = HashCommitObfuscation(2 * f + 1, n, seed=seed)
    net = Network(
        sim,
        UniformLatencyModel(DELAY),
        config=NetworkConfig(delta_us=5 * DELAY, bandwidth_enabled=False),
    )
    nodes = []
    for pid in range(n):
        cls = leader_cls if pid == 0 else FinoNode
        kwargs = (leader_kwargs or {}) if pid == 0 else {}
        node = cls(
            pid,
            sim,
            n=n,
            f=f,
            registry=registry,
            threshold=threshold,
            obfuscation=obf,
            config=FinoConfig(batch_size=3, batch_timeout_us=20 * MILLISECONDS),
            rng=RngRegistry(seed),
            **kwargs,
        )
        nodes.append(node)
        net.register(node)
    return sim, nodes, net


def attach_clients(sim, nodes, net, homes, window=3, start=200_000):
    clients = []
    base_pid = 100
    for i, home in enumerate(homes):
        client = ClosedLoopClient(
            base_pid + i, sim, home, window=window, start_at_us=start
        )
        clients.append(client)
        net.register(client, replica=False)
    return clients


class TestHappyPath:
    def test_commits_and_replies(self):
        sim, nodes, net = build_fino()
        clients = attach_clients(sim, nodes, net, homes=[0, 1, 2, 3])
        for node in nodes:
            node.start()
        sim.run(until=6 * SECONDS)
        assert all(c.stats.completed > 0 for c in clients)
        assert all(node.stats.txs_executed > 0 for node in nodes)

    def test_execution_order_agrees(self):
        sim, nodes, net = build_fino()
        attach_clients(sim, nodes, net, homes=[1, 2])
        for node in nodes:
            node.start()
        sim.run(until=6 * SECONDS)
        logs = [
            [cid for _, cid in node.output_sequence()] for node in nodes
        ]
        shortest = min(logs, key=len)
        for log in logs:
            assert log[: len(shortest)] == shortest

    def test_payload_hidden_until_commit(self):
        """Blind order-fairness: what the leader sequences is ciphertext."""
        sim, nodes, net = build_fino()
        observed_bodies = []
        secret = b"SECRET-ORDER"

        def spy(t, src, dst, message):
            if message.kind == "hs.request" or message.kind == "hs.propose":
                payload = message.payload or {}
                ref = payload.get("payload")
                refs = [ref] if ref is not None else []
                block = payload.get("block")
                if block is not None:
                    refs = list(block.payloads)
                for r in refs:
                    if r is not None and hasattr(r, "cipher"):
                        observed_bodies.append(bytes(r.cipher.body))

        net.add_trace_hook(spy)
        attach_clients(sim, nodes, net, homes=[1])
        nodes[1].submit(Transaction(42, 0, secret))
        for node in nodes:
            node.start()
        sim.run(until=4 * SECONDS)
        assert observed_bodies
        assert all(secret not in body for body in observed_bodies)


class TestBlindCensorship:
    def test_blind_leader_still_censors_by_proposer(self):
        """The §I critique in one test: commit-reveal hides content, yet
        the leader starves pid 2's ciphers — obfuscation alone is not
        order fairness."""
        sim, nodes, net = build_fino(
            leader_cls=BlindCensoringLeaderFino, leader_kwargs={"censored": {2}}
        )
        clients = attach_clients(sim, nodes, net, homes=[1, 2, 3])
        for node in nodes:
            node.start()
        sim.run(until=8 * SECONDS)
        victim = clients[1]  # homed at pid 2
        others = [clients[0], clients[2]]
        leader = nodes[0]
        assert leader.censored_count > 0
        assert victim.stats.completed == 0
        assert all(c.stats.completed > 0 for c in others)


class TestSharedCluster:
    """Fino is a third ``PROTOCOLS`` adapter: it runs on the same cluster
    as Lyra and Pompē, watchdog on, and refuses by name what FinoNode
    cannot honour."""

    def test_n4_run_is_safe_with_a_clean_watchdog(self):
        cfg = quick_lyra_config(duration_us=3 * SECONDS, jitter=0.0)
        cluster = build_cluster(cfg, protocol="fino")
        result = cluster.run()
        assert all(type(node) is FinoNode for node in cluster.nodes)
        assert isinstance(cluster.obf, HashCommitObfuscation)
        assert result.committed_count > 0
        assert result.safety_violation is None
        assert result.invariant_checks == cluster.watchdog.ticks + 1
        assert result.invariant_violations == []

    def test_jitter_decides_strictly_by_height(self):
        """With jitter a ``decide`` for height h+1 can land before h's
        (seed 2); blocks are still handed over by height, so replicas
        agree."""
        cluster = build_cluster(quick_lyra_config(seed=2), protocol="fino")
        arrivals = record_decide_arrivals(cluster)
        result = cluster.run()
        assert result.invariant_violations == []
        assert result.safety_violation is None
        assert any(heights != sorted(heights) for heights in arrivals.values())
        for node in cluster.nodes:
            handed = [b.height for b in node.hotstuff.decided_blocks]
            assert handed == sorted(handed)

    def test_mev_bot_sees_payloads_only_after_execution(self):
        spec = WorkloadSpec(
            groups=(
                ClientGroup(
                    name="victims",
                    client="arrival",
                    count=1,
                    home=0,
                    arrival={"kind": "poisson", "rate_tps": 5.0},
                    body="amm",
                    body_params={"amount_min": 1_000, "amount_max": 5_000},
                ),
                ClientGroup(name="mev", client="mev", count=1, home=1, collude=True),
            )
        )
        cfg = quick_lyra_config(
            workload=spec, jitter=0.0, batch_size=1, duration_us=3 * SECONDS
        )
        cluster = build_cluster(cfg, protocol="fino")
        # ``collude`` asks for a timestamp-biasing replica: Fino has none.
        assert type(cluster.nodes[1]) is FinoNode
        sandwich = cluster.run().fairness["sandwich"]
        assert sandwich["attempts"] > 0  # the execution tap fed the bot
        assert sandwich["successes"] == 0

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
        with pytest.raises(ValueError, match=f"fino cannot honour.*{field}"):
            build_cluster(cfg, protocol="fino")
