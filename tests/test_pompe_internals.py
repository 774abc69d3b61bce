"""Regression tests for Pompē internals: the execution-watermark floor,
stale-certificate bounce, and certificate resubmission after view changes.
These guard the subtle machinery that keeps timestamp-ordered execution
safe (no cert executes out of order) and live (no cert is lost)."""

import pytest

from repro.baselines.pompe import OrderingCert, PompeConfig, PompeNode
from repro.core.types import Batch, Transaction
from repro.crypto.cost import FREE_COSTS
from repro.crypto.hashing import digest_of
from repro.crypto.signatures import KeyRegistry
from repro.crypto.threshold import ThresholdScheme
from repro.net.latency import UniformLatencyModel
from repro.net.network import Network, NetworkConfig
from repro.sim.engine import MILLISECONDS, SECONDS, Simulator
from repro.sim.rng import RngRegistry

DELAY = 10 * MILLISECONDS


def build_pompe(n=4, seed=67, **cfg_kwargs):
    f = (n - 1) // 3
    sim = Simulator()
    registry = KeyRegistry(seed)
    threshold = ThresholdScheme(2 * f + 1, n, seed=seed)
    net = Network(
        sim,
        UniformLatencyModel(DELAY),
        config=NetworkConfig(delta_us=5 * DELAY, bandwidth_enabled=False),
    )
    nodes = []
    for pid in range(n):
        node = PompeNode(
            pid,
            sim,
            n=n,
            f=f,
            registry=registry,
            threshold=threshold,
            config=PompeConfig(batch_size=1, costs=FREE_COSTS, **cfg_kwargs),
            rng=RngRegistry(seed),
        )
        nodes.append(node)
        net.register(node)
    for node in nodes:
        node.start()
    return sim, nodes


def make_cert(nodes, proposer, ts, nonce):
    """Hand-build a valid ordering certificate with a chosen timestamp."""
    node = nodes[proposer]
    batch = Batch(proposer, nonce, (Transaction(proposer, nonce),))
    digest = digest_of(batch.canonical())
    endorsements = []
    for pid in range(2 * node.f + 1):
        sig = nodes[pid].services.signer.sign((digest, ts))
        endorsements.append((pid, ts, sig))
    return OrderingCert(batch, digest, ts, tuple(endorsements))


class TestWatermarkFloor:
    def test_floor_monotone_across_decides(self):
        sim, nodes = build_pompe()
        sim.run(until=3 * SECONDS)  # heartbeats advance the floor
        floors = [node.hotstuff._wm_floor for node in nodes]
        assert all(f > 0 for f in floors)
        before = nodes[1].hotstuff._wm_floor
        sim.run(until=5 * SECONDS)
        assert nodes[1].hotstuff._wm_floor >= before

    def test_execution_in_ts_order_under_load(self):
        sim, nodes = build_pompe()
        # Many single-tx batches from every node, interleaved.
        for i in range(5):
            for node in nodes:
                sim.schedule(
                    200_000 + i * 130_000 + node.pid * 7_000,
                    lambda node=node, i=i: node.submit(
                        Transaction(node.pid, i)
                    ),
                )
        sim.run(until=15 * SECONDS)
        for node in nodes:
            assert node.stats.txs_executed >= 15
            assert node.executed_log == sorted(node.executed_log)


class TestStaleBounce:
    def test_stale_cert_reordered_not_lost(self):
        """A certificate whose timestamp fell behind the published
        watermark is bounced back to its proposer, which re-runs the
        ordering phase — the transactions still commit (fresh timestamp),
        never out of order."""
        sim, nodes = build_pompe()
        sim.run(until=3 * SECONDS)  # let heartbeats raise the floor
        leader = nodes[0].hotstuff
        floor = leader._wm_floor
        assert floor > 0
        stale = make_cert(nodes, proposer=1, ts=floor - 1_000, nonce=77)
        nodes[1]._unacked[stale.batch_digest] = stale
        nodes[1]._proposed_at[stale.batch_digest] = sim.now
        nodes[1].hotstuff.submit(stale)
        sim.run(until=10 * SECONDS)
        # The stale cert's transaction executed (via re-ordering) ...
        assert nodes[0].stats.txs_executed >= 1
        # ... and every log is still timestamp-sorted.
        for node in nodes:
            assert node.executed_log == sorted(node.executed_log)

    def test_own_stale_cert_forgets_its_proposal_time(self):
        """The stale certificate never executes, so re-ordering it must
        drop its proposal time; only the fresh batch keeps one."""
        sim, nodes = build_pompe()
        sim.run(until=3 * SECONDS)
        node = nodes[1]
        floor = node.hotstuff._wm_floor
        stale = make_cert(nodes, proposer=1, ts=floor - 1_000, nonce=77)
        node._unacked[stale.batch_digest] = stale
        node._proposed_at[stale.batch_digest] = sim.now
        pending = set(node._pending_order)
        node._on_stale_cert(stale)
        assert stale.batch_digest not in node._proposed_at
        (fresh,) = set(node._pending_order) - pending
        assert node._pending_order[fresh]["batch"].txs == stale.batch.txs
        assert fresh in node._proposed_at


class TestResubmission:
    def test_certs_survive_leader_crash(self):
        sim, nodes = build_pompe(view_timeout_us=30 * DELAY)
        nodes[0].crash()  # view-0 leader
        sim.schedule(200_000, lambda: nodes[1].submit(Transaction(1, 0)))
        sim.run(until=20 * SECONDS)
        live = [n for n in nodes if not n.crashed]
        assert all(n.stats.txs_executed >= 1 for n in live)
        views = {n.hotstuff.view for n in live}
        assert all(v >= 1 for v in views)
