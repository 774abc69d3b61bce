"""Regression tests for Pompē internals: the execution-watermark floor,
stale-certificate bounce, and certificate resubmission after view changes.
These guard the subtle machinery that keeps timestamp-ordered execution
safe (no cert executes out of order) and live (no cert is lost)."""

import random

import pytest

from repro.attacks.pompe_attacks import CherryPickingOrdererNode
from repro.baselines.pompe import (
    ORDER_REQ_KIND,
    ORDER_TS_KIND,
    STALE_KIND,
    OrderingCert,
    PompeConfig,
    PompeNode,
)
from repro.core.replica import CLIENT_TX_KIND
from repro.core.types import Batch, Transaction
from repro.crypto.cost import FREE_COSTS
from repro.crypto.hashing import digest_of
from repro.crypto.signatures import KeyRegistry
from repro.crypto.threshold import ThresholdScheme
from repro.net.latency import UniformLatencyModel
from repro.net.message import Message
from repro.net.network import Network, NetworkConfig
from repro.sim.engine import MILLISECONDS, SECONDS, Simulator
from repro.sim.rng import RngRegistry

DELAY = 10 * MILLISECONDS


def build_pompe(n=4, seed=67, node_classes=None, **cfg_kwargs):
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
        node = (node_classes or {}).get(pid, PompeNode)(
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


#: One value of each type.  A field's junk is every value of another type
#: (``True`` is junk for an int field: its type is ``bool``).
JUNK_VALUES = (None, 7, True, 1.5, "s", b"d", [b"d"], (1,), {"a": 1})


def junk_message(rnd, signature):
    """A message of one of Pompē's own kinds that its door must drop: a
    payload that is not a dict, or one field of the wrong type."""
    batch = Batch(2, 0, (Transaction(2, 0),))
    fields = {
        CLIENT_TX_KIND: {"tx": Transaction(9, 0)},
        ORDER_REQ_KIND: {"batch": batch, "digest": b"\0" * 32},
        ORDER_TS_KIND: {"digest": b"\0" * 32, "ts": 5, "sig": signature},
        STALE_KIND: {"digest": b"\0" * 32},
    }
    kind = rnd.choice(sorted(fields))
    if rnd.random() < 0.2:
        return Message(kind, rnd.choice([None, 7, "s", [b"d"]]), 64)
    payload = dict(fields[kind])
    name = rnd.choice(sorted(payload))
    right = type(payload[name])
    payload[name] = rnd.choice([v for v in JUNK_VALUES if type(v) is not right])
    return Message(kind, payload, 64)


class TestJunkAtTheDoor:
    @pytest.mark.parametrize(
        "cls", [PompeNode, CherryPickingOrdererNode], ids=["honest", "cherry-picker"]
    )
    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_junk_walk(self, seed, cls):
        """Two identical clusters get the same client transactions; replica
        1 of one of them also gets junk of the client, ordering-phase and
        stale kinds in between.  It counts and drops every junk message,
        and every replica executes the same log as in the clean run."""
        signature = KeyRegistry(seed).signer(3).sign((b"\0" * 32, 5))
        runs = []
        for noisy in (False, True):
            sim, nodes = build_pompe(seed=seed, node_classes={1: cls})
            rnd = random.Random(seed)
            sent = 0
            for step in range(60):
                at = 100 * MILLISECONDS + step * 20 * MILLISECONDS
                if rnd.random() < 0.5:
                    message, sender = junk_message(rnd, signature), rnd.randrange(4)
                    if noisy:
                        sim.schedule_at(
                            at, lambda m=message, s=sender: nodes[1]._process(m, s)
                        )
                        sent += 1
                else:
                    node = nodes[rnd.randrange(4)]
                    tx = Transaction(100 + node.pid, step)
                    sim.schedule_at(at, lambda node=node, tx=tx: node.submit(tx))
            sim.run(until=5 * SECONDS)
            runs.append(([n.executed_log for n in nodes], nodes[1].stats, sent))
        (clean_logs, clean_stats, _), (noisy_logs, noisy_stats, sent) = runs
        assert noisy_logs == clean_logs
        assert clean_stats.malformed_messages == 0
        assert noisy_stats.malformed_messages == sent > 0
        assert clean_stats.txs_executed > 0  # the walk executes
