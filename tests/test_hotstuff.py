"""Tests for the HotStuff substrate: 3-phase commit, pipelining, QCs,
view changes, and payload dedup."""

import pytest

from repro.baselines.hotstuff import (
    PHASE_KIND,
    PHASES,
    PROPOSE_KIND,
    VIEWCHANGE_KIND,
    VOTE_KIND,
    Block,
    HotStuffParticipant,
    QuorumCert,
    _vote_digest,
)
from repro.core.services import ProtocolServices
from repro.crypto.cost import FREE_COSTS
from repro.crypto.hashing import digest_of
from repro.crypto.signatures import KeyRegistry
from repro.crypto.threshold import ThresholdScheme
from repro.harness.factory import build_cluster
from repro.net.latency import UniformLatencyModel
from repro.net.message import Message
from repro.net.network import Network, NetworkConfig
from repro.sim.engine import MILLISECONDS, Simulator
from repro.sim.process import SimProcess
from repro.sim.timers import TimerWheel

from tests.helpers import quick_lyra_config

DELAY = 5 * MILLISECONDS


class Payload:
    """A HotStuff payload with identity and size."""

    def __init__(self, tag: str) -> None:
        self.tag = tag
        self.payload_id = digest_of(tag)

    def wire_size(self) -> int:
        return 64

    def __repr__(self) -> str:
        return f"Payload({self.tag})"


class HsNode(SimProcess):
    def __init__(self, pid, sim, *, n, f, registry, threshold, **hs_kwargs):
        super().__init__(pid, sim)
        self.n, self.f = n, f
        self.registry, self.threshold_scheme = registry, threshold
        self.decided = []
        self._hs_kwargs = hs_kwargs

    def attach(self, network):
        super().attach(network)
        services = ProtocolServices(
            pid=self.pid,
            n=self.n,
            f=self.f,
            sim=self.sim,
            delta_us=network.delta_us,
            signer=self.registry.signer(self.pid),
            registry=self.registry,
            threshold=self.threshold_scheme,
            costs=FREE_COSTS,
            send_fn=lambda dst, msg: self.send(dst, msg),
            broadcast_fn=lambda msg: self.broadcast(msg),
            timers=self.timers,
        )
        self.hs = HotStuffParticipant(
            services, on_decide=self.decided.append, **self._hs_kwargs
        )

    def on_message(self, message, sender):
        payload = message.payload if isinstance(message.payload, dict) else {}
        self.hs.handle(message.kind, payload, sender)


def build_hs_cluster(n=4, **hs_kwargs):
    f = (n - 1) // 3
    sim = Simulator()
    registry = KeyRegistry(21)
    threshold = ThresholdScheme(2 * f + 1, n, seed=21)
    net = Network(
        sim,
        UniformLatencyModel(DELAY),
        config=NetworkConfig(delta_us=DELAY, bandwidth_enabled=False),
    )
    nodes = []
    for pid in range(n):
        node = HsNode(
            pid, sim, n=n, f=f, registry=registry,
            threshold=threshold, **hs_kwargs,
        )
        nodes.append(node)
        net.register(node)
    for node in nodes:
        node.hs.start()
    return sim, nodes, net


class TestGoodCase:
    def test_single_payload_decides_everywhere(self):
        sim, nodes, net = build_hs_cluster()
        nodes[0].hs.submit(Payload("a"))
        sim.run(until=1_000_000)
        for node in nodes:
            assert node.decided, f"pid {node.pid} never decided"
            assert node.decided[0].payloads[0].tag == "a"

    def test_submit_from_non_leader_relays(self):
        sim, nodes, net = build_hs_cluster()
        nodes[2].hs.submit(Payload("relayed"))
        sim.run(until=1_000_000)
        assert all(node.decided for node in nodes)

    def test_blocks_decide_in_height_order_per_node(self):
        sim, nodes, net = build_hs_cluster(batch_certs=1)
        for i in range(6):
            nodes[0].hs.submit(Payload(f"p{i}"))
        sim.run(until=2_000_000)
        for node in nodes:
            heights = [b.height for b in node.decided if b.payloads]
            assert len(heights) == 6

    def test_batching_packs_queued_payloads(self):
        # With the pipeline full (max_inflight=1), later submissions queue
        # and get packed into one block of up to batch_certs payloads.
        sim, nodes, net = build_hs_cluster(batch_certs=4, max_inflight=1)
        for i in range(5):
            nodes[0].hs.submit(Payload(f"p{i}"))
        sim.run(until=2_000_000)
        non_empty = [b for b in nodes[1].decided if b.payloads]
        assert [len(b.payloads) for b in non_empty] == [1, 4]

    def test_pipelining_bounded_by_max_inflight(self):
        sim, nodes, net = build_hs_cluster(batch_certs=1, max_inflight=2)
        for i in range(8):
            nodes[0].hs.submit(Payload(f"p{i}"))
        assert len(nodes[0].hs._inflight) <= 2
        sim.run(until=3_000_000)
        decided_payloads = [
            b.payloads[0].tag for b in nodes[0].decided if b.payloads
        ]
        assert len(decided_payloads) == 8

    def test_duplicate_payload_decided_once(self):
        sim, nodes, net = build_hs_cluster(batch_certs=1)
        p = Payload("dup")
        nodes[0].hs.submit(p)
        nodes[0].hs.submit(Payload("dup"))  # same payload_id
        sim.run(until=2_000_000)
        tags = [
            b.payloads[0].tag for b in nodes[1].decided if b.payloads
        ]
        assert tags.count("dup") == 1

    def test_agreement_on_block_contents(self):
        sim, nodes, net = build_hs_cluster()
        for i in range(5):
            nodes[i % 4].hs.submit(Payload(f"x{i}"))
        sim.run(until=3_000_000)
        logs = [
            [(b.height, tuple(p.tag for p in b.payloads)) for b in node.decided]
            for node in nodes
        ]
        shortest = min(logs, key=len)
        for log in logs:
            assert log[: len(shortest)] == shortest


class TestViewChange:
    def test_leader_crash_triggers_view_change(self):
        sim, nodes, net = build_hs_cluster(view_timeout_us=20 * DELAY)
        nodes[0].crash()  # the view-0 leader
        nodes[1].hs.submit(Payload("after-crash"))
        sim.run(until=10_000_000)
        live = [node for node in nodes if not node.crashed]
        assert all(node.hs.view >= 1 for node in live)

    def test_payload_recovers_after_view_change_with_resubmission(self):
        sim, nodes, net = build_hs_cluster(view_timeout_us=20 * DELAY)
        nodes[0].crash()
        payload = Payload("persistent")
        # Originator re-submits periodically (Pompē does this via its
        # resubmit timer; emulate here).
        def resubmit():
            if not any(
                b.payloads and b.payloads[0].tag == "persistent"
                for b in nodes[1].decided
            ):
                nodes[1].hs.submit(Payload("persistent"))
                sim.schedule(30 * DELAY, resubmit)

        resubmit()
        sim.run(until=20_000_000)
        live = [node for node in nodes if not node.crashed]
        for node in live:
            tags = [p.tag for b in node.decided for p in b.payloads]
            assert "persistent" in tags

    def test_viewchange_requires_quorum(self):
        sim, nodes, net = build_hs_cluster()
        # A single Byzantine VIEWCHANGE vote must not move the view.
        nodes[1].hs.on_viewchange({"new_view": 5}, sender=3)
        sim.run(until=200_000)
        assert nodes[1].hs.view == 0


class TestWatermark:
    def test_watermark_needs_quorum_of_reports(self):
        sim, nodes, net = build_hs_cluster()
        hs = nodes[0].hs
        hs._clock_reports = {0: 100}
        assert hs._watermark() == 0
        hs._clock_reports = {0: 1_000_000, 1: 2_000_000, 2: 3_000_000}
        assert hs._watermark() == 1_000_000 - DELAY

    def test_block_digest_binds_content(self):
        b1 = Block.build(0, 1, (Payload("a"),), 0)
        b2 = Block.build(0, 1, (Payload("b"),), 0)
        assert b1.digest != b2.digest


def _participant(
    pid, outbox, registry, threshold, n=4, *, on_decide=None, on_malformed=None
):
    """A participant whose sends and broadcasts land in ``outbox`` as
    ``(dst, message)`` (``dst`` None for a broadcast)."""
    sim = Simulator()
    services = ProtocolServices(
        pid=pid,
        n=n,
        f=(n - 1) // 3,
        sim=sim,
        delta_us=DELAY,
        signer=registry.signer(pid),
        registry=registry,
        threshold=threshold,
        costs=FREE_COSTS,
        send_fn=lambda dst, msg: outbox.append((dst, msg)),
        broadcast_fn=lambda msg: outbox.append((None, msg)),
        on_malformed=on_malformed or (lambda: None),
        timers=TimerWheel(sim),
    )
    return HotStuffParticipant(services, on_decide=on_decide or (lambda block: None))


def _qc(threshold, block, phase):
    digest = _vote_digest(block.digest, phase)
    shares = [threshold.share_signer(pid).share_sign(digest) for pid in range(3)]
    return QuorumCert(block.digest, phase, threshold.combine(digest, shares))


def _vote(threshold, block, phase, pid):
    share = threshold.share_signer(pid).share_sign(_vote_digest(block.digest, phase))
    return {
        "height": block.height,
        "digest": block.digest,
        "phase": phase,
        "share": share,
        "clock": 0,
    }


class TestLateTraffic:
    """Traffic that reaches a height after it decided is handled as it
    always was, although the decided block keeps no payloads."""

    def test_commit_step_after_decide_still_votes(self):
        registry, threshold = KeyRegistry(21), ThresholdScheme(3, 4, seed=21)
        outbox = []
        replica = _participant(1, outbox, registry, threshold)
        block = Block.build(0, 0, (Payload("a"),), 0)
        replica.on_propose({"block": block}, sender=0)
        replica.on_phase(
            {"height": 0, "step": "precommit", "qc": _qc(threshold, block, "prepare")},
            sender=0,
        )
        # Jitter lets DECIDE overtake the COMMIT step.
        replica.on_phase(
            {"height": 0, "step": "decide", "qc": _qc(threshold, block, "commit")},
            sender=0,
        )
        assert replica.decided_heights == {0}
        outbox.clear()
        replica.on_phase(
            {"height": 0, "step": "commit", "qc": _qc(threshold, block, "precommit")},
            sender=0,
        )
        ((dst, message),) = outbox
        assert dst == 0 and message.kind == VOTE_KIND
        assert (message.payload["phase"], message.payload["digest"]) == (
            "commit",
            block.digest,
        )
        assert threshold.share_verify(
            _vote_digest(block.digest, "commit"), message.payload["share"], 1
        )

    def test_vote_after_qc_is_verified_and_dropped(self, monkeypatch):
        registry, threshold = KeyRegistry(21), ThresholdScheme(3, 4, seed=21)
        outbox = []
        leader = _participant(0, outbox, registry, threshold)
        leader.submit(Payload("a"))
        ((_, proposal),) = outbox
        block = proposal.payload["block"]
        commit_qc = _qc(threshold, block, "commit")
        verified, combined = [], []
        share_verify, combine = threshold.share_verify, threshold.combine
        monkeypatch.setattr(
            threshold,
            "share_verify",
            lambda *args: verified.append(args[2]) or share_verify(*args),
        )
        monkeypatch.setattr(
            threshold,
            "combine",
            lambda *args: combined.append(args[0]) or combine(*args),
        )

        def late_vote(phase):
            outbox.clear()
            verified.clear()
            leader.on_vote(_vote(threshold, block, phase, 3), sender=3)
            assert verified == [3] and outbox == []

        for phase in PHASES:
            for pid in range(3):
                leader.on_vote(_vote(threshold, block, phase, pid), sender=pid)
            late_vote(phase)
        assert len(combined) == 3
        leader.on_phase({"height": 0, "step": "decide", "qc": commit_qc}, sender=0)
        assert leader.decided_heights == {0}
        for phase in PHASES:
            late_vote(phase)
        assert len(combined) == 3


class TestUnhashableHeight:
    """A vote or phase message whose ``height`` is not an int is dropped
    before any table lookup: no exception and no state change."""

    @staticmethod
    def _state(hs):
        return (
            hs.view,
            hs.next_height,
            hs._wm_floor,
            set(hs.decided_heights),
            dict(hs.blocks),
            dict(hs._leader_blocks),
            {k: None if v is None else dict(v) for k, v in hs._leader_shares.items()},
            dict(hs._clock_reports),
        )

    def test_vote_and_phase_with_unhashable_height_are_dropped(self):
        sim, nodes, net = build_hs_cluster()
        nodes[0].hs.submit(Payload("a"))
        sim.run(until=1_000_000)
        assert all(node.decided for node in nodes)
        threshold = nodes[0].threshold_scheme
        block = nodes[0].hs._leader_blocks[0]
        before = [self._state(node.hs) for node in nodes]
        vote = _vote(threshold, block, "prepare", 1)
        vote["height"] = [1]
        vote["clock"] = 10**9
        nodes[0].hs.handle(VOTE_KIND, vote, 1)
        phase = {"height": {"x": 1}, "step": "decide", "qc": _qc(threshold, block, "commit")}
        for node in nodes:
            node.hs.handle(PHASE_KIND, phase, 0)
        assert [self._state(node.hs) for node in nodes] == before


def _decide(replica, threshold, block, leader=0):
    """Drive ``replica`` through ``block``'s proposal and DECIDE step."""
    replica.on_propose({"block": block}, sender=leader)
    replica.on_phase(
        {"height": block.height, "step": "decide", "qc": _qc(threshold, block, "commit")},
        sender=leader,
    )


class TestDecideOrder:
    """Decided blocks reach ``on_decide`` strictly by height, and a view
    change that abandons a height does not stall the ones above it."""

    def _replica(self):
        registry, threshold = KeyRegistry(21), ThresholdScheme(3, 4, seed=21)
        handed = []
        replica = _participant(
            2, [], registry, threshold, on_decide=lambda b: handed.append(b.height)
        )
        return replica, threshold, handed

    def test_a_decide_that_overtakes_waits_for_the_lower_height(self):
        replica, threshold, handed = self._replica()
        b0, b1 = (Block.build(0, h, (Payload(f"p{h}"),), 0) for h in range(2))
        replica.on_propose({"block": b0}, sender=0)
        _decide(replica, threshold, b1)
        assert replica.decided_heights == {1} and handed == []
        assert replica.payloads_pending()
        _decide(replica, threshold, b0)
        assert handed == [0, 1]
        assert [b.height for b in replica.decided_blocks] == [0, 1]

    def test_a_view_change_releases_blocks_above_an_abandoned_height(self):
        replica, threshold, handed = self._replica()
        b0, b1, b2 = (Block.build(0, h, (Payload(f"p{h}"),), 0) for h in range(3))
        _decide(replica, threshold, b0)
        replica.on_propose({"block": b1}, sender=0)  # its DECIDE never comes
        _decide(replica, threshold, b2)
        assert handed == [0]
        for voter in (0, 1, 3):
            replica.handle(VIEWCHANGE_KIND, {"new_view": 1}, voter)
        assert replica.view == 1
        assert handed == [0, 2]
        # The view-1 leader (pid 1) carries on above the abandoned height.
        _decide(replica, threshold, Block.build(1, 3, (Payload("p3"),), 0), leader=1)
        assert handed == [0, 2, 3]
        # A lagging new leader re-using the abandoned height: nothing that
        # waits is lower, so it is handed over at once.
        _decide(replica, threshold, Block.build(1, 1, (Payload("p1'"),), 0), leader=1)
        assert handed == [0, 2, 3, 1]
        assert not replica.payloads_pending()


class _BadId:
    payload_id = [1]


def _junk_request(replica, threshold):
    replica.handle("hs.request", {"payload": _BadId()}, 3)


def _junk_view(replica, threshold):
    bad = Block(view="x", height=0, payloads=(), watermark=0, digest=b"d")
    replica.handle(PROPOSE_KIND, {"block": bad}, 0)


def _junk_height(replica, threshold):
    bad = Block(view=0, height=[1], payloads=(), watermark=0, digest=b"d")
    replica.handle(PROPOSE_KIND, {"block": bad}, 0)


def _junk_watermark(replica, threshold):
    # Stored, this block would raise when its DECIDE compares watermarks.
    bad = Block(view=0, height=0, payloads=(), watermark="x", digest=b"d")
    replica.handle(PROPOSE_KIND, {"block": bad}, 0)


def _junk_step(replica, threshold):
    block = replica.blocks[0]
    phase = {"height": 0, "step": ["decide"], "qc": _qc(threshold, block, "commit")}
    replica.handle(PHASE_KIND, phase, 0)


class TestJunkFields:
    """A message with a field of the wrong type, from any sender, is
    dropped and counted before any state changes."""

    @pytest.mark.parametrize("pid", [0, 1], ids=["leader", "replica"])
    @pytest.mark.parametrize(
        "junk",
        [_junk_request, _junk_view, _junk_height, _junk_watermark, _junk_step],
        ids=["request-id", "propose-view", "propose-height", "propose-watermark", "phase-step"],
    )
    def test_junk_is_dropped_and_counted(self, pid, junk):
        registry, threshold = KeyRegistry(21), ThresholdScheme(3, 4, seed=21)
        outbox, malformed = [], []
        replica = _participant(
            pid, outbox, registry, threshold, on_malformed=lambda: malformed.append(1)
        )
        replica.on_propose({"block": Block.build(0, 0, (Payload("a"),), 0)}, sender=0)
        before = (
            TestUnhashableHeight._state(replica),
            replica._progress_marker,
            list(replica._queue),
            dict(replica._tracked_requests),
            len(outbox),
        )
        junk(replica, threshold)
        assert malformed
        assert (
            TestUnhashableHeight._state(replica),
            replica._progress_marker,
            list(replica._queue),
            dict(replica._tracked_requests),
            len(outbox),
        ) == before

    @pytest.mark.parametrize("protocol", ["pompe", "fino"])
    def test_a_baseline_replica_counts_what_its_hotstuff_drops(self, protocol):
        """Through the whole receive path, receive cost included."""
        cluster = build_cluster(quick_lyra_config(), protocol=protocol)
        leader = cluster.nodes[0]
        for payloads in ((), 5):
            bad = Block(view="x", height=0, payloads=payloads, watermark=0, digest=b"d")
            leader.deliver(Message(PROPOSE_KIND, {"block": bad}, 64), 1)
        vote = {"height": [0], "phase": PHASES[0], "share": None}
        leader.deliver(Message(VOTE_KIND, vote, 64), 1)
        cluster.sim.run(until=1_000)
        assert leader.stats.malformed_messages == 3
