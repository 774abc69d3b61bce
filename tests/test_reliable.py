"""Unit tests for the ack/retransmit channel over a lossy network."""

from repro.net.faults import FaultInjector, FaultPlan, LinkFault
from repro.net.latency import UniformLatencyModel
from repro.net.message import Message
from repro.net.network import Network, NetworkConfig
from repro.net.reliable import ACK_KIND, FRAME_KIND, ReliableConfig
from repro.sim.engine import MILLISECONDS, Simulator
from repro.sim.process import SimProcess
from repro.sim.rng import RngRegistry


class Collector(SimProcess):
    def __init__(self, pid, sim):
        super().__init__(pid, sim)
        self.got = []

    def on_message(self, message, sender):
        self.got.append((message.kind, message.payload, sender))


def build_net(sim, plan=None, seed=3, reliable_cfg=None, n=2):
    faults = FaultInjector(plan, RngRegistry(seed)) if plan is not None else None
    net = Network(
        sim,
        UniformLatencyModel(5 * MILLISECONDS),
        config=NetworkConfig(bandwidth_enabled=False),
        faults=faults,
    )
    net.enable_reliable(reliable_cfg)
    procs = [Collector(pid, sim) for pid in range(n)]
    for p in procs:
        net.register(p)
    return net, procs


class TestLossFree:
    def test_delivers_exactly_once(self):
        sim = Simulator()
        net, (a, b) = build_net(sim)
        a.send(1, Message("hello", {"v": 1}))
        sim.run()
        assert [kind for kind, _, _ in b.got] == ["hello"]
        assert net.reliable.stats.delivered == 1
        assert net.reliable.stats.retransmits == 0

    def test_fifo_per_link_without_faults(self):
        sim = Simulator()
        net, (a, b) = build_net(sim)
        for i in range(5):
            a.send(1, Message("m", {"i": i}))
        sim.run()
        assert [p["i"] for _, p, _ in b.got] == [0, 1, 2, 3, 4]


class TestLossyLink:
    def test_retransmission_recovers_all_messages(self):
        sim = Simulator()
        plan = FaultPlan(links=(LinkFault(drop_rate=0.4),))
        net, (a, b) = build_net(sim, plan=plan, seed=5)
        for i in range(30):
            a.send(1, Message("m", {"i": i}))
        sim.run()
        assert sorted(p["i"] for _, p, _ in b.got) == list(range(30))
        # Each message was delivered exactly once despite retransmits.
        assert len(b.got) == 30
        assert net.reliable.stats.retransmits > 0

    def test_duplicated_frames_suppressed(self):
        sim = Simulator()
        plan = FaultPlan(links=(LinkFault(duplicate_rate=1.0),))
        net, (a, b) = build_net(sim, plan=plan)
        for i in range(10):
            a.send(1, Message("m", {"i": i}))
        sim.run()
        assert len(b.got) == 10
        assert net.reliable.stats.dup_frames > 0

    def test_corruption_treated_as_loss(self):
        sim = Simulator()
        plan = FaultPlan(
            links=(LinkFault(corrupt_rate=1.0, end_us=40 * MILLISECONDS),)
        )
        net, (a, b) = build_net(sim, plan=plan)
        a.send(1, Message("m", {"i": 0}))
        sim.run()
        # The corrupted frame was discarded, then a post-window retransmit
        # got through.
        assert len(b.got) == 1
        assert net.corrupt_dropped > 0
        assert net.faults.stats.corrupt_detected == net.corrupt_dropped

    def test_gave_up_after_max_retries(self):
        sim = Simulator()
        plan = FaultPlan(links=(LinkFault(drop_rate=1.0),))  # black hole
        cfg = ReliableConfig(max_retries=3, rto_us=1 * MILLISECONDS)
        net, (a, b) = build_net(sim, plan=plan, reliable_cfg=cfg)
        a.send(1, Message("m"))
        sim.run()
        assert b.got == []
        assert net.reliable.stats.gave_up == 1
        assert net.reliable.stats.frames_sent == 4  # original + 3 retries


class TestWindowAndBacklog:
    def test_backlog_drains_after_acks(self):
        sim = Simulator()
        cfg = ReliableConfig(window=2, max_backlog=100)
        net, (a, b) = build_net(sim, reliable_cfg=cfg)
        for i in range(10):
            a.send(1, Message("m", {"i": i}))
        assert net.reliable.in_flight(0, 1) == 2  # window caps in-flight
        sim.run()
        assert [p["i"] for _, p, _ in b.got] == list(range(10))

    def test_backlog_overflow_drops(self):
        sim = Simulator()
        cfg = ReliableConfig(window=1, max_backlog=2)
        net, (a, b) = build_net(sim, reliable_cfg=cfg)
        for i in range(10):
            a.send(1, Message("m", {"i": i}))
        assert net.reliable.stats.backlog_dropped == 7  # 1 in flight + 2 queued
        sim.run()
        assert len(b.got) == 3


class TestCrashInteraction:
    def test_crashed_receiver_never_acks(self):
        sim = Simulator()
        cfg = ReliableConfig(max_retries=2, rto_us=20 * MILLISECONDS)
        net, (a, b) = build_net(sim, reliable_cfg=cfg)
        b.crash()
        a.send(1, Message("m"))
        sim.run()
        assert b.got == []
        assert net.reliable.stats.acks_sent == 0
        assert net.reliable.stats.gave_up == 1

    def test_crashed_sender_stops_retransmitting(self):
        sim = Simulator()
        plan = FaultPlan(links=(LinkFault(drop_rate=1.0),))
        cfg = ReliableConfig(max_retries=10, rto_us=10 * MILLISECONDS)
        net, (a, b) = build_net(sim, plan=plan, reliable_cfg=cfg)
        a.send(1, Message("m"))
        sim.schedule(15 * MILLISECONDS, a.crash)
        sim.run()
        assert net.reliable.stats.sender_died == 1
        assert net.reliable.stats.retransmits <= 2

    def test_receiver_delivery_resumes_after_recover(self):
        sim = Simulator()
        cfg = ReliableConfig(rto_us=20 * MILLISECONDS, max_retries=10)
        net, (a, b) = build_net(sim, reliable_cfg=cfg)
        b.crash()
        a.send(1, Message("m", {"i": 0}))
        sim.schedule(50 * MILLISECONDS, b.recover)
        sim.run()
        # A retransmit after recovery gets through.
        assert [p["i"] for _, p, _ in b.got] == [0]


class TestChecksum:
    def test_checksum_stamped_at_transmit(self):
        msg = Message("x", {"a": 1})
        assert msg.checksum == 0  # unstamped until it hits the wire
        msg.stamp_checksum()
        assert msg.checksum == msg.expected_checksum()

    def test_size_mutation_after_stamp_detected(self):
        msg = Message("x", {"a": 1})
        msg.stamp_checksum()
        msg.size += 100  # simulates in-flight tampering
        assert not msg.verify_checksum()

    def test_unstamped_message_passes(self):
        # Local deliveries that never crossed the wire are not penalised.
        assert Message("x").verify_checksum()


class TestFaultStatsCountOnce:
    def test_corrupted_then_retransmitted_counts_once(self):
        # Corrupt every transmission for the first 100 ms: the frame's
        # first copy and its first retransmit are both damaged, the third
        # attempt gets through.  The per-message counter must record one
        # corrupted message; the wire-event counter records each hit.
        sim = Simulator()
        plan = FaultPlan(
            links=(LinkFault(corrupt_rate=1.0, end_us=100 * MILLISECONDS),)
        )
        net, (a, b) = build_net(sim, plan=plan)
        a.send(1, Message("m", {"i": 0}))
        sim.run()
        assert [p["i"] for _, p, _ in b.got] == [0]
        stats = net.faults.stats
        assert stats.corrupted == 1
        assert stats.corrupt_wire_events >= 2
        assert stats.corrupt_detected == stats.corrupt_wire_events

    def test_duplicate_suppressed_retransmit_counts_once(self):
        # Every data transmission is duplicated, and acks are dropped for
        # the first 100 ms, forcing retransmits of an already-delivered
        # frame.  The same logical frame draws "duplicate" on several
        # physical transmissions but counts once per message.
        sim = Simulator()
        plan = FaultPlan(
            links=(
                LinkFault(duplicate_rate=1.0, dst=(1,)),
                LinkFault(drop_rate=1.0, dst=(0,), end_us=100 * MILLISECONDS),
            )
        )
        net, (a, b) = build_net(sim, plan=plan)
        a.send(1, Message("m", {"i": 0}))
        sim.run()
        assert [p["i"] for _, p, _ in b.got] == [0]  # exactly once
        stats = net.faults.stats
        assert stats.duplicated == 1
        assert stats.duplicate_wire_events >= 2
        assert net.reliable.stats.dup_frames >= 1


class TestOneWirePath:
    """First sends, retransmissions and acks reach the link through
    ``Network._put_on_wire`` and nowhere else."""

    def test_every_physical_frame_is_put_on_wire_once(self):
        sim = Simulator()
        plan = FaultPlan(
            links=(LinkFault(drop_rate=0.3, duplicate_rate=0.2, corrupt_rate=0.2),)
        )
        net, (a, b) = build_net(sim, plan=plan)
        wired = []
        put_on_wire = net._put_on_wire

        def spy(src, dst, frame):
            # Retransmissions re-send the pending frame object itself: a
            # corrupting link must have damaged a copy, never this one.
            assert frame.checksum in (0, frame.expected_checksum())
            wired.append(frame.kind)
            put_on_wire(src, dst, frame)

        net._put_on_wire = spy
        arrivals = []
        deliver = net._deliver
        net._deliver = lambda link, m: (arrivals.append(m.kind), deliver(link, m))
        for i in range(30):
            sim.schedule(i * MILLISECONDS, lambda i=i: a.send(1, Message("m", {"i": i})))
        sim.run()
        assert sorted(p["i"] for _, p, _ in b.got) == list(range(30))
        reliable, faults = net.reliable.stats, net.faults.stats
        assert reliable.retransmits > 0 and faults.corrupt_wire_events > 0
        assert wired.count(FRAME_KIND) == reliable.frames_sent
        assert wired.count(ACK_KIND) == reliable.acks_sent
        # One decision per physical frame: dropped, or scheduled once plus
        # once more if duplicated — and nothing else queues a delivery.
        assert len(arrivals) == (
            len(wired) - faults.dropped + faults.duplicate_wire_events
        )
