"""Unit tests for the network substrate: messages, latency, bandwidth,
adversaries, delivery."""

import random

import pytest

from repro.net.adversary import (
    NullAdversary,
    PartialSynchronyAdversary,
    TargetedDelayAdversary,
)
from repro.net.bandwidth import BandwidthModel, NicQueue
from repro.net.faults import FaultInjector, FaultPlan, LinkFault
from repro.net.latency import (
    AWS_ONE_WAY_MS,
    GeoLatencyModel,
    UniformLatencyModel,
    region_latency_ms,
    triangle_violations,
)
from repro.net.message import HEADER_BYTES, Message, estimate_size
from repro.net.network import Network, NetworkConfig
from repro.net.topology import EVAL_REGIONS, FIG1_REGIONS, Topology
from repro.sim.engine import MILLISECONDS, SECONDS, Simulator
from repro.sim.process import SimProcess
from repro.sim.rng import RngRegistry


class Collector(SimProcess):
    def __init__(self, pid, sim):
        super().__init__(pid, sim)
        self.got = []

    def on_message(self, message, sender):
        self.got.append((self.sim.now, message.kind, sender))


class TestMessage:
    def test_size_includes_header(self):
        msg = Message("x", {"a": 1})
        assert msg.size >= HEADER_BYTES

    def test_explicit_size_respected(self):
        assert Message("x", None, 500).size == 500

    def test_estimate_primitives(self):
        assert estimate_size(None) == 1
        assert estimate_size(True) == 1
        assert estimate_size(7) == 8
        assert estimate_size(1.5) == 8
        assert estimate_size(b"abc") == 3
        assert estimate_size("abcd") == 4

    def test_estimate_containers_recursive(self):
        assert estimate_size([1, 2]) == (8 + 2) * 2
        assert estimate_size({"k": 1}) == 1 + 8 + 2

    def test_estimate_wire_size_protocol(self):
        class Obj:
            def wire_size(self):
                return 123

        assert estimate_size(Obj()) == 123

    def test_uids_unique(self):
        assert Message("a").uid != Message("a").uid

    def test_clone_same_size_new_uid(self):
        a = Message("a", {"x": 1})
        b = a.clone()
        assert b.size == a.size and b.uid != a.uid


class TestLatencyModels:
    def test_region_matrix_symmetric(self):
        for (a, b), v in AWS_ONE_WAY_MS.items():
            assert region_latency_ms(a, b) == region_latency_ms(b, a) == v

    def test_intra_region(self):
        assert region_latency_ms("oregon", "oregon") < 1.0

    def test_unknown_pair_raises(self):
        with pytest.raises(KeyError):
            region_latency_ms("oregon", "atlantis")

    def test_fig1_triangle_violation_exists(self):
        v = triangle_violations(FIG1_REGIONS)
        triples = {(s, m, d) for s, m, d, _ in v}
        assert ("tokyo", "singapore", "saopaulo") in triples

    def test_eval_regions_have_no_violations(self):
        assert triangle_violations(EVAL_REGIONS) == []

    def test_uniform_model(self):
        m = UniformLatencyModel(1000)
        assert m.one_way_us(0, 1) == 1000
        assert m.one_way_us(2, 2) == m.self_delay_us

    def test_geo_base_matches_matrix(self):
        topo = Topology(3, ["oregon", "ireland", "sydney"])
        model = GeoLatencyModel(topo.placement, jitter=0.0)
        assert model.base_us(0, 1) == int(68.0 * MILLISECONDS)

    def test_geo_jitter_bounded(self):
        topo = Topology(2, ["oregon", "ireland"])
        model = GeoLatencyModel(topo.placement, jitter=0.05, rng=RngRegistry(1))
        base = model.base_us(0, 1)
        for _ in range(200):
            sample = model.one_way_us(0, 1)
            assert base * 0.2 <= sample <= base * 1.16

    def test_geo_sees_late_placements(self):
        topo = Topology(2, ["oregon", "ireland"])
        model = GeoLatencyModel(topo.placement, jitter=0.0)
        new_pid = topo.place("sydney")
        assert model.base_us(0, new_pid) == int(70.0 * MILLISECONDS)

    @staticmethod
    def _geo_twins(seed, jitter=0.015):
        """Two models over the same seed: one is driven scalar-only as the
        reference, the other through ``one_way_block``."""
        placement = Topology(8, EVAL_REGIONS).placement
        return tuple(
            GeoLatencyModel(placement, jitter=jitter, rng=RngRegistry(seed))
            for _ in range(2)
        )

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_geo_block_matches_scalar_sequence(self, seed):
        scalar, block = self._geo_twins(seed)
        dsts = list(range(8))
        for src in (0, 3, 5):
            want = [scalar.one_way_us(src, d) for d in dsts]
            assert block.one_way_block(src, dsts) == want

    @pytest.mark.parametrize("seed", [2, 11])
    def test_geo_block_and_scalar_interleave_on_one_stream(self, seed):
        """Broadcast fan-outs (block) and point-to-point sends (scalar)
        share each source's jitter stream: any interleaving must consume
        the same variates in the same order as all-scalar — across the
        1024-variate refill boundary too."""
        scalar, block = self._geo_twins(seed)
        rnd = random.Random(seed)
        for _ in range(1500):
            src = rnd.randrange(8)
            if rnd.random() < 0.5:
                dst = rnd.randrange(8)
                assert block.one_way_us(src, dst) == scalar.one_way_us(src, dst)
            else:
                dsts = sorted(rnd.sample(range(8), rnd.randint(1, 8)))
                want = [scalar.one_way_us(src, d) for d in dsts]
                assert block.one_way_block(src, dsts) == want

    def test_geo_block_jitter_free(self):
        scalar, block = self._geo_twins(1, jitter=0.0)
        dsts = list(range(8))
        assert block.one_way_block(2, dsts) == [
            scalar.one_way_us(2, d) for d in dsts
        ]


class TestTopology:
    def test_round_robin_over_regions(self):
        topo = Topology(6, ["a1", "b1", "c1"])
        assert [topo.region_of(i) for i in range(6)] == [
            "a1", "b1", "c1", "a1", "b1", "c1",
        ]

    def test_place_allocates_fresh_pids(self):
        topo = Topology(3)
        pid = topo.place("oregon")
        assert pid == 3 and topo.region_of(3) == "oregon"

    def test_in_region(self):
        topo = Topology(6, ["x2", "y2"])
        assert topo.in_region("x2") == [0, 2, 4]

    def test_replicas_list(self):
        assert Topology(4).replicas() == [0, 1, 2, 3]

    def test_zero_replicas_rejected(self):
        with pytest.raises(ValueError):
            Topology(0)


class TestBandwidth:
    def test_serialisation_delay(self):
        sim = Simulator()
        q = NicQueue(sim, 1_000_000_000)  # 1 Gbps
        # 125000 bytes = 1 ms on the wire.
        assert q.serialisation_us(125_000) == 1000

    def test_fcfs_queueing(self):
        sim = Simulator()
        q = NicQueue(sim, 8_000_000)  # 1 byte/us
        assert q.enqueue(100) == 100
        assert q.enqueue(50) == 150
        assert q.backlog_us() == 150

    def test_disabled_model_passthrough(self):
        sim = Simulator()
        bw = BandwidthModel(sim, enabled=False)
        assert bw.departure_time(0, 10_000_000) == sim.now
        assert bw.ingress_delay_us(0, 10_000_000) == 0

    def test_per_pid_rates(self):
        sim = Simulator()
        bw = BandwidthModel(sim, rate_bps={0: 8_000_000})
        assert bw.egress(0).rate_bps == 8_000_000
        assert bw.egress(1).rate_bps == BandwidthModel.DEFAULT_RATE

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            NicQueue(Simulator(), 0)


class TestAdversaries:
    def test_null_never_delays(self):
        adv = NullAdversary()
        assert adv.extra_delay_us(0, 1, 10, 0) == 0
        assert adv.gst() == 0

    def test_partial_synchrony_delays_before_gst_only(self):
        adv = PartialSynchronyAdversary(
            1 * SECONDS, max_delay_us=1000, rng=RngRegistry(3)
        )
        pre = [adv.extra_delay_us(0, 1, 10, 0) for _ in range(100)]
        assert any(d > 0 for d in pre)
        assert all(0 <= d <= 1000 for d in pre)
        assert adv.extra_delay_us(0, 1, 10, 1 * SECONDS) == 0

    def test_targeted_directions(self):
        adv = TargetedDelayAdversary({5}, 777, direction="src")
        assert adv.extra_delay_us(5, 1, 10, 0) == 777
        assert adv.extra_delay_us(1, 5, 10, 0) == 0
        adv2 = TargetedDelayAdversary({5}, 777, direction="dst")
        assert adv2.extra_delay_us(1, 5, 10, 0) == 777

    def test_targeted_gst(self):
        adv = TargetedDelayAdversary({5}, 777, gst_us=100)
        assert adv.extra_delay_us(5, 1, 10, 200) == 0

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            TargetedDelayAdversary({1}, 5, direction="sideways")


class TestNetwork:
    def _pair(self, **cfg):
        sim = Simulator()
        net = Network(
            sim,
            UniformLatencyModel(1000),
            config=NetworkConfig(bandwidth_enabled=False, **cfg),
        )
        a, b = Collector(0, sim), Collector(1, sim)
        net.register(a)
        net.register(b)
        return sim, net, a, b

    def test_delivery_with_latency(self):
        sim, net, a, b = self._pair()
        a.send(1, Message("ping"))
        sim.run()
        assert b.got == [(1000, "ping", 0)]

    def test_broadcast_includes_self(self):
        sim, net, a, b = self._pair()
        a.broadcast(Message("hello"))
        sim.run()
        assert len(b.got) == 1 and len(a.got) == 1

    def test_broadcast_exclude_self(self):
        sim, net, a, b = self._pair()
        a.broadcast(Message("hello"), include_self=False)
        sim.run()
        assert len(a.got) == 0 and len(b.got) == 1

    def test_crashed_receiver_drops(self):
        sim, net, a, b = self._pair()
        b.crash()
        a.send(1, Message("ping"))
        sim.run()
        assert b.got == []

    def test_unknown_destination_counted_as_drop(self):
        # Sends to unregistered pids must degrade gracefully (counted,
        # not raised): crashed or deregistered targets happen under chaos.
        sim, net, a, b = self._pair()
        net.send(0, 99, Message("x"))
        assert net.unroutable_dropped == 1
        sim.run()
        assert b.got == [] or all(s != 99 for _, _, s in b.got)
        # Registered traffic still flows afterwards.
        net.send(0, 1, Message("y"))
        sim.run()
        assert any(kind == "y" for _, kind, _ in b.got)

    def test_duplicate_registration_rejected(self):
        sim = Simulator()
        net = Network(sim, UniformLatencyModel(10))
        net.register(Collector(0, sim))
        with pytest.raises(ValueError):
            net.register(Collector(0, sim))

    def test_replica_group_excludes_clients(self):
        sim = Simulator()
        net = Network(sim, UniformLatencyModel(10))
        net.register(Collector(0, sim), replica=True)
        net.register(Collector(7, sim), replica=False)
        assert net.pids() == [0]

    def test_trace_hook_sees_deliveries(self):
        sim, net, a, b = self._pair()
        seen = []
        net.add_trace_hook(lambda t, s, d, m: seen.append((t, s, d, m.kind)))
        a.send(1, Message("traced"))
        sim.run()
        assert seen == [(1000, 0, 1, "traced")]

    def test_adversary_delay_applied_and_clamped(self):
        sim = Simulator()
        adv = TargetedDelayAdversary({0}, 50 * SECONDS, gst_us=0, direction="src")
        net = Network(
            sim,
            UniformLatencyModel(1000),
            adv,
            NetworkConfig(
                delta_us=5000, bandwidth_enabled=False, clamp_after_gst=True
            ),
        )
        a, b = Collector(0, sim), Collector(1, sim)
        net.register(a)
        net.register(b)
        a.send(1, Message("x"))
        sim.run()
        # gst=0 so we are post-GST: delay clamped to delta.
        assert b.got[0][0] <= 5000

    def test_bandwidth_delays_back_to_back_sends(self):
        sim = Simulator()
        net = Network(
            sim,
            UniformLatencyModel(0, self_delay_us=0),
            config=NetworkConfig(
                bandwidth_enabled=True, rate_bps=8_000_000  # 1 B/us
            ),
        )
        a, b = Collector(0, sim), Collector(1, sim)
        net.register(a)
        net.register(b)
        a.send(1, Message("one", None, 100))
        a.send(1, Message("two", None, 100))
        sim.run()
        times = [t for t, _, _ in b.got]
        # egress serialisation: 100us each, plus ingress 100us each
        # (ingress of msg2 queues behind msg1's).
        assert times[0] == 200
        assert times[1] >= 300

    def test_message_and_byte_counters(self):
        sim, net, a, b = self._pair()
        a.send(1, Message("x", None, 100))
        sim.run()
        assert net.messages_delivered == 1
        assert net.bytes_delivered == 100


class TestFastBroadcast:
    """The fault-free fan-out hands the engine one block of call-carrying
    ``(delay, fn, args)`` triples — no closure per destination — and must
    land every copy exactly when the per-destination wire path would."""

    N = 5

    def _net(self, sim, latency, **cfg):
        net = Network(sim, latency, config=NetworkConfig(**cfg))
        procs = [Collector(pid, sim) for pid in range(self.N)]
        for p in procs:
            net.register(p)
        return net, procs

    def _geo(self, seed=4):
        placement = Topology(self.N, EVAL_REGIONS).placement
        return GeoLatencyModel(placement, jitter=0.05, rng=RngRegistry(seed))

    @pytest.mark.parametrize("include_self", [True, False])
    def test_block_items_carry_their_call(self, include_self):
        sim = Simulator()
        net, procs = self._net(sim, self._geo(), rate_bps=80_000_000)
        blocks = []
        real_block = sim.schedule_block

        def spy(items, *, priority=0):
            blocks.append((list(items), priority))
            real_block(items, priority=priority)

        sim.schedule_block = spy
        frame = Message("hello", {"v": 1}, 500)
        assert net.broadcast(2, frame, include_self=include_self) == (
            self.N if include_self else self.N - 1
        )
        ((items, priority),) = blocks
        assert priority == 2 + 1  # deliveries order by sender pid
        dsts = [d for d in range(self.N) if include_self or d != 2]
        assert [args for _, _, args in items] == [(2, d, frame) for d in dsts]
        for delay, fn, args in items:
            assert type(delay) is int and delay > 0
            assert fn == net._deliver_clean and args[2] is frame  # shared, not copied
        # Egress serialisation staggers the copies in destination order.
        assert sim.pending == len(dsts)
        sim.run()
        assert [len(p.got) for p in procs] == [int(d in dsts) for d in range(self.N)]
        assert net.messages_delivered == len(dsts)

    @pytest.mark.parametrize("bandwidth", [False, True])
    def test_arrivals_match_the_per_destination_path(self, bandwidth):
        arrivals = []
        for fast in (True, False):
            sim = Simulator()
            net, procs = self._net(
                sim, self._geo(), bandwidth_enabled=bandwidth, rate_bps=80_000_000
            )
            if not fast:
                net._broadcast_fast = lambda *a: -1  # take the general loop
            for k in range(3):
                sim.schedule(
                    k * 40, net.broadcast, (k, Message("m", {"k": k}, 700))
                )
            sim.run()
            arrivals.append([p.got for p in procs])
            assert net.messages_delivered == 3 * self.N
        assert arrivals[0] == arrivals[1]


class SteppedLatency(UniformLatencyModel):
    """Every draw is 1 ms later than the previous one, so two copies of a
    frame that each took their own draw arrive at different times."""

    def __init__(self):
        super().__init__(0)
        self.draws = 0

    def one_way_us(self, src, dst):
        self.draws += 1
        return self.draws * MILLISECONDS


class TestOneWirePath:
    """Point-to-point sends, the faulty broadcast loop and coalesced
    flushes all put frames on the wire through ``_put_on_wire``: whatever
    the route, link 0->1 treats the frame the same way."""

    ROUTES = ("send", "broadcast", "coalesced")

    def _net(self, fault, route):
        sim = Simulator()
        plan = FaultPlan(links=(LinkFault(dst=(1,), **{fault: 1.0}),))
        latency = SteppedLatency()
        net = Network(
            sim,
            latency,
            config=NetworkConfig(bandwidth_enabled=False),
            faults=FaultInjector(plan, RngRegistry(3)),
        )
        procs = [Collector(pid, sim) for pid in (0, 1, 2)]
        for p in procs:
            net.register(p)
        if route == "coalesced":
            net.enable_coalescing(0)
        frame = Message("x", {"v": 1})
        if route == "broadcast":
            net.broadcast(0, frame, include_self=False)
        else:
            net.send(0, 1, frame)
        return sim, net, procs, frame, latency

    @pytest.mark.parametrize("route", ROUTES)
    def test_corruption_damages_a_copy(self, route):
        sim, net, procs, frame, _ = self._net("corrupt_rate", route)
        seen = []
        net.add_trace_hook(lambda t, s, d, m: seen.append((d, m)))
        sim.run()
        assert procs[1].got == [] and net.corrupt_dropped == 1
        assert net.faults.stats.corrupt_wire_events == 1
        # The sender's frame — shared with every other link of a
        # broadcast — still carries its own, valid checksum.
        assert frame.checksum == frame.expected_checksum()
        if route == "broadcast":
            assert seen == [(2, frame)]

    @pytest.mark.parametrize("route", ROUTES)
    def test_duplicate_is_a_clone_with_its_own_latency_draw(self, route):
        sim, net, procs, frame, latency = self._net("duplicate_rate", route)
        seen = []
        net.add_trace_hook(lambda t, s, d, m: seen.append((t, d, m)))
        sim.run()
        to_1 = [(t, m) for t, d, m in seen if d == 1]
        assert len(to_1) == 2 and net.faults.stats.duplicate_wire_events == 1
        (t_a, m_a), (t_b, m_b) = to_1
        assert t_a != t_b
        assert (m_a is frame) != (m_b is frame)
        clone = m_b if m_a is frame else m_a
        assert clone.uid != frame.uid and clone.checksum == frame.checksum
        assert latency.draws == (3 if route == "broadcast" else 2)

    @pytest.mark.parametrize("route", ROUTES)
    def test_drop_schedules_nothing_and_counts_once(self, route):
        sim, net, procs, frame, latency = self._net("drop_rate", route)
        sim.run()
        assert procs[1].got == []
        assert net.faults.stats.dropped == 1
        # Nothing was drawn or queued for the dropped link.
        assert latency.draws == (1 if route == "broadcast" else 0)
        assert net.messages_delivered == (1 if route == "broadcast" else 0)
