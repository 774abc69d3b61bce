"""Unit tests for the network substrate: messages, latency, bandwidth,
the partial-synchrony adversary's fault rules, delivery."""

import random

import numpy as np
import pytest

from repro.net.bandwidth import BandwidthModel, NicQueue
from repro.net.faults import FaultInjector, FaultPlan, LinkFault
from repro.net.latency import (
    AWS_ONE_WAY_MS,
    JITTER_REFILL,
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
from repro.sim.rng import RngRegistry, derive_seed
from tests.helpers import record_fields


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
        assert m.link_terms(0, 1) == (1000, 1000, None)
        assert m.link_terms(2, 2)[0] == m.self_delay_us

    def test_geo_base_matches_matrix(self):
        topo = Topology(3, ["oregon", "ireland", "sydney"])
        model = GeoLatencyModel(topo.placement, jitter=0.0)
        assert model.base_us(0, 1) == int(68.0 * MILLISECONDS)

    def test_geo_jitter_bounded(self):
        topo = Topology(2, ["oregon", "ireland"])
        model = GeoLatencyModel(topo.placement, jitter=0.05, rng=RngRegistry(1))
        base = model.base_us(0, 1)
        for sample in _wire_delays(model, [(0, 1)] * 200, 2):
            assert base * 0.2 <= sample <= base * 1.16

    def test_geo_sees_late_placements(self):
        topo = Topology(2, ["oregon", "ireland"])
        model = GeoLatencyModel(topo.placement, jitter=0.0)
        new_pid = topo.place("sydney")
        assert model.base_us(0, new_pid) == int(70.0 * MILLISECONDS)

    @staticmethod
    def _geo_twins(seed, jitter=0.015):
        """Two models over the same seed: the parent's scalar sampler as
        the reference, and the model the network's link records draw from."""
        placement = Topology(8, EVAL_REGIONS).placement
        return (
            _ReferenceGeo(placement, jitter=jitter, rng=RngRegistry(seed)),
            GeoLatencyModel(placement, jitter=jitter, rng=RngRegistry(seed)),
        )

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_geo_block_matches_scalar_sequence(self, seed):
        # A broadcast fan-out (one ``schedule_block`` over the sender's row
        # of link records) draws what scalar samples would, in pid order.
        scalar, model = self._geo_twins(seed)
        want = [scalar.one_way_us(src, d) for src in (0, 3, 5) for d in range(8)]
        assert _wire_delays(model, [(0, None), (3, None), (5, None)], 8) == want

    @pytest.mark.parametrize("seed", [2, 11])
    def test_geo_block_and_scalar_interleave_on_one_stream(self, seed):
        """Broadcast fan-outs and point-to-point sends share each source's
        jitter stream: any interleaving must consume the same variates in
        the same order as all-scalar — across the refill boundary too."""
        scalar, model = self._geo_twins(seed)
        rnd = random.Random(seed)
        actions, want = [], []
        draws = [0] * 8
        for _ in range(2500):
            src = rnd.randrange(8)
            if rnd.random() < 0.3:
                dst = rnd.randrange(8)
                actions.append((src, dst))
                want.append(scalar.one_way_us(src, dst))
                draws[src] += dst != src
            else:
                actions.append((src, None))
                want.extend(scalar.one_way_us(src, d) for d in range(8))
                draws[src] += 7
        assert min(draws) > 1024  # every stream is refilled mid-run
        assert _wire_delays(model, actions, 8) == want

    def test_geo_block_jitter_free(self):
        scalar, model = self._geo_twins(1, jitter=0.0)
        assert _wire_delays(model, [(2, None)], 8) == [
            scalar.one_way_us(2, d) for d in range(8)
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
        # With bandwidth off a 10 MB frame leaves at once and costs no
        # ingress time: it arrives after exactly its propagation delay.
        sim = Simulator()
        net = Network(
            sim, UniformLatencyModel(1000), config=NetworkConfig(bandwidth_enabled=False)
        )
        a, b = Collector(0, sim), Collector(1, sim)
        net.register(a)
        net.register(b)
        a.send(1, Message("big", None, 10_000_000))
        sim.run()
        assert b.got == [(1000, "big", 0)]
        assert net._link(0, 1).egress is None and net._link(0, 1).ingress is None

    def test_per_pid_rates(self):
        sim = Simulator()
        bw = BandwidthModel(sim, rate_bps={0: 8_000_000})
        assert bw.egress(0).rate_bps == 8_000_000
        assert bw.egress(1).rate_bps == BandwidthModel.DEFAULT_RATE

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            NicQueue(Simulator(), 0)


def _decide(links, src, dst, now, gst_us=SECONDS, seed=0):
    injector = FaultInjector(FaultPlan(links=links, gst_us=gst_us), RngRegistry(seed))
    return injector.decide(src, dst, Message("x"), now)


class TestAdversaries:
    """The partial-synchrony adversary as fault rules: delays that end by
    the plan's GST."""

    def test_null_never_delays(self):
        d = _decide((), 0, 1, 0, gst_us=0)
        assert d.delay_us == 0 and d.extra_delay_us == 0
        assert FaultPlan().gst_us == 0

    def test_partial_synchrony_delays_before_gst_only(self):
        rule = LinkFault(reorder_rate=1.0, reorder_delay_us=1000, end_us=1 * SECONDS)
        injector = FaultInjector(FaultPlan(links=(rule,), gst_us=SECONDS), RngRegistry(3))
        pre = [injector.decide(0, 1, Message("x"), 0).extra_delay_us for _ in range(100)]
        assert any(d > 0 for d in pre)
        assert all(0 <= d <= 1000 for d in pre)
        assert injector.decide(0, 1, Message("x"), 1 * SECONDS).extra_delay_us == 0

    def test_targeted_directions(self):
        src_rule = (LinkFault(src=(5,), delay_us=777, end_us=SECONDS),)
        assert _decide(src_rule, 5, 1, 0).delay_us == 777
        assert _decide(src_rule, 1, 5, 0).delay_us == 0
        dst_rule = (LinkFault(dst=(5,), delay_us=777, end_us=SECONDS),)
        assert _decide(dst_rule, 1, 5, 0).delay_us == 777

    def test_targeted_gst(self):
        rule = (LinkFault(src=(5,), delay_us=777, end_us=100),)
        assert _decide(rule, 5, 1, 200, gst_us=100).delay_us == 0

    def test_targeted_both_directions_do_not_stack(self):
        # "Both directions" is two rules; a frame matching both, like a
        # 5 -> 5 self-send, waits the larger delay, not the sum.
        both = (
            LinkFault(src=(5,), delay_us=777, end_us=SECONDS),
            LinkFault(dst=(5,), delay_us=700, end_us=SECONDS),
        )
        assert _decide(both, 5, 5, 0).delay_us == 777
        assert _decide(both, 1, 5, 0).delay_us == 700
        # A random reorder delay still adds on top.
        noisy = both + (LinkFault(reorder_rate=1.0, reorder_delay_us=50),)
        d = _decide(noisy, 5, 5, 0)
        assert d.delay_us == 777 and 1 <= d.extra_delay_us <= 50


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

    def test_plan_delay_applied_until_gst(self):
        sim = Simulator()
        rule = LinkFault(src=(0,), delay_us=50 * MILLISECONDS, end_us=SECONDS)
        net = Network(
            sim,
            UniformLatencyModel(1000),
            NetworkConfig(bandwidth_enabled=False),
            faults=FaultInjector(FaultPlan(links=(rule,), gst_us=SECONDS), RngRegistry(0)),
        )
        a, b = Collector(0, sim), Collector(1, sim)
        net.register(a)
        net.register(b)
        a.send(1, Message("x"))
        sim.schedule(SECONDS, a.send, (1, Message("y")))
        sim.run()
        # Delayed before GST, on time from GST on.
        assert [t for t, _, _ in b.got] == [1000 + 50 * MILLISECONDS, SECONDS + 1000]
        assert net.faults.stats.delayed == 1

    def test_duplicate_cannot_cross_a_partition(self):
        sim = Simulator()
        links = (
            LinkFault(src=(0,), dst=(1,), end_us=SECONDS, hold=True),
            LinkFault(duplicate_rate=1.0, reorder_rate=1.0, reorder_delay_us=500),
        )
        net = Network(
            sim,
            UniformLatencyModel(1000),
            NetworkConfig(bandwidth_enabled=False),
            faults=FaultInjector(FaultPlan(links=links, gst_us=SECONDS), RngRegistry(0)),
        )
        a, b = Collector(0, sim), Collector(1, sim)
        net.register(a)
        net.register(b)
        a.send(1, Message("x"))
        sim.run()
        # Both copies wait for the heal; only the original is reordered.
        times = sorted(t for t, _, _ in b.got)
        assert times[0] == SECONDS + 1000
        assert SECONDS + 1000 < times[1] <= SECONDS + 1500
        stats = net.faults.stats
        assert (stats.delayed, stats.reordered, stats.duplicated) == (1, 1, 1)

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

    def _net(self, sim, latency, faults=None, **cfg):
        net = Network(sim, latency, config=NetworkConfig(**cfg), faults=faults)
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
        # Each call is its link's record, so delivery looks nothing up.
        assert [fn for _, fn, _ in items] == [net._link(2, d) for d in dsts]
        for delay, fn, args in items:
            assert type(delay) is int and delay > 0
            # One argument tuple for the whole fan-out; the frame is shared,
            # not copied.
            assert args is items[0][2] and args == (frame,)
        # Egress serialisation staggers the copies in destination order.
        assert sim.pending == len(dsts)
        sim.run()
        assert [len(p.got) for p in procs] == [int(d in dsts) for d in range(self.N)]
        assert net.messages_delivered == len(dsts)

    @pytest.mark.parametrize("bandwidth", [False, True, "per-pid"])
    def test_arrivals_match_the_per_destination_path(self, bandwidth):
        # Per-pid NIC rates take the fast path too: its row of records
        # holds each destination's own ingress queue.
        rate = {1: 8_000_000, 3: 40_000_000} if bandwidth == "per-pid" else 80_000_000
        arrivals = []
        for fast in (True, False):
            sim = Simulator()
            # An injector, even of an empty plan, takes the general loop.
            faults = None if fast else FaultInjector(FaultPlan(), RngRegistry(0))
            net, procs = self._net(
                sim, self._geo(), faults, bandwidth_enabled=bool(bandwidth), rate_bps=rate
            )
            for k in range(3):
                sim.schedule(
                    k * 40, net.broadcast, (k, Message("m", {"k": k}, 700))
                )
            sim.run()
            arrivals.append([p.got for p in procs])
            assert net.messages_delivered == 3 * self.N
        assert arrivals[0] == arrivals[1]


class TestOneWirePath:
    """Point-to-point sends and the faulty broadcast loop both put frames
    on the wire through ``_put_on_wire``: whatever the route, link 0->1
    treats the frame the same way."""

    ROUTES = ("send", "broadcast")

    def _net(self, fault, route):
        sim = Simulator()
        plan = FaultPlan(links=(LinkFault(dst=(1,), **{fault: 1.0}),))
        latency = GeoLatencyModel(
            Topology(3, EVAL_REGIONS).placement, jitter=0.05, rng=RngRegistry(3)
        )
        net = Network(
            sim,
            latency,
            config=NetworkConfig(bandwidth_enabled=False),
            faults=FaultInjector(plan, RngRegistry(3)),
        )
        procs = [Collector(pid, sim) for pid in (0, 1, 2)]
        for p in procs:
            net.register(p)
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
        assert _draws(latency, 0) == (3 if route == "broadcast" else 2)

    @pytest.mark.parametrize("route", ROUTES)
    def test_drop_schedules_nothing_and_counts_once(self, route):
        sim, net, procs, frame, latency = self._net("drop_rate", route)
        sim.run()
        assert procs[1].got == []
        assert net.faults.stats.dropped == 1
        # Nothing was drawn or queued for the dropped link.
        assert _draws(latency, 0) == (1 if route == "broadcast" else 0)
        assert net.messages_delivered == (1 if route == "broadcast" else 0)


def _draws(latency, src):
    """Variates ``src``'s jitter stream has handed out (within its first
    buffer)."""
    stream = latency._streams.get(src)
    return 0 if stream is None else stream[1]


def _wire_delays(latency, actions, n):
    """Send ``actions`` one second apart over a bandwidth-free network of
    ``n`` collectors — ``(src, dst)`` point to point, ``(src, None)`` a
    broadcast to all — and return every delivery's propagation delay, in
    send order, then destination pid order."""
    sim = Simulator()
    net = Network(sim, latency, config=NetworkConfig(bandwidth_enabled=False))
    procs = [Collector(pid, sim) for pid in range(n)]
    for p in procs:
        net.register(p)
    for k, (src, dst) in enumerate(actions):
        message = Message(str(k))
        if dst is None:
            sim.schedule(k * SECONDS, net.broadcast, (src, message))
        else:
            sim.schedule(k * SECONDS, net.send, (src, dst, message))
    sim.run()
    got = sorted(
        (int(kind), p.pid, t - int(kind) * SECONDS) for p in procs for t, kind, _ in p.got
    )
    return [delay for _, _, delay in got]


# ----------------------------------------------------------------------
# The per-frame wire path as it was before link records — each frame
# looked its terms up in the bandwidth, latency and fault models — kept
# verbatim as the reference the records are diffed against.
# ----------------------------------------------------------------------


class _ReferenceGeo(GeoLatencyModel):
    """``GeoLatencyModel`` sampling one ``one_way_us`` call per frame."""

    def __init__(self, placement, *, jitter=0.03, rng=None):
        # Keep a live reference when given a dict: topologies may place
        # auxiliary processes (clients, attackers) after the model exists.
        self.placement = placement if isinstance(placement, dict) else dict(placement)
        self.jitter = float(jitter)
        self._registry = rng or RngRegistry(0)
        # Pre-resolve base latencies for every known pid pair lazily.
        self._base_cache = {}
        # src -> [buffer, cursor, generator].
        self._streams = {}
        self._noise_sigma = self.jitter

    def _stream(self, src):
        state = self._streams.get(src)
        if state is None:
            state = self._streams[src] = [
                [],
                0,
                self._registry.get("net", "jitter", str(src)),
            ]
        return state

    def base_us(self, src, dst):
        key = (src, dst)
        cached = self._base_cache.get(key)
        if cached is None:
            if src == dst:
                cached = 10
            else:
                ms = region_latency_ms(self.placement[src], self.placement[dst])
                cached = int(ms * MILLISECONDS)
            self._base_cache[key] = cached
        return cached

    def one_way_us(self, src, dst):
        base = self.base_us(src, dst)
        jitter = self.jitter
        if jitter <= 0 or src == dst:
            return base
        if self._noise_sigma != jitter:
            self._streams.clear()
            self._noise_sigma = jitter
        state = self._streams.get(src)
        if state is None:
            state = self._stream(src)
        buf, pos, gen = state
        if pos >= len(buf):
            buf = state[0] = gen.normal(0.0, jitter, JITTER_REFILL).tolist()
            pos = 0
        noise = buf[pos]
        state[1] = pos + 1
        if noise > (hi := 3 * jitter):
            noise = hi
        elif noise < -hi:
            noise = -hi
        sample = int(base * (1.0 + noise))
        floor = int(base * 0.2)
        return sample if sample > floor else floor

    def link_terms(self, src, dst):
        # The reference network samples through ``one_way_us`` alone; its
        # link records are read for delivery only.
        return self.base_us(src, dst), 0, None


class _ReferenceUniform(UniformLatencyModel):
    def one_way_us(self, src, dst):
        return self.base_us(src, dst)


class _ReferenceBandwidth(BandwidthModel):
    def departure_time(self, src, size_bytes):
        """Queue a message on ``src``'s egress; return wire departure time."""
        if not self.enabled:
            return self._sim.now
        return self.egress(src).enqueue(size_bytes)

    def ingress_delay_us(self, dst, size_bytes):
        """Serialisation cost charged at the receiver when it arrives."""
        if not self.enabled:
            return 0
        return self.ingress(dst).serialisation_us(size_bytes)


class _ReferenceNetwork(Network):
    """``_put_on_wire`` and ``_schedule_delivery`` as they were, over the
    reference models.  A broadcast fans out one ``_put_on_wire`` per
    destination, which the old fast path matched bit for bit."""

    def __init__(self, sim, latency, config, faults):
        super().__init__(sim, latency, config, faults)
        self.bandwidth = _ReferenceBandwidth(
            sim, rate_bps=config.rate_bps, enabled=config.bandwidth_enabled
        )

    def _broadcast_fast(self, src, message, include_self):
        count = 0
        for dst in self._replicas:
            if include_self or dst != src:
                self._put_on_wire(src, dst, message)
                count += 1
        return count

    def _put_on_wire(self, src, dst, frame):
        frame.stamp_checksum()
        faults = self.faults
        if faults is None:
            self._schedule_delivery(src, dst, frame, 0)
            return
        decision = faults.decide(src, dst, frame, self.sim._now)
        if decision.drop:
            return
        wire = FaultInjector.corrupted_copy(frame) if decision.corrupt else frame
        # The fixed delay rides every copy; the reorder delay the original.
        self._schedule_delivery(
            src, dst, wire, decision.delay_us + decision.extra_delay_us
        )
        if decision.duplicate:
            self._schedule_delivery(src, dst, frame.clone(), decision.delay_us)

    def _schedule_delivery(self, src, dst, message, extra_delay_us):
        sim = self.sim
        now = sim._now
        size = message.size
        departure = self.bandwidth.departure_time(src, size)
        propagation = self.latency.one_way_us(src, dst)
        ingress = self.bandwidth.ingress_delay_us(dst, size)
        arrival = departure + propagation + ingress + extra_delay_us
        # ``arrival >= now`` by construction (departure is never in the
        # past and the remaining terms are non-negative), so this can skip
        # schedule_at's bounds check.  Priority src+1 gives same-instant
        # deliveries a canonical sender-pid order (see _broadcast_fast).
        sim.schedule(
            arrival - now,
            self._deliver,
            (src, dst, message),
            priority=src + 1,
        )

    def _deliver(self, src, dst, message):
        # The old callback shape, onto today's delivery.
        Network._deliver(self, self._link(src, dst), message)


def _queued(record):
    """An engine record, with a delivery's arguments reduced to what both
    callback shapes carry: the link's ends and the frame's wire fields.
    Records hold no insertion counter: a record's place in the spied list
    is its place in scheduling order."""
    time, priority, fn, args = record_fields(record)
    if type(fn).__name__ == "_Link":  # a link delivers what it is called with
        fn, args = Network._deliver, (fn,) + args
    if not fn.__name__.startswith("_deliver"):
        return time, priority, fn.__name__
    if len(args) == 2:
        link, message = args
        src, dst = link.src, link.dst
    else:
        src, dst, message = args
    return time, priority, src, dst, message.kind, message.size, message.checksum


def _stream_positions(rng):
    """Every stream of ``rng`` that has drawn, with its generator state."""
    return {
        key: gen.bit_generator.state
        for key, gen in rng._streams.items()
        if gen.bit_generator.state
        != np.random.default_rng(
            derive_seed(rng.root_seed, *key.split("/"))
        ).bit_generator.state
    }


class TestLinkRecordsMatchReference:
    """Differential: over seeded random frame sequences, the link records
    queue every delivery at the same time, priority and queue position as
    the per-frame lookups did, deliver the same messages, and leave every
    jitter and fault stream at the same position."""

    N = 4
    HORIZON = 2 * SECONDS
    CASES = {
        "faults": {"faults": True},
        "faults-bandwidth-off": {"faults": True, "bandwidth": False},
        "faults-per-pid-rates": {"faults": True, "rates": {0: 8_000_000, 2: 40_000_000}},
        "clean": {},
        "clean-bandwidth-off": {"bandwidth": False},
        "clean-per-pid-rates": {"rates": {0: 8_000_000, 2: 40_000_000}},
        "adversary-across-gst": {"adversary": True},
        "uniform": {"uniform": True, "faults": True},
        "jitter-free": {"jitter": 0.0, "faults": True},
        # 3σ > 0.8: samples hit the 20 % floor.
        "wild-jitter": {"jitter": 0.4},
        "reliable": {"faults": True, "reliable": True},
    }

    def _script(self, seed):
        """Timed actions, a pure function of ``seed``.  Pid 3 crashes and
        recovers; pid 4 is placed (and joins the replicas) mid-run, after
        other links have carried frames."""
        rnd = random.Random(seed)
        half = self.HORIZON // 2
        script = [
            (self.HORIZON * 2 // 5, "crash", 3),
            (self.HORIZON * 7 // 10, "recover", 3),
            (half, "place", None),
        ]
        for k in range(300):
            at = rnd.randrange(self.HORIZON)
            pids = range(self.N + (at > half))
            size = rnd.choice((48, 120, 700, 1500, 9000))
            if rnd.random() < 0.6:
                # Self-sends included.
                act = ("send", rnd.choice(pids), rnd.choice(pids), size)
            else:
                act = ("broadcast", rnd.choice(pids), rnd.random() < 0.5, size)
            script.append((at, f"m{k}") + act)
        return script

    def _run(self, reference, case, seed):
        sim = Simulator()
        rng = RngRegistry(seed)
        topo = Topology(self.N, EVAL_REGIONS)
        if case.get("uniform"):
            latency = (_ReferenceUniform if reference else UniformLatencyModel)(
                3 * MILLISECONDS
            )
        else:
            latency = (_ReferenceGeo if reference else GeoLatencyModel)(
                topo.placement, jitter=case.get("jitter", 0.05), rng=rng
            )
        faults = None
        if case.get("adversary"):
            # Fixed delays and a hold until GST, both on every copy of a
            # duplicated frame, over random reorder delays.
            gst = self.HORIZON // 2
            plan = FaultPlan(
                links=(
                    LinkFault(src=(0, 1), delay_us=30 * MILLISECONDS, end_us=gst),
                    LinkFault(src=(2,), dst=(0, 3), start_us=gst // 4, end_us=gst, hold=True),
                    LinkFault(duplicate_rate=0.2, reorder_rate=0.1),
                ),
                gst_us=gst,
            )
            faults = FaultInjector(plan, rng)
        if case.get("faults"):
            plan = FaultPlan(
                links=(
                    LinkFault(drop_rate=0.15, duplicate_rate=0.1, corrupt_rate=0.05),
                    LinkFault(reorder_rate=0.2, src=(1,), start_us=SECONDS // 2),
                )
            )
            faults = FaultInjector(plan, rng)
        config = NetworkConfig(
            delta_us=60 * MILLISECONDS,
            bandwidth_enabled=case.get("bandwidth", True),
            rate_bps=case.get("rates", 80_000_000),
        )
        net = (_ReferenceNetwork if reference else Network)(
            sim, latency, config, faults
        )
        if case.get("reliable"):
            net.enable_reliable()
        procs = {pid: Collector(pid, sim) for pid in range(self.N)}
        for p in procs.values():
            net.register(p)
        queued = []
        insert = sim._insert
        sim._insert = lambda record: (queued.append(_queued(record)), insert(record))

        def place():
            pid = topo.place("sydney")
            procs[pid] = Collector(pid, sim)
            net.register(procs[pid])

        for at, what, *act in self._script(seed):
            if what in ("crash", "recover"):
                sim.schedule(at, lambda m=what, pid=act[0]: getattr(procs[pid], m)())
            elif what == "place":
                sim.schedule(at, place)
            elif act[0] == "send":
                _, src, dst, size = act
                sim.schedule(at, lambda s=src, d=dst, m=Message(what, None, size): procs[s].send(d, m))
            else:
                _, src, include_self, size = act
                sim.schedule(
                    at,
                    lambda s=src, i=include_self, m=Message(what, None, size): (
                        procs[s].broadcast(m, include_self=i)
                    ),
                )
        sim.run()
        return {
            "queued": queued,
            "got": {pid: p.got for pid, p in procs.items()},
            "counters": (
                net.messages_delivered,
                net.bytes_delivered,
                net.corrupt_dropped,
                net.unroutable_dropped,
            ),
            "faults": faults.stats.to_dict() if faults else None,
            "reliable": net.reliable.stats.to_dict() if net.reliable else None,
            "streams": _stream_positions(rng),
            "jitter": {
                src: state[:2]
                for src, state in getattr(latency, "_streams", {}).items()
                if state[0]
            },
        }

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_identical_queue_deliveries_and_streams(self, case, seed):
        new = self._run(False, self.CASES[case], seed)
        old = self._run(True, self.CASES[case], seed)
        assert len(new["queued"]) > 300
        for got, want in zip(new["queued"], old["queued"]):
            assert got == want
        for key in old:
            assert new[key] == old[key], key
        assert new["got"][4]  # the late-placed pid was reached
