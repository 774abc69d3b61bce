"""Unit tests for the fault-injection subsystem (FaultPlan/FaultInjector)."""

import dataclasses
import random

import pytest

from repro.net.faults import (
    CrashEvent,
    FaultInjector,
    FaultPlan,
    FaultStats,
    LinkFault,
    partition_faults,
)
from repro.net.message import Message
from repro.sim.rng import RngRegistry


class TestLinkFault:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            LinkFault(drop_rate=1.5)
        with pytest.raises(ValueError):
            LinkFault(corrupt_rate=-0.1)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(start_us=5, end_us=5), "end_us must be after"),
            (dict(start_us=9, end_us=5), "end_us must be after"),
            (dict(start_us=-1), "start_us must be non-negative"),
            (dict(reorder_delay_us=-1), "reorder_delay_us must be non-negative"),
            (dict(delay_us=-1, end_us=5), "delay_us must be non-negative"),
            (dict(hold=True), "hold rule needs end_us"),
            (dict(hold=True, delay_us=3, end_us=5), "holds or delays"),
        ],
    )
    def test_rules_that_never_fire_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            LinkFault(**kwargs)

    def test_matches_window_and_endpoints(self):
        lf = LinkFault(drop_rate=0.5, src=(0,), dst=(1, 2), start_us=100, end_us=200)
        assert lf.matches(0, 1, 150)
        assert lf.matches(0, 2, 100)
        assert not lf.matches(0, 1, 99)  # before window
        assert not lf.matches(0, 1, 200)  # window end exclusive
        assert not lf.matches(1, 2, 150)  # wrong src
        assert not lf.matches(0, 3, 150)  # wrong dst

    def test_wildcard_endpoints(self):
        lf = LinkFault(drop_rate=0.5)
        assert lf.matches(7, 9, 0)

    def test_selectors_normalised(self):
        assert LinkFault(src=(2, 0, 1)).src == (0, 1, 2)


class TestCrashEvent:
    def test_recover_must_follow_crash(self):
        with pytest.raises(ValueError):
            CrashEvent(pid=0, crash_at_us=100, recover_at_us=100)
        CrashEvent(pid=0, crash_at_us=100, recover_at_us=101)

    def test_crash_stop_allowed(self):
        assert CrashEvent(pid=0, crash_at_us=5).recover_at_us is None


class TestFaultPlan:
    def test_crashes_sorted(self):
        plan = FaultPlan(
            crashes=(
                CrashEvent(pid=1, crash_at_us=200),
                CrashEvent(pid=0, crash_at_us=100),
            )
        )
        assert [e.pid for e in plan.crashes] == [0, 1]

    def test_validate_unknown_pid(self):
        for plan in (
            FaultPlan(crashes=(CrashEvent(pid=9, crash_at_us=1),)),
            FaultPlan(links=(LinkFault(drop_rate=0.1, src=(99,)),)),
            FaultPlan(links=(LinkFault(drop_rate=0.1, dst=(0, 4)),)),
            FaultPlan(links=(LinkFault(drop_rate=0.1, src=(-1,)),)),
        ):
            with pytest.raises(ValueError, match="unknown pid"):
                plan.validate_for(n_nodes=4, f=1)

    @pytest.mark.parametrize(
        "rule, gst_us",
        [
            (LinkFault(delay_us=10), 100),  # no end_us
            (LinkFault(delay_us=10, end_us=101), 100),
            (LinkFault(hold=True, end_us=101), 100),
            (LinkFault(hold=True, end_us=1), 0),
        ],
    )
    def test_delays_and_holds_end_by_gst(self, rule, gst_us):
        with pytest.raises(ValueError, match="must end by gst_us"):
            FaultPlan(links=(rule,), gst_us=gst_us)

    def test_negative_gst_rejected(self):
        with pytest.raises(ValueError, match="gst_us must be non-negative"):
            FaultPlan(gst_us=-1)

    def test_validate_too_many_simultaneous_crashes(self):
        plan = FaultPlan(
            crashes=(
                CrashEvent(pid=0, crash_at_us=100, recover_at_us=500),
                CrashEvent(pid=1, crash_at_us=200, recover_at_us=600),
            )
        )
        with pytest.raises(ValueError, match="exceeds f"):
            plan.validate_for(n_nodes=4, f=1)

    def test_validate_staggered_crashes_ok(self):
        plan = FaultPlan(
            crashes=(
                CrashEvent(pid=0, crash_at_us=100, recover_at_us=200),
                CrashEvent(pid=1, crash_at_us=300, recover_at_us=400),
            )
        )
        plan.validate_for(n_nodes=4, f=1)

    def test_serialization_round_trip(self):
        plan = FaultPlan(
            links=(
                LinkFault(drop_rate=0.1, duplicate_rate=0.05, src=(0, 2)),
                LinkFault(corrupt_rate=0.01, start_us=500, end_us=900),
                LinkFault(delay_us=70, dst=(1,), end_us=800),
                *partition_faults([{0}], 4, start_us=100, heal_at_us=900),
            ),
            crashes=(CrashEvent(pid=2, crash_at_us=100, recover_at_us=300),),
            gst_us=900,
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            FaultPlan.from_dict({"links": [{"drop_rate": 0.1, "bogus": 1}]})

    def test_empty(self):
        assert FaultPlan().empty
        assert not FaultPlan(links=(LinkFault(drop_rate=0.1),)).empty
        assert not FaultPlan(gst_us=1).empty


class TestFaultInjector:
    def _injector(self, plan, seed=11):
        return FaultInjector(plan, RngRegistry(seed))

    def test_no_matching_rule_is_clean(self):
        inj = self._injector(FaultPlan(links=(LinkFault(drop_rate=1.0, src=(5,)),)))
        d = inj.decide(0, 1, Message("x"), now=0)
        assert not d.drop and not d.duplicate and not d.corrupt
        assert d.extra_delay_us == 0

    def test_certain_drop(self):
        inj = self._injector(FaultPlan(links=(LinkFault(drop_rate=1.0),)))
        d = inj.decide(0, 1, Message("x"), now=0)
        assert d.drop
        assert inj.stats.dropped == 1

    def test_drop_suppresses_other_faults(self):
        inj = self._injector(
            FaultPlan(links=(LinkFault(drop_rate=1.0, duplicate_rate=1.0, corrupt_rate=1.0),))
        )
        d = inj.decide(0, 1, Message("x"), now=0)
        assert d.drop and not d.duplicate and not d.corrupt
        assert inj.stats.duplicated == 0

    def test_deterministic_per_seed(self):
        plan = FaultPlan(links=(LinkFault(drop_rate=0.3, duplicate_rate=0.2),))
        a = self._injector(plan, seed=4)
        b = self._injector(plan, seed=4)
        msgs = [Message("x") for _ in range(50)]
        da = [(a.decide(0, 1, m, 0).drop, a.decide(1, 0, m, 0).drop) for m in msgs]
        db = [(b.decide(0, 1, m, 0).drop, b.decide(1, 0, m, 0).drop) for m in msgs]
        assert da == db

    def test_per_link_streams_independent(self):
        # Traffic on one link must not perturb another link's fault draws.
        plan = FaultPlan(links=(LinkFault(drop_rate=0.5),))
        a = self._injector(plan, seed=4)
        b = self._injector(plan, seed=4)
        msg = Message("x")
        seq_a = [a.decide(0, 1, msg, 0).drop for _ in range(20)]
        for _ in range(100):  # extra traffic on a different link
            b.decide(2, 3, msg, 0)
        seq_b = [b.decide(0, 1, msg, 0).drop for _ in range(20)]
        assert seq_a == seq_b

    def test_corrupted_copy_detected(self):
        msg = Message("x", {"a": 1})
        msg.stamp_checksum()
        assert msg.verify_checksum()
        bad = FaultInjector.corrupted_copy(msg)
        assert not bad.verify_checksum()
        assert msg.verify_checksum()  # the original is untouched

    def test_reorder_adds_bounded_delay(self):
        plan = FaultPlan(
            links=(LinkFault(reorder_rate=1.0, reorder_delay_us=1000),)
        )
        inj = self._injector(plan)
        d = inj.decide(0, 1, Message("x"), now=0)
        assert 1 <= d.extra_delay_us <= 1000
        assert inj.stats.reordered == 1

    def test_shared_decisions_cannot_be_mutated(self):
        # Clean and drop outcomes are shared instances; a caller that
        # could flip a field would corrupt every later decision.
        inj = self._injector(FaultPlan(links=(LinkFault(drop_rate=1.0, dst=(1,)),)))
        for dst in (1, 2):
            d = inj.decide(0, dst, Message("x"), now=0)
            assert d is inj.decide(0, dst, Message("x"), now=0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                d.drop = not d.drop
            assert not hasattr(d, "__dict__")


class _ReferenceInjector:
    """The pre-lane ``FaultInjector``: ``decide`` is kept verbatim (one
    registry lookup, one rule scan and up to four scalar draws per rule per
    call) as the naive reference the fault lanes are diffed against, plus
    the fixed delay and hold: the largest over the active rules."""

    @dataclasses.dataclass
    class Decision:
        drop: bool = False
        duplicate: bool = False
        corrupt: bool = False
        extra_delay_us: int = 0
        delay_us: int = 0

    def __init__(self, plan, rng):
        self.plan = plan
        self._rng = rng
        self.stats = FaultStats()
        self._duplicated_uids = set()
        self._corrupted_uids = set()

    def _stream(self, src, dst):
        return self._rng.get("faults", f"{src}->{dst}")

    def decide(self, src, dst, message, now):
        decision = self.Decision()
        active = [lf for lf in self.plan.links if lf.matches(src, dst, now)]
        if not active:
            return decision
        stream = self._stream(src, dst)
        for lf in active:
            if lf.drop_rate > 0.0 and stream.random() < lf.drop_rate:
                decision.drop = True
            if lf.duplicate_rate > 0.0 and stream.random() < lf.duplicate_rate:
                decision.duplicate = True
            if lf.corrupt_rate > 0.0 and stream.random() < lf.corrupt_rate:
                decision.corrupt = True
            if lf.reorder_rate > 0.0 and stream.random() < lf.reorder_rate:
                decision.extra_delay_us += int(
                    stream.integers(1, max(2, lf.reorder_delay_us + 1))
                )
            wait = lf.end_us - now if lf.hold else lf.delay_us
            decision.delay_us = max(decision.delay_us, wait)
        if decision.drop:
            self.stats.dropped += 1
            # A dropped message neither duplicates nor reorders.
            decision.duplicate = decision.corrupt = False
            decision.extra_delay_us = decision.delay_us = 0
            return decision
        if decision.duplicate:
            self.stats.duplicate_wire_events += 1
            if message.uid not in self._duplicated_uids:
                self._duplicated_uids.add(message.uid)
                self.stats.duplicated += 1
        if decision.corrupt:
            self.stats.corrupt_wire_events += 1
            if message.uid not in self._corrupted_uids:
                self._corrupted_uids.add(message.uid)
                self.stats.corrupted += 1
        if decision.extra_delay_us:
            self.stats.reordered += 1
        if decision.delay_us:
            self.stats.delayed += 1
        return decision


class TestFaultLanesMatchReference:
    """Differential: block-buffered lanes draw the same variates, in the
    same order, as one scalar draw per coin flip."""

    PIDS = (0, 1, 2)
    #: Decisions per link.  Plans with a base rule draw at least once per
    #: decision, so every buffered lane refills its 256-block >= 3 times.
    STEPS = 800
    STEP_US = 10

    @classmethod
    def _random_plan(cls, rnd, reorder):
        horizon = cls.STEPS * cls.STEP_US
        gst = horizon // 2

        def rate():
            return rnd.choice((0.0, 0.0, 0.05, 0.3, 1.0))

        def selector():
            if rnd.random() < 0.5:
                return None
            return tuple(rnd.sample(cls.PIDS, rnd.randint(1, 2)))

        def edge():
            # Multiples of the step, so ``now`` lands exactly on edges.
            return rnd.randrange(0, horizon, cls.STEP_US)

        rules = []
        if rnd.random() < 0.7:
            # The ledger's shape: one always-on rule for every link.
            rules.append(
                LinkFault(
                    drop_rate=rnd.choice((0.05, 0.15, 0.5)),
                    duplicate_rate=rate(),
                    corrupt_rate=rate(),
                )
            )
        while len(rules) < 3 and (not rules or rnd.random() < 0.6):
            start, end = sorted((edge(), edge()))
            rules.append(
                LinkFault(
                    drop_rate=rate(),
                    duplicate_rate=rate(),
                    corrupt_rate=rate(),
                    reorder_rate=rnd.choice((0.1, 0.5)) if reorder else 0.0,
                    reorder_delay_us=rnd.choice((0, 1, 500, 50_000)),
                    src=selector(),
                    dst=selector(),
                    start_us=start if rnd.random() < 0.6 else 0,
                    end_us=max(end, start + cls.STEP_US) if rnd.random() < 0.6 else None,
                )
            )
        for _ in range(rnd.randint(0, 2)):
            # The adversary's rules, ending by GST.
            start = rnd.randrange(0, gst, cls.STEP_US)
            end = rnd.randrange(start + cls.STEP_US, gst + 1, cls.STEP_US)
            if rnd.random() < 0.5:
                shape = dict(hold=True)
            else:
                shape = dict(delay_us=rnd.choice((1, 300, 40_000)))
            rules.insert(
                rnd.randint(0, len(rules)),
                LinkFault(src=selector(), dst=selector(), start_us=start, end_us=end, **shape),
            )
        return FaultPlan(links=tuple(rules), gst_us=gst)

    @pytest.mark.parametrize("reorder", [False, True])
    @pytest.mark.parametrize("seed", range(12))
    def test_identical_decisions_and_stats(self, seed, reorder):
        rnd = random.Random(seed * 2 + reorder)
        plan = self._random_plan(rnd, reorder)
        lanes = FaultInjector(plan, RngRegistry(seed))
        naive = _ReferenceInjector(plan, RngRegistry(seed))
        links = [(s, d) for s in self.PIDS for d in self.PIDS if s != d]
        # A small pool of frames: retransmissions re-decide the same uid.
        frames = [Message("x") for _ in range(40)]
        for step in range(self.STEPS):
            now = step * self.STEP_US
            rnd.shuffle(links)
            for src, dst in links:
                frame = rnd.choice(frames)
                got = lanes.decide(src, dst, frame, now)
                want = naive.decide(src, dst, frame, now)
                assert dataclasses.astuple(got) == dataclasses.astuple(want), (
                    step,
                    src,
                    dst,
                    plan,
                )
        assert lanes.stats.to_dict() == naive.stats.to_dict()

    def test_one_decision_can_need_more_than_a_block(self):
        # 100 rules x 3 coin flips > 256 pre-drawn uniforms.
        rule = LinkFault(drop_rate=0.001, duplicate_rate=0.01, corrupt_rate=0.01)
        plan = FaultPlan(links=(rule,) * 100)
        lanes = FaultInjector(plan, RngRegistry(2))
        naive = _ReferenceInjector(plan, RngRegistry(2))
        for _ in range(20):
            frame = Message("x")
            assert dataclasses.astuple(lanes.decide(0, 1, frame, 0)) == (
                dataclasses.astuple(naive.decide(0, 1, frame, 0))
            )
        assert lanes.stats.to_dict() == naive.stats.to_dict()

    def test_reorder_lanes_draw_scalar_only_where_the_plan_reorders(self):
        # The integers() reorder delay shares random()'s bitstream, so a
        # lane with a reorder rule pre-draws nothing; its neighbours do.
        plan = FaultPlan(
            links=(
                LinkFault(drop_rate=0.2),
                LinkFault(reorder_rate=0.5, src=(0,), start_us=10**9),
            )
        )
        rng = RngRegistry(5)
        inj = FaultInjector(plan, rng)
        untouched = RngRegistry(5)
        for src in (0, 1):
            inj.decide(src, 2, Message("x"), now=0)
            used = rng.get("faults", f"{src}->2").bit_generator.state
            fresh = untouched.get("faults", f"{src}->2")
            fresh.random(1 if src == 0 else 256)
            assert used == fresh.bit_generator.state


class TestChaosWithReorderDigest:
    def test_mixed_lanes_reproduce_the_pre_lane_run(self):
        # The ledger's chaos smoke shape plus a reorder rule on two
        # senders, so scalar and block-buffered lanes run side by side.
        # Digest and counters were pinned from the scalar-only injector
        # (PR 15) before the lanes were written.
        from repro.bench.suite import prefix_digest
        from repro.harness.config import ExperimentConfig
        from repro.harness.factory import build_cluster
        from repro.sim.engine import MILLISECONDS
        from repro.workload.spec import ClientGroup, WorkloadSpec

        plan = FaultPlan(
            links=(
                LinkFault(drop_rate=0.15, duplicate_rate=0.05, corrupt_rate=0.02),
                LinkFault(reorder_rate=0.03, src=(0, 1)),
            ),
            crashes=(
                CrashEvent(
                    pid=2,
                    crash_at_us=800 * MILLISECONDS,
                    recover_at_us=1200 * MILLISECONDS,
                ),
            ),
        )
        clients = WorkloadSpec(
            groups=tuple(
                ClientGroup(
                    name=f"main{pid}", client="closed", count=1, home=pid, window=4
                )
                for pid in (0, 1, 3)
            ),
            fairness=False,
        )
        config = ExperimentConfig(
            n_nodes=4,
            seed=1,
            batch_size=8,
            duration_us=2000 * MILLISECONDS,
            warmup_rounds=2,
            warmup_spacing_us=150 * MILLISECONDS,
            fault_plan=plan,
            reliable_channels=True,
            workload=clients,
        )
        cluster = build_cluster(config, protocol="lyra")
        result = cluster.run()
        assert prefix_digest(cluster) == (
            "7dddd0a9255fcdc7ba59f2d17ecaa1c5962b485d2f44abaca407fe41733439fa"
        )
        assert result.events_processed == 14405
        stats = result.fault_stats
        assert (stats["dropped"], stats["reordered"]) == (1528, 143)
        assert (stats["duplicate_wire_events"], stats["corrupt_wire_events"]) == (420, 177)
        assert (stats["frames_sent"], stats["retransmits"]) == (5547, 2828)


class TestChecksumIntegrity:
    """Frame checksum semantics the zero-copy broadcast path relies on."""

    def test_never_stamped_frame_verifies(self):
        # checksum == 0 means "never transmitted"; locally delivered or
        # hand-constructed frames must not be mistaken for corruption.
        assert Message("x").verify_checksum()
        assert Message("x", {"a": 1}, size=77).verify_checksum()

    def test_clone_preserves_stamped_checksum(self):
        msg = Message("x", {"a": 1})
        msg.stamp_checksum()
        dup = msg.clone()
        assert dup.checksum == msg.checksum
        assert dup.verify_checksum()
        assert dup.uid != msg.uid  # still a distinct frame

    def test_clone_of_unstamped_frame_stays_unstamped(self):
        assert Message("x").clone().checksum == 0


class TestCorruptionDelivery:
    """Corrupt frames through the network: detected at the receiver,
    independent of arrival order relative to clean copies."""

    def _net(self, plan=None, seed=7):
        from repro.net.network import Network
        from repro.sim.engine import Simulator
        from repro.sim.process import SimProcess

        sim = Simulator()
        inj = FaultInjector(plan, RngRegistry(seed)) if plan else None
        net = Network(sim, faults=inj)
        procs = [SimProcess(pid, sim) for pid in (0, 1, 2)]
        for p in procs:
            net.register(p)
        return sim, net, procs

    def test_corrupted_duplicate_before_original(self):
        # The damaged copy hits the receiver first; it must be dropped
        # without poisoning delivery of the clean original behind it.
        sim, net, procs = self._net()
        got = []
        procs[1].handler("x", lambda m, s: got.append(m))
        msg = Message("x", {"v": 1})
        msg.stamp_checksum()
        bad = FaultInjector.corrupted_copy(msg)
        net._deliver(net._link(0, 1), bad)  # corrupted duplicate arrives first
        net._deliver(net._link(0, 1), msg)  # then the clean original
        assert net.corrupt_dropped == 1
        assert len(got) == 1
        assert got[0].verify_checksum()

    def test_corrupt_and_duplicate_link_delivers_clean_copy(self):
        # corrupt_rate=1 damages the wire frame, duplicate_rate=1 sends a
        # clean clone: exactly one intact message must arrive.
        plan = FaultPlan(
            links=(LinkFault(corrupt_rate=1.0, duplicate_rate=1.0, dst=(1,)),)
        )
        sim, net, procs = self._net(plan)
        got = []
        procs[1].handler("x", lambda m, s: got.append(m))
        net.send(0, 1, Message("x", {"v": 1}))
        sim.run()
        assert net.corrupt_dropped == 1
        assert len(got) == 1
        assert got[0].verify_checksum()

    def test_broadcast_corruption_is_per_link(self):
        # Zero-copy fan-out shares one frame; a corrupting link must damage
        # only its own copy, never the shared original other links deliver.
        plan = FaultPlan(links=(LinkFault(corrupt_rate=1.0, dst=(1,)),))
        sim, net, procs = self._net(plan)
        got = {1: [], 2: []}
        procs[1].handler("x", lambda m, s: got[1].append(m))
        procs[2].handler("x", lambda m, s: got[2].append(m))
        net.broadcast(0, Message("x", {"v": 1}), include_self=False)
        sim.run()
        assert net.corrupt_dropped == 1
        assert got[1] == []  # the corrupted copy was dropped
        assert len(got[2]) == 1  # the shared frame arrived intact
        assert got[2][0].verify_checksum()
