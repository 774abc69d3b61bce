"""Unit tests for timers, the CPU model, processes, and seed management."""

import numpy as np
import pytest

from repro.attacks.pompe_attacks import BlindCensoringLeaderFino
from repro.net.message import Message
from repro.sim.engine import Simulator
from repro.sim.process import CpuModel, SimProcess
from repro.sim.rng import RngRegistry, derive_seed
from repro.sim.timers import TimerWheel


class TestTimerWheel:
    def test_fires_after_delay(self):
        sim = Simulator()
        wheel = TimerWheel(sim)
        fired = []
        event = wheel.set("x", 100, fired.append, ("x",))
        assert (event.time, event.priority) == (100, 0)
        sim.run()
        assert fired == ["x"] and sim.now == 100

    def test_restart_supersedes(self):
        sim = Simulator()
        wheel = TimerWheel(sim)
        fired = []
        wheel.set("x", 100, lambda: fired.append(sim.now))
        sim.schedule(50, lambda: wheel.set("x", 100, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [150]

    def test_cancel(self):
        sim = Simulator()
        wheel = TimerWheel(sim)
        fired = []
        event = wheel.set("x", 10, fired.append, (1,))
        wheel.cancel("x")
        assert event.cancelled and event.fn is None and event.args is None
        sim.run()
        assert fired == []
        assert not wheel.armed("x")

    def test_armed_state(self):
        sim = Simulator()
        wheel = TimerWheel(sim)
        assert not wheel.armed("x")
        event = wheel.set("x", 10, lambda: None)
        assert wheel.armed("x")
        sim.run()
        assert not wheel.armed("x")
        assert not event.cancelled  # having fired is not being cancelled

    def test_named_timers_independent(self):
        sim = Simulator()
        wheel = TimerWheel(sim)
        fired = []
        wheel.set("a", 10, lambda: fired.append("a"))
        wheel.set("b", 20, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b"]

    def test_set_rearms_and_rebinds(self):
        sim = Simulator()
        wheel = TimerWheel(sim)
        fired = []
        wheel.set("x", 10, lambda: fired.append("old"))
        wheel.set("x", 20, lambda: fired.append("new"))
        sim.run()
        assert fired == ["new"]

    def test_cancel_by_name(self):
        sim = Simulator()
        wheel = TimerWheel(sim)
        fired = []
        wheel.set("x", 10, lambda: fired.append(1))
        wheel.cancel("x")
        sim.run()
        assert fired == []

    def test_close_cancels_all_and_blocks_new(self):
        sim = Simulator()
        wheel = TimerWheel(sim)
        fired = []
        wheel.set("x", 10, lambda: fired.append(1))
        wheel.close()
        sim.run()
        assert fired == []
        with pytest.raises(RuntimeError):
            wheel.set("y", 10, lambda: None)

    def test_armed_query(self):
        sim = Simulator()
        wheel = TimerWheel(sim)
        assert not wheel.armed("x")
        wheel.set("x", 10, lambda: None)
        assert wheel.armed("x")

    def test_fired_and_cancelled_timers_leave_the_wheel(self):
        """Protocols name timers per (instance, round): a wheel that kept
        spent timers would pin every instance its owner ever ran."""
        sim = Simulator()
        wheel = TimerWheel(sim)
        fired = []
        wheel.set("fires", 10, lambda: fired.append("fires"))
        wheel.set("cancelled", 10, lambda: fired.append("cancelled"))
        wheel.set("stays", 1000, lambda: fired.append("stays"))
        wheel.cancel("cancelled")
        sim.run(until=100)
        assert fired == ["fires"]
        assert set(wheel._timers) == {"stays"}
        assert not wheel.armed("fires") and not wheel.armed("cancelled")
        # Either name arms a fresh timer afterwards.
        wheel.set("fires", 10, lambda: fired.append("fires again"))
        wheel.set("cancelled", 20, lambda: fired.append("cancelled again"))
        assert wheel.armed("fires") and wheel.armed("cancelled")
        sim.run(until=200)
        assert fired == ["fires", "fires again", "cancelled again"]
        assert set(wheel._timers) == {"stays"}

    def test_periodic_callback_rearming_its_own_name_survives(self):
        sim = Simulator()
        wheel = TimerWheel(sim)
        ticks = []

        def tick():
            ticks.append(sim.now)
            wheel.set("tick", 10, tick)

        wheel.set("tick", 10, tick)
        sim.run(until=35)
        assert ticks == [10, 20, 30]
        assert wheel.armed("tick") and len(wheel._timers) == 1

    def test_close_empties_the_wheel(self):
        sim = Simulator()
        wheel = TimerWheel(sim)
        wheel.set("x", 10, lambda: None)
        wheel.close()
        assert not wheel._timers


class TestTimerWheelLifecycle:
    def test_reopen_allows_rearming(self):
        sim = Simulator()
        wheel = TimerWheel(sim)
        wheel.close()
        assert wheel.closed
        wheel.reopen()
        assert not wheel.closed
        fired = []
        wheel.set("x", 10, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [10]

    def test_cancelled_timers_stay_cancelled_across_reopen(self):
        sim = Simulator()
        wheel = TimerWheel(sim)
        fired = []
        wheel.set("x", 10, lambda: fired.append("pre-close"))
        wheel.close()  # cancels "x"
        wheel.reopen()
        sim.run()
        # Reopening must not resurrect timers armed before the close.
        assert fired == []
        assert not wheel.armed("x")

    def test_reopen_idempotent_on_open_wheel(self):
        sim = Simulator()
        wheel = TimerWheel(sim)
        fired = []
        wheel.set("x", 10, lambda: fired.append(1))
        wheel.reopen()  # no-op: wheel was never closed
        sim.run()
        assert fired == [1]


class TestCpuModel:
    def test_serialises_work(self):
        sim = Simulator()
        cpu = CpuModel(sim)
        assert cpu.acquire(100) == 100
        assert cpu.acquire(50) == 150  # queued behind the first job

    def test_idle_gap_resets_start(self):
        sim = Simulator()
        cpu = CpuModel(sim)
        cpu.acquire(10)
        sim.schedule(100, lambda: None)
        sim.run()
        assert cpu.acquire(10) == 110

    def test_zero_cost_passthrough(self):
        sim = Simulator()
        cpu = CpuModel(sim)
        assert cpu.acquire(0) == 0

    def test_negative_cost_rejected(self):
        sim = Simulator()
        cpu = CpuModel(sim)
        with pytest.raises(ValueError):
            cpu.acquire(-1)

    def test_busy_time_accumulates(self):
        sim = Simulator()
        cpu = CpuModel(sim)
        cpu.acquire(30)
        cpu.acquire(20)
        assert cpu.busy_time == 50


class TestCpuUtilisationWindow:
    def test_utilisation_over_window(self):
        sim = Simulator()
        cpu = CpuModel(sim)
        cpu.acquire(40)
        sim.schedule(100, lambda: None)
        sim.run()  # now = 100, core was busy 40 of it
        assert cpu.utilisation() == pytest.approx(0.4)

    def test_mark_window_resets_measurement(self):
        """Regression: utilisation must count only busy time inside the
        current window, not the whole run — a core saturated early and idle
        since must read 0 after a fresh mark."""
        sim = Simulator()
        cpu = CpuModel(sim)
        cpu.acquire(100)
        sim.schedule(100, cpu.mark_window)
        sim.schedule(200, lambda: None)
        sim.run()  # busy [0,100), marked at 100, idle [100,200)
        assert cpu.utilisation() == 0.0

    def test_queued_work_not_counted_until_it_runs(self):
        sim = Simulator()
        cpu = CpuModel(sim)
        cpu.acquire(1000)  # queued past now; none of it has run yet
        assert cpu.utilisation() == 0.0
        sim.schedule(500, lambda: None)
        sim.run()  # halfway through the job
        assert cpu.utilisation() == pytest.approx(1.0)

    def test_utilisation_clamped_to_one(self):
        sim = Simulator()
        cpu = CpuModel(sim)
        cpu.acquire(50)
        sim.schedule(50, lambda: None)
        sim.run()
        assert cpu.utilisation() <= 1.0

    def test_cancel_backlog_drops_unstarted_work(self):
        sim = Simulator()
        cpu = CpuModel(sim)
        cpu.acquire(500)
        cpu.cancel_backlog()
        assert cpu.free_at == sim.now
        assert cpu.busy_time == 0
        # Later work is not delayed by the abandoned backlog.
        assert cpu.acquire(10) == sim.now + 10


class TestSimProcess:
    def test_charge_with_callback_runs_at_completion(self):
        sim = Simulator()
        p = SimProcess(0, sim)
        done = []
        p.charge(100, lambda: done.append(sim.now))
        sim.run()
        assert done == [100]

    def test_crash_stops_timers(self):
        sim = Simulator()
        p = SimProcess(0, sim)
        fired = []
        p.timers.set("t", 10, lambda: fired.append(1))
        p.crash()
        sim.run()
        assert fired == []
        assert p.crashed


class TestCrashRecoveryLifecycle:
    def test_crash_during_in_flight_charge_suppresses_callback(self):
        sim = Simulator()
        p = SimProcess(0, sim)
        done = []
        p.charge(100, lambda: done.append(sim.now))
        sim.schedule(50, p.crash)  # crash while the work is in flight
        sim.run()
        assert done == []

    def test_recover_bumps_incarnation_and_drops_stale_callbacks(self):
        sim = Simulator()
        p = SimProcess(0, sim)
        done = []
        p.charge(100, lambda: done.append("stale"))
        sim.schedule(50, p.crash)
        sim.schedule(60, p.recover)  # back up before the charge completes
        sim.run()
        # The pre-crash callback belongs to incarnation 0 and must not
        # land in incarnation 1, even though the process is up again.
        assert done == []
        assert p.incarnation == 1
        assert not p.crashed

    def test_recovered_process_timers_work(self):
        sim = Simulator()
        p = SimProcess(0, sim)
        fired = []
        sim.schedule(10, p.crash)

        def bring_back():
            p.recover()
            p.timers.set("t", 10, lambda: fired.append(sim.now))

        sim.schedule(20, bring_back)
        sim.run()
        assert fired == [30]

    def test_timers_cancelled_by_crash_never_fire_after_recovery(self):
        sim = Simulator()
        p = SimProcess(0, sim)
        fired = []
        p.timers.set("t", 100, lambda: fired.append("zombie"))
        sim.schedule(10, p.crash)
        sim.schedule(20, p.recover)
        sim.run()
        assert fired == []

    def test_recover_noop_when_not_crashed(self):
        sim = Simulator()
        p = SimProcess(0, sim)
        p.recover()
        assert p.incarnation == 0

    def test_new_charges_after_recovery_complete(self):
        sim = Simulator()
        p = SimProcess(0, sim)
        done = []
        sim.schedule(10, p.crash)
        sim.schedule(20, p.recover)
        sim.schedule_at(30, lambda: p.charge(5, lambda: done.append(sim.now)))
        sim.run()
        assert done == [35]


class _Costed(SimProcess):
    """A process with a table cost, a fallback cost and a recording handler."""

    _RECEIVE_COSTS = {"table": 50, "free": 0}

    def __init__(self, pid, sim, **kwargs):
        super().__init__(pid, sim, **kwargs)
        self.handled = []
        self.fallback_calls = 0

    def _receive_cost(self, message):
        self.fallback_calls += 1
        return 7

    def _process(self, message, sender):
        self.handled.append((self.sim.now, message.kind, sender))


class TestReceivePath:
    """``SimProcess.deliver`` is the one CPU-queued receive path."""

    def test_default_process_dispatches_inline_to_on_message(self):
        sim = Simulator()
        p = SimProcess(0, sim)
        seen = []
        p.handler("k", lambda message, sender: seen.append((sim.now, sender)))
        sim.schedule(40, lambda: p.deliver(Message("k"), 3))
        sim.run()
        assert seen == [(40, 3)]
        assert p.messages_received == 1
        assert sim.events_processed == 1  # no completion event was queued
        assert p.cpu.busy_time == 0

    def test_table_cost_then_fallback_cost(self):
        sim = Simulator()
        p = _Costed(0, sim)
        p.deliver(Message("table"), 1)
        assert p.fallback_calls == 0  # the table answered
        p.deliver(Message("other"), 2)
        assert p.fallback_calls == 1
        assert p.handled == []  # both are queued behind the core
        sim.run()
        # Serialised: 50 µs, then 7 µs more.
        assert p.handled == [(50, "table", 1), (57, "other", 2)]
        assert p.cpu.busy_time == 57

    def test_zero_table_cost_is_not_a_miss(self):
        sim = Simulator()
        p = _Costed(0, sim)
        p.deliver(Message("free"), 1)
        assert p.fallback_calls == 0
        assert p.handled == [(0, "free", 1)]

    def test_idle_core_with_zero_cost_runs_inline_busy_core_defers(self):
        sim = Simulator()
        p = _Costed(0, sim)
        p.cpu.acquire(30)
        p.deliver(Message("free"), 1)
        assert p.handled == []
        sim.run()
        assert p.handled == [(30, "free", 1)]

    def test_crashed_process_drops_and_does_not_count(self):
        sim = Simulator()
        p = _Costed(0, sim)
        p.crash()
        p.deliver(Message("table"), 1)
        sim.run()
        assert p.handled == [] and p.messages_received == 0

    def test_completion_does_not_land_in_next_incarnation(self):
        sim = Simulator()
        p = _Costed(0, sim)
        p.deliver(Message("table"), 1)  # completes at t=50
        sim.schedule(10, p.crash)
        sim.schedule(20, p.recover)
        sim.run()
        assert p.handled == []
        p.deliver(Message("table"), 1)  # the new incarnation still receives
        sim.run()
        assert [kind for _, kind, _ in p.handled] == ["table"]


def _lyra_node():
    from tests.test_node_unit import build_pair

    return build_pair()[1][0]


def _pompe_node():
    from repro.baselines.pompe import PompeConfig, PompeNode
    from repro.crypto.signatures import KeyRegistry
    from repro.crypto.threshold import ThresholdScheme

    return PompeNode(
        0,
        Simulator(),
        n=4,
        f=1,
        registry=KeyRegistry(5),
        threshold=ThresholdScheme(3, 4, seed=5),
        config=PompeConfig(),
    )


def _fino_node(cls=None):
    from repro.baselines.fino import FinoNode
    from repro.core.obfuscation import HashCommitObfuscation
    from repro.crypto.signatures import KeyRegistry
    from repro.crypto.threshold import ThresholdScheme

    return (cls or FinoNode)(
        0,
        Simulator(),
        n=4,
        f=1,
        registry=KeyRegistry(5),
        threshold=ThresholdScheme(3, 4, seed=5),
        obfuscation=HashCommitObfuscation(3, 4, seed=5),
    )


class TestEveryNodeTypeSharesTheReceivePath:
    """A CPU completion queued before ``crash()``/``recover()`` must not
    fire in the new incarnation — on any node type.  The baselines used to
    schedule a bare closure with no guard."""

    NODES = {
        "lyra": _lyra_node,
        "pompe": _pompe_node,
        "fino": _fino_node,
        "fino-censoring-leader": lambda: _fino_node(BlindCensoringLeaderFino),
    }

    @pytest.mark.parametrize("name", sorted(NODES))
    def test_inherits_deliver_unchanged(self, name):
        node = self.NODES[name]()
        assert type(node).deliver is SimProcess.deliver
        assert type(node)._process_deferred is SimProcess._process_deferred

    @pytest.mark.parametrize("name", sorted(NODES))
    def test_stale_completion_never_reaches_the_handler(self, name):
        node = self.NODES[name]()
        sim = node.sim
        handled = []
        # Any kind with a non-zero cost queues a completion.  Only this
        # frame is recorded: a recovering Lyra node also hears its peers.
        message = Message("hs.vote" if name != "lyra" else "lyra.vote1", {})
        node._process = lambda m, sender: m is message and handled.append(m.kind)
        node.deliver(message, 1)
        assert handled == [] and sim.pending == 1
        node.crash()
        node.recover()
        sim.run(until=1_000_000)
        assert handled == []
        assert node.incarnation == 1
        # Same message, new incarnation: handled once its cost is paid.
        node.deliver(message, 1)
        sim.run(until=2_000_000)
        assert handled == [message.kind]

    def test_baseline_tables_hold_the_constant_kinds(self):
        from repro.baselines.fino import REVEAL_KIND
        from repro.baselines.hotstuff import PHASE_KIND, VOTE_KIND
        from repro.baselines.pompe import ORDER_TS_KIND
        from repro.crypto.cost import DEFAULT_COSTS as costs

        assert _pompe_node()._RECEIVE_COSTS == {
            ORDER_TS_KIND: costs.verify_us,
            VOTE_KIND: costs.share_verify_us,
            PHASE_KIND: costs.threshold_verify_us,
        }
        assert _fino_node()._RECEIVE_COSTS == {
            VOTE_KIND: costs.share_verify_us,
            PHASE_KIND: costs.threshold_verify_us,
            REVEAL_KIND: costs.open_commit_us,
        }
        # Per-instance: the class-level default stays empty.
        assert SimProcess._RECEIVE_COSTS == {}


class TestRng:
    def test_derive_seed_deterministic(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")

    def test_derive_seed_label_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_streams_are_stable_objects(self):
        reg = RngRegistry(5)
        g1 = reg.get("net")
        g2 = reg.get("net")
        assert g1 is g2

    def test_streams_independent(self):
        reg = RngRegistry(5)
        a = reg.get("a").integers(0, 1 << 30, size=10)
        b = reg.get("b").integers(0, 1 << 30, size=10)
        assert not np.array_equal(a, b)

    def test_same_seed_same_draws(self):
        a = RngRegistry(9).get("x").integers(0, 1 << 30, size=20)
        b = RngRegistry(9).get("x").integers(0, 1 << 30, size=20)
        assert np.array_equal(a, b)

    def test_fork_creates_disjoint_root(self):
        reg = RngRegistry(3)
        child = reg.fork("child")
        assert child.root_seed != reg.root_seed
