"""Unit tests for timers, the CPU model, processes, and seed management."""

import numpy as np
import pytest

from repro.sim.engine import Simulator
from repro.sim.process import CpuModel, SimProcess
from repro.sim.rng import RngRegistry, derive_seed
from repro.sim.timers import Timer, TimerWheel


class TestTimer:
    def test_fires_after_delay(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(100)
        sim.run()
        assert fired == [100]
        assert timer.fired_count == 1

    def test_restart_supersedes(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(100)
        sim.schedule(50, lambda: timer.start(100))  # re-arm at t=50
        sim.run()
        assert fired == [150]

    def test_cancel(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(1))
        timer.start(10)
        timer.cancel()
        sim.run()
        assert fired == []
        assert not timer.armed

    def test_armed_state(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        assert not timer.armed
        timer.start(10)
        assert timer.armed
        sim.run()
        assert not timer.armed


class TestTimerWheel:
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

    def test_speed_scales_cost(self):
        sim = Simulator()
        cpu = CpuModel(sim, speed=2.0)
        assert cpu.acquire(100) == 50

    def test_zero_cost_passthrough(self):
        sim = Simulator()
        cpu = CpuModel(sim)
        assert cpu.acquire(0) == 0

    def test_negative_cost_rejected(self):
        sim = Simulator()
        cpu = CpuModel(sim)
        with pytest.raises(ValueError):
            cpu.acquire(-1)

    def test_invalid_speed(self):
        with pytest.raises(ValueError):
            CpuModel(Simulator(), speed=0)

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
        cpu = CpuModel(sim, speed=1.0)
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
