"""Unit tests for the discrete-event engine."""

import gc
import random

import pytest

from repro.sim.engine import (
    MILLISECONDS,
    SECONDS,
    Event,
    Simulator,
    SimulationError,
)


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(30, lambda: order.append("c"))
        sim.schedule(10, lambda: order.append("a"))
        sim.schedule(20, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self):
        sim = Simulator()
        order = []
        for name in "abcde":
            sim.schedule(100, lambda name=name: order.append(name))
        sim.run()
        assert order == list("abcde")

    def test_priority_beats_insertion_order(self):
        sim = Simulator()
        order = []
        sim.schedule(100, lambda: order.append("late"), priority=1)
        sim.schedule(100, lambda: order.append("early"), priority=0)
        sim.run()
        assert order == ["early", "late"]

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(250, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [250]
        assert sim.now == 250

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(500, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [500]

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5, lambda: None)

    def test_nested_scheduling_from_callback(self):
        sim = Simulator()
        order = []

        def first():
            order.append(("first", sim.now))
            sim.schedule(5, lambda: order.append(("second", sim.now)))

        sim.schedule(10, first)
        sim.run()
        assert order == [("first", 10), ("second", 15)]


class TestCancellation:
    def test_cancelled_event_does_not_run(self):
        sim = Simulator()
        ran = []
        event = sim.schedule(10, lambda: ran.append(1))
        event.cancel()
        sim.run()
        assert ran == []

    def test_drain_cancels_many(self):
        sim = Simulator()
        ran = []
        events = [sim.schedule(i, lambda: ran.append(1)) for i in range(1, 6)]
        sim.drain(events)
        sim.run()
        assert ran == []

    @pytest.mark.parametrize("drive", ["run", "step"])
    def test_cancel_drops_the_callback_at_once(self, drive):
        """A cancelled event must not keep its closure (a frame, an
        instance) alive until its deadline, and neither loop may call the
        ``None`` left behind — in the head bucket or a later one, cancelled
        before the run or by an earlier event of the same bucket."""
        sim = Simulator()
        ran = []
        doomed = [sim.schedule(t, lambda: ran.append("doomed")) for t in (5, 5, 9)]
        sim.schedule(5, lambda: doomed[1].cancel(), priority=-1)
        doomed[0].cancel()
        doomed[2].cancel()
        assert doomed[0].callback is None and doomed[2].callback is None
        sim.schedule(5, lambda: ran.append("kept"))
        assert sim.pending == 5  # cancelled events are counted until skipped
        if drive == "run":
            assert sim.run() == 2
        else:
            while sim.step():
                pass
        assert ran == ["kept"]
        assert doomed[1].callback is None
        assert sim.pending == 0 and sim.events_processed == 2

    def test_run_suspends_the_cyclic_collector_and_restores_it(self):
        sim = Simulator()
        seen = []
        sim.schedule(1, lambda: seen.append(gc.isenabled()))
        assert gc.isenabled()
        sim.run()
        assert seen == [False] and gc.isenabled()
        gc.disable()
        try:
            sim.schedule(1, lambda: seen.append(gc.isenabled()))
            sim.run()
            assert seen == [False, False] and not gc.isenabled()
        finally:
            gc.enable()


class TestRunControl:
    def test_run_until_stops_clock_at_bound(self):
        sim = Simulator()
        ran = []
        sim.schedule(100, lambda: ran.append("in"))
        sim.schedule(300, lambda: ran.append("out"))
        sim.run(until=200)
        assert ran == ["in"]
        assert sim.now == 200
        sim.run()
        assert ran == ["in", "out"]

    def test_run_until_with_empty_queue_advances_clock(self):
        sim = Simulator()
        sim.run(until=1 * SECONDS)
        assert sim.now == 1 * SECONDS

    def test_max_events(self):
        sim = Simulator()
        ran = []
        for i in range(10):
            sim.schedule(i + 1, lambda i=i: ran.append(i))
        executed = sim.run(max_events=3)
        assert executed == 3
        assert ran == [0, 1, 2]

    def test_stop_from_callback(self):
        sim = Simulator()
        ran = []
        sim.schedule(1, lambda: (ran.append(1), sim.stop()))
        sim.schedule(2, lambda: ran.append(2))
        sim.run()
        assert ran == [1]

    def test_not_reentrant(self):
        sim = Simulator()
        errors = []

        def nested():
            try:
                sim.run()
            except SimulationError:
                errors.append(True)

        sim.schedule(1, nested)
        sim.run()
        assert errors == [True]

    def test_step_returns_false_when_empty(self):
        sim = Simulator()
        assert sim.step() is False

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(i, lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_determinism_across_runs(self):
        def run_once():
            sim = Simulator()
            order = []
            for i in range(50):
                sim.schedule((i * 7) % 13, lambda i=i: order.append(i))
            sim.run()
            return order

        assert run_once() == run_once()


class _NaiveSimulator:
    """Reference engine for the fuzz below: one flat list, fully re-sorted
    by ``(time, priority, insertion seq)`` before every single pop."""

    def __init__(self):
        self.now = 0
        self.events_processed = 0
        self._seq = 0
        self._queue = []
        self._hooks = []
        self._dirty = False

    def schedule(self, delay, callback, *, priority=0):
        self._seq += 1
        event = Event(self.now + delay, priority, self._seq, callback)
        self._queue.append(event)
        return event

    def schedule_block(self, items, *, priority=0):
        for delay, callback in items:
            self.schedule(delay, callback, priority=priority)

    def add_end_of_instant_hook(self, hook):
        self._hooks.append(hook)

    def mark_instant_dirty(self):
        self._dirty = True

    def run(self, until):
        while True:
            live = [ev for ev in self._queue if not ev.cancelled]
            live.sort(key=lambda ev: (ev.time, ev.priority, ev.seq))
            if self._dirty and (not live or live[0].time > self.now):
                self._dirty = False
                for hook in self._hooks:
                    hook()
            elif not live or live[0].time > until:
                self.now = until
                return
            else:
                self._queue.remove(live[0])
                self.now = live[0].time
                self.events_processed += 1
                live[0].callback()


def _fuzz_schedule(sim, log, seed, events=400):
    """Drive ``sim`` through a seeded mix of ``schedule`` (with priorities),
    ``schedule_block``, cancellations, and callbacks that schedule again —
    including at delay 0, i.e. into the bucket being drained."""
    rnd = random.Random(seed)
    rnd_inner = random.Random(seed + 1)
    cancellable = []

    def make_cb(tag):
        def cb():
            log.append((sim.now, tag))
            if rnd_inner.random() < 0.25:
                sim.schedule(
                    rnd_inner.randrange(0, 5),
                    make_cb((tag, "nested")),
                    priority=rnd_inner.choice([0, 0, 2]),
                )
            if cancellable and rnd_inner.random() < 0.05:
                cancellable.pop(rnd_inner.randrange(len(cancellable))).cancel()

        return cb

    for i in range(events):
        delay = rnd.randrange(0, 50)
        if rnd.random() < 0.5:
            ev = sim.schedule(
                delay, make_cb(("s", i)), priority=rnd.choice([0, 0, 1, 5])
            )
            if rnd.random() < 0.4:
                cancellable.append(ev)
        else:
            block = [
                (delay + j % 3, make_cb(("blk", i, j)))
                for j in range(rnd.randrange(1, 5))
            ]
            sim.schedule_block(block, priority=rnd.choice([0, 0, 3]))
        if cancellable and rnd.random() < 0.2:
            cancellable.pop(rnd.randrange(len(cancellable))).cancel()


class TestAgainstNaiveReference:
    """The bucketed queue (append fast path, insort slow path, inlined
    bucket drain, lazy cancellation) must execute exactly the order the
    sort-everything reference does."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 17])
    def test_mixed_schedule_block_cancel_nested(self, seed):
        outcomes = []
        for cls in (Simulator, _NaiveSimulator):
            sim, log = cls(), []
            _fuzz_schedule(sim, log, seed)
            sim.run(until=20)  # a horizon that cuts through the schedule
            mid = (len(log), sim.now)
            sim.run(until=200)
            outcomes.append((log, mid, sim.now, sim.events_processed))
        assert outcomes[0] == outcomes[1]
        assert len(outcomes[0][0]) > 400  # nested callbacks actually ran

    @pytest.mark.parametrize("seed", [5, 6])
    def test_end_of_instant_hooks(self, seed):
        outcomes = []
        for cls in (Simulator, _NaiveSimulator):
            sim, log = cls(), []

            def hook(sim=sim, log=log):
                log.append((sim.now, "hook"))
                if sim.now == 3:
                    # Hooks may emit work into the instant they close.
                    sim.schedule(0, lambda: log.append((sim.now, "flushed")))

            sim.add_end_of_instant_hook(hook)
            _fuzz_schedule(sim, log, seed)
            for t in (0, 3, 10, 200):
                sim.schedule(t, sim.mark_instant_dirty)
            sim.run(until=200)
            outcomes.append((log, sim.now, sim.events_processed))
        assert outcomes[0] == outcomes[1]
        hooks = [entry for entry in outcomes[0][0] if entry[1] == "hook"]
        # The t=200 mark sits on the ``until`` horizon: still flushed.
        assert [t for t, _ in hooks] == [0, 3, 10, 200]
        assert (3, "flushed") in outcomes[0][0]
