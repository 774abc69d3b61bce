"""Unit tests for the discrete-event engine."""

import gc
import random
import weakref

import pytest

from repro.sim.engine import (
    _PRIORITY_BIAS,
    _SLOT_SHIFT,
    SECONDS,
    Event,
    Simulator,
    SimulationError,
)
from repro.sim.process import SimProcess
from tests.helpers import record_fields

#: Slot width of the calendar queue: the tests below aim at its edges.
SLOT = 1 << _SLOT_SHIFT


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

    def test_records_carry_their_call(self):
        sim = Simulator()
        got = []
        event = sim.schedule(5, got.append, ("single",), priority=2)
        assert isinstance(event, Event)
        assert (event.time, event.priority, event.seq) == (5, 2, 0)
        assert event.fn == got.append and event.args == ("single",)
        sim.schedule_at(7, got.append, ("absolute",))
        sim.schedule_block(
            [(9, got.append, ("block",)), (1, got.extend, (["a", "b"],))]
        )
        assert sim.post(8, got.append, ("posted",)) is None  # no handle
        sim.post(5, got.append, ("posted first",), -1)
        assert sim.pending == 6
        sim.run()
        assert got == [
            "a", "b", "posted first", "single", "absolute", "posted", "block"
        ]
        assert not event.cancelled  # having run is not being cancelled

    def test_handles_hash_by_identity(self):
        sim = Simulator()
        a, b = sim.schedule(1, print), sim.schedule(1, print)
        assert len({a, b, a}) == 2


class TestIntegerTime:
    """``time >> k`` needs integer times; a non-integer one must fail (or be
    coerced) where it is scheduled, not when its slot comes up."""

    def test_schedule_truncates_a_float_delay(self):
        sim = Simulator()
        event = sim.schedule(2.9, lambda: None)
        assert event.time == 2 and type(event.time) is int
        sim.run()
        assert sim.now == 2 and type(sim.now) is int

    @pytest.mark.parametrize("delay", [1.5, 3.0])
    def test_handle_free_entries_reject_a_float_delay_at_the_call(self, delay):
        sim = Simulator()
        ran = []
        with pytest.raises(SimulationError, match="integer microseconds"):
            sim.schedule_block(
                [(4, ran.append, ("ok",)), (delay, ran.append, ("bad",))]
            )
        with pytest.raises(SimulationError, match="integer microseconds"):
            sim.post(delay, ran.append, ("bad",))
        # What was queued before the bad item is intact and accounted for.
        assert sim.pending == 1
        sim.post(2, ran.append, ("posted",))
        sim.run()
        assert ran == ["posted", "ok"] and sim.pending == 0

    @pytest.mark.parametrize(
        "priority", [_PRIORITY_BIAS, -_PRIORITY_BIAS - 1, 1 << 40, -(1 << 40)]
    )
    def test_a_priority_outside_the_packed_key_is_refused(self, priority):
        """The key packs the priority into its low bits: one that does not
        fit is refused at the call, by every entry point, before it could
        alias a neighbouring time."""
        sim = Simulator()
        with pytest.raises(SimulationError, match="priority"):
            sim.schedule(1, print, priority=priority)
        with pytest.raises(SimulationError, match="priority"):
            sim.post(1, print, (), priority)
        with pytest.raises(SimulationError, match="priority"):
            sim.schedule_block([(1, print, ())], priority=priority)
        assert sim.pending == 0

    def test_the_edges_of_the_priority_range_order_correctly(self):
        sim = Simulator()
        order = []
        top, bottom = _PRIORITY_BIAS - 1, -_PRIORITY_BIAS
        sim.post(2, order.append, ("next instant",), bottom)
        sim.schedule(1, order.append, ("top",), priority=top)
        sim.schedule_block([(1, order.append, ("bottom",))], priority=bottom)
        # Delivery priorities are ``src + 1`` for pids below 2 ** 20.
        sim.post(1, order.append, ("largest pid",), 1 << 20)
        event = sim.schedule(1, order.append, ("zero",))
        assert (event.time, event.priority) == (1, 0)
        sim.run()
        assert order == ["bottom", "zero", "largest pid", "top", "next instant"]

    def test_a_float_receive_cost_fails_in_deliver_not_mid_run(self):
        class Sloppy(SimProcess):
            _RECEIVE_COSTS = {"m": 2.5}

        class M:
            kind = "m"

        sim = Simulator()
        with pytest.raises(SimulationError, match="integer microseconds"):
            Sloppy(0, sim).deliver(M(), 1)
        assert sim.pending == 0


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
        assert doomed[0].fn is None and doomed[2].fn is None
        sim.schedule(5, lambda: ran.append("kept"))
        assert sim.pending == 5  # cancelled events are counted until skipped
        if drive == "run":
            assert sim.run() == 2
        else:
            while sim.step():
                pass
        assert ran == ["kept"]
        assert doomed[1].fn is None
        assert sim.pending == 0 and sim.events_processed == 2

    @pytest.mark.parametrize("where", ["open slot", "future slot"])
    def test_cancel_drops_the_arguments_too(self, where):
        """The call lives in two fields now; a cancelled RTO must release
        the frame its ``args`` name before its slot drains."""

        class Frame:
            pass

        sim = Simulator()
        sim.schedule(3, sim.stop)
        sim.run()  # slot 0 is open and partly drained
        frame = Frame()
        ref = weakref.ref(frame)
        delay = 5 if where == "open slot" else 4 * SLOT
        event = sim.schedule(delay, lambda f: None, (frame,))
        del frame
        assert ref() is not None
        event.cancel()
        assert ref() is None and event.args is None and event.cancelled
        assert sim.pending == 1 and sim.run() == 0 and sim.pending == 0

    def test_a_consumed_record_is_released_before_its_slot_closes(self):
        class Payload:
            pass

        sim = Simulator()
        payload = Payload()
        ref = weakref.ref(payload)
        seen = []
        sim.schedule(2, lambda p: None, (payload,))
        sim.schedule(4, lambda: seen.append(ref()))  # same slot, later
        del payload
        sim.run()
        assert seen == [None]

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


class _NaiveEvent:
    """The reference's handle: same surface as :class:`Event`."""

    def __init__(self, time, priority, seq, fn, args):
        self.time, self.priority, self.seq = time, priority, seq
        self.fn, self.args = fn, args

    @property
    def cancelled(self):
        return self.fn is None

    def cancel(self):
        self.fn = self.args = None


class _NaiveSimulator:
    """Reference engine for the differential tests below: one flat list,
    fully re-sorted by ``(time, priority, insertion seq)`` before every
    single pop.  It knows nothing of slots, cursors or heaps."""

    def __init__(self):
        self.now = 0
        self.events_processed = 0
        self._seq = 0
        self._queue = []
        self._stopped = False

    @property
    def pending(self):
        return len(self._queue)

    @property
    def live(self):
        return sum(not ev.cancelled for ev in self._queue)

    def schedule(self, delay, fn, args=(), *, priority=0):
        event = _NaiveEvent(self.now + int(delay), priority, self._seq, fn, args)
        self._seq += 1
        self._queue.append(event)
        return event

    def post(self, delay, fn, args=(), priority=0):
        self.schedule(delay, fn, args, priority=priority)

    def schedule_block(self, items, *, priority=0):
        for delay, fn, args in items:
            self.schedule(delay, fn, args, priority=priority)

    def stop(self):
        self._stopped = True

    def step(self):
        return self.run(max_events=1) == 1

    def run(self, until=None, max_events=None):
        self._stopped = False
        executed = 0
        while max_events is None or executed < max_events:
            self._queue.sort(key=lambda ev: (ev.time, ev.priority, ev.seq))
            while self._queue and self._queue[0].cancelled:
                del self._queue[0]  # skipped, like the real loop, when reached
            head = self._queue[0] if self._queue else None
            if head is None:
                if until is not None and self.now < until:
                    self.now = until
                break
            if until is not None and head.time > until:
                self.now = until
                break
            del self._queue[0]
            self.now = head.time
            self.events_processed += 1
            head.fn(*head.args)
            executed += 1
            if self._stopped:
                break
        return executed


def _fuzz_schedule(sim, log, seed, events=400):
    """Drive ``sim`` through a seeded mix of ``schedule`` (with priorities),
    ``schedule_block``, cancellations, and callbacks that schedule again —
    including at delay 0, i.e. into the slot being drained."""
    rnd = random.Random(seed)
    rnd_inner = random.Random(seed + 1)
    cancellable = []

    def fire(tag):
        log.append((sim.now, tag))
        if rnd_inner.random() < 0.25:
            sim.schedule(
                rnd_inner.randrange(0, 5),
                fire,
                ((tag, "nested"),),
                priority=rnd_inner.choice([0, 0, 2]),
            )
        if cancellable and rnd_inner.random() < 0.05:
            cancellable.pop(rnd_inner.randrange(len(cancellable))).cancel()

    for i in range(events):
        delay = rnd.randrange(0, 50)
        if rnd.random() < 0.5:
            ev = sim.schedule(
                delay, fire, (("s", i),), priority=rnd.choice([0, 0, 1, 5])
            )
            if rnd.random() < 0.4:
                cancellable.append(ev)
        else:
            block = [
                (delay + j % 3, fire, (("blk", i, j),))
                for j in range(rnd.randrange(1, 5))
            ]
            sim.schedule_block(block, priority=rnd.choice([0, 0, 3]))
        if cancellable and rnd.random() < 0.2:
            cancellable.pop(rnd.randrange(len(cancellable))).cancel()


def _audit(sim):
    """Walk the real queue: check what the structure promises and return
    the number of live (queued, not cancelled) records."""
    assert sorted(sim._slot_heap) == sorted(sim._slots)
    assert sim._open_slot not in sim._slots
    assert all(rec is None for rec in sim._open[: sim._open_pos])
    rest = sim._open[sim._open_pos :]
    assert [rec[0] for rec in rest] == sorted(rec[0] for rec in rest)
    assert all(record_fields(rec)[0] >> _SLOT_SHIFT == sim._open_slot for rec in rest)
    queued = list(rest)
    for slot, records in sim._slots.items():
        assert records and all(
            record_fields(rec)[0] >> _SLOT_SHIFT == slot for rec in records
        )
        queued.extend(records)
    assert all(type(rec) is tuple for rec in queued)
    # The O(1) counter is the physical length, cancelled records included.
    assert sim.pending == len(queued)
    live = [record_fields(rec) for rec in queued]
    live = [fields for fields in live if fields[2] is not None]
    assert all(time >= sim.now for time, *_ in live)
    return len(live)


#: Delays on and around slot boundaries.
EDGE_DELAYS = (0, 0, 1, 2, SLOT - 1, SLOT, SLOT + 1, 2 * SLOT, 3 * SLOT - 1, 5 * SLOT + 3)
#: What a fired record may do besides logging itself.
ACTIONS = ("nothing", "nothing", "nest", "nest_low", "cancel", "stop")


def _play(sim, ops, seed):
    """Interpret ``ops`` against ``sim``; return everything observable: the
    execution log, and ``(what, returned, now, events_processed, live
    records)`` at every stop.  Live, not ``pending``: *when* a cancelled
    record stops counting (as the loop passes it) is not part of the
    contract — ``_audit`` holds ``pending`` to the queue's physical length."""
    log, stops, handles = [], [], []
    live = (lambda: _audit(sim)) if type(sim) is Simulator else (lambda: sim.live)
    rnd = random.Random(seed)  # drawn in execution order: a reordering
    # anywhere changes every later draw, and with it the log

    def fire(tag, action):
        log.append((sim.now, tag))
        assert len(log) < 20_000, "runaway script"
        if action == "nest":
            handles.append(
                sim.schedule(
                    rnd.choice(EDGE_DELAYS),
                    fire,
                    ((tag, "n"), rnd.choice(ACTIONS)),
                    priority=rnd.choice((0, 0, 2)),
                )
            )
        elif action == "nest_low":
            # Lower priority than anything running: at delay 0 it must cut
            # in front of what is already queued at this instant, and at
            # the distance to the boundary in front of the next slot's head.
            to_boundary = SLOT - sim.now % SLOT
            sim.post(0, fire, ((tag, "low0"), "nothing"), -1)
            sim.schedule_block(
                [(to_boundary, fire, ((tag, "lowB"), rnd.choice(ACTIONS)))],
                priority=-1,
            )
        elif action == "cancel" and handles:
            handles[rnd.randrange(len(handles))].cancel()
        elif action == "stop":
            sim.stop()

    for i, op in enumerate(ops):
        what = op[0]
        if what == "schedule":
            _, delay, priority, action = op
            handles.append(sim.schedule(delay, fire, (i, action), priority=priority))
        elif what == "block":
            _, delays, priority, action = op
            sim.schedule_block(
                [(d, fire, ((i, j), action)) for j, d in enumerate(delays)],
                priority=priority,
            )
        elif what == "cancel":
            # Queued in the open slot, queued in a future one, consumed or
            # cancelled already — whichever this handle is by now.
            if handles:
                handles[op[1] % len(handles)].cancel()
        elif what == "run":
            _, ahead, max_events = op
            until = None if ahead is None else sim.now + ahead
            returned = sim.run(until=until, max_events=max_events)
            stops.append((op, returned, sim.now, sim.events_processed, live()))
        else:
            assert what == "step"
            returned = sim.step()
            stops.append((op, returned, sim.now, sim.events_processed, live()))
    while True:  # drain; a "stop" action may interrupt any number of times
        returned = sim.run()
        stops.append(("drain", returned, sim.now, sim.events_processed, live()))
        if not sim.pending:
            return log, stops


def _check_script(ops, seed):
    real = _play(Simulator(), ops, seed)
    assert real == _play(_NaiveSimulator(), ops, seed)
    assert real[1][-1][-1] == 0  # drained: nothing pending
    return real


def _random_script(seed, length=120):
    rnd = random.Random(seed)
    ops = []
    for _ in range(length):
        r = rnd.random()
        if r < 0.45:
            ops.append(
                (
                    "schedule",
                    rnd.choice(EDGE_DELAYS) + rnd.choice((0, 0, SLOT // 2)),
                    rnd.choice((0, 0, 1, 5)),
                    rnd.choice(ACTIONS),
                )
            )
        elif r < 0.6:
            delays = [rnd.choice(EDGE_DELAYS) for _ in range(rnd.randrange(1, 5))]
            ops.append(("block", delays, rnd.choice((0, 3)), rnd.choice(ACTIONS)))
        elif r < 0.72:
            ops.append(("cancel", rnd.randrange(1000)))
        elif r < 0.9:
            # Horizons that cut through a slot, land on its edge, or fall
            # short of the next record; event budgets that end mid-slot.
            ops.append(
                (
                    "run",
                    rnd.choice((None, 0, 1, SLOT // 3, SLOT - 1, SLOT, 2 * SLOT + 5)),
                    rnd.choice((None, None, 1, 3)),
                )
            )
        else:
            ops.append(("step",))
    return ops


class TestAgainstNaiveReference:
    """The slotted queue (unsorted future slots, one sort when a slot
    opens, insort behind the cursor, lazy cancellation, a slot peeked ahead
    of the clock) must execute exactly the order the sort-everything
    reference does, and account for it identically at every stop."""

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

    @pytest.mark.parametrize("seed", range(40))
    def test_scripts_around_slot_boundaries(self, seed):
        log, stops = _check_script(_random_script(seed), seed)
        assert len(log) > 60

    def test_the_scripts_reach_every_edge(self):
        """The seeded scripts above do take the paths they are there for."""
        seen = set()
        for seed in range(40):
            log, stops = _check_script(_random_script(seed), seed)
            tags = [entry[1] for entry in log]
            seen.update(t[1] for t in tags if isinstance(t, tuple) and len(t) == 2)
            seen.update(t for t in tags if isinstance(t, str))
            for op, returned, *_ in stops:
                if op[0] == "run" and op[2] is not None and returned == op[2]:
                    seen.add("max_events hit")
                if op[0] == "step":
                    seen.add(f"step {returned}")
        assert {"low0", "lowB", "n", "max_events hit"} <= seen
        assert {"step True", "step False"} <= seen

    def test_lower_priority_at_delay_zero_cuts_in(self):
        """Into the open slot and into the next one."""
        for cls in (Simulator, _NaiveSimulator):
            sim, order = cls(), []

            def first():
                order.append("first")
                sim.schedule(0, order.append, ("cut in",), priority=-1)
                sim.schedule(
                    SLOT - sim.now, order.append, ("cut in next",), priority=-1
                )

            sim.schedule(SLOT - 2, first, priority=3)
            sim.schedule(SLOT - 2, order.append, ("second",), priority=3)
            sim.schedule(SLOT, order.append, ("next slot head",))
            sim.run()
            assert order == [
                "first", "cut in", "second", "cut in next", "next slot head"
            ], cls

    @pytest.mark.parametrize("drive", ["run", "step"])
    def test_until_mid_slot_then_an_earlier_slot_is_scheduled(self, drive):
        """``run(until=…)`` peeks the slot holding the next record; what is
        scheduled afterwards into an *earlier* slot must still run first."""
        for cls in (Simulator, _NaiveSimulator):
            sim, order = cls(), []
            sim.schedule(10, order.append, ("a",))
            sim.schedule(6 * SLOT + 5, order.append, ("far",))
            sim.schedule(6 * SLOT + 9, order.append, ("farther",))
            assert sim.run(until=SLOT + 7) == 1  # stops inside slot 1
            assert (sim.now, sim.pending) == (SLOT + 7, 2)
            sim.schedule(SLOT, order.append, ("near",))  # slot 2 < slot 6
            sim.schedule_block(
                [(5 * SLOT, order.append, ("same slot as far",))], priority=-1
            )
            cancelled = sim.schedule(3, order.append, ("never",))
            cancelled.cancel()
            assert sim.pending == 5
            if drive == "run":
                assert sim.run(until=6 * SLOT + 7) == 3
            else:
                assert [sim.step() for _ in range(3)] == [True] * 3
            assert order == ["a", "near", "far", "same slot as far"], cls
            assert sim.pending == 1
            sim.run()
            assert order[-1] == "farther" and sim.pending == 0


try:
    from hypothesis import example, given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - the seeded scripts above still run
    pass
else:
    _delay = st.one_of(
        st.sampled_from(EDGE_DELAYS),
        st.integers(0, 4 * SLOT),
        st.builds(lambda k, d: max(0, k * SLOT + d), st.integers(0, 6), st.integers(-2, 2)),
    )
    _action = st.sampled_from(ACTIONS)
    _op = st.one_of(
        st.tuples(st.just("schedule"), _delay, st.sampled_from((0, 1, 5)), _action),
        st.tuples(
            st.just("block"),
            st.lists(_delay, min_size=1, max_size=4),
            st.sampled_from((0, 3)),
            _action,
        ),
        st.tuples(st.just("cancel"), st.integers(0, 1000)),
        st.tuples(
            st.just("run"),
            st.one_of(st.none(), st.integers(0, 3 * SLOT)),
            st.one_of(st.none(), st.integers(1, 4)),
        ),
        st.tuples(st.just("step")),
    )

    @settings(max_examples=200, deadline=None)
    @given(ops=st.lists(_op, max_size=60), seed=st.integers(0, 2**16))
    def test_hypothesis_scripts_match_the_naive_reference(ops, seed):
        _check_script(ops, seed)

    #: Few distinct delays and priorities, so that equal keys are common:
    #: inside one slot, on both sides of a slot boundary and, from a
    #: callback at delay 0, in the slot being drained.
    _tie_delay = st.sampled_from((0, 1, SLOT - 1, SLOT, SLOT + 1, 3 * SLOT))
    _tie_add = st.tuples(
        st.just("add"),
        _tie_delay,
        st.sampled_from((-1, 0, 1)),
        st.sampled_from(("schedule", "post", "block")),
        st.lists(
            st.tuples(_tie_delay, st.sampled_from((-1, 0, 1))), max_size=3
        ),
    )
    # A horizon that stops inside a slot, ahead of its next record, so the
    # adds after it may land in an earlier slot than the one peeked.
    _tie_run = st.tuples(st.just("run"), st.integers(0, 3 * SLOT))

    def _play_ties(sim, ops):
        """Every record carries its scheduling rank; return the execution
        log of ``(time, priority, rank)``."""
        log, ranks = [], iter(range(1 << 30))

        def fire(rank, priority, nested):
            log.append((sim.now, priority, rank))
            for delay, nested_priority in nested:
                add(delay, nested_priority, "schedule", ())

        def add(delay, priority, how, nested):
            args = (next(ranks), priority, tuple(nested))
            if how == "schedule":
                sim.schedule(delay, fire, args, priority=priority)
            elif how == "post":
                sim.post(delay, fire, args, priority)
            else:
                sim.schedule_block([(delay, fire, args)], priority=priority)

        for op in ops:
            if op[0] == "add":
                add(*op[1:])
            else:
                sim.run(until=sim.now + op[1])
        sim.run()
        return log

    @settings(max_examples=200, deadline=None)
    @given(ops=st.lists(st.one_of(_tie_add, _tie_add, _tie_run), max_size=40))
    @example(
        ops=[
            ("add", 3 * SLOT, 0, "post", []),
            ("add", 3 * SLOT, 0, "schedule", [(0, 0), (0, 0)]),
            ("run", SLOT + 7),  # peeks slot 3, stops in slot 1
            ("add", SLOT, 0, "block", [(0, 0)]),  # slot 2: closes slot 3
            ("add", 2 * SLOT - 7, 0, "post", []),  # slot 3, equal key
            ("add", 2 * SLOT - 7, 0, "schedule", []),
        ]
    )
    def test_hypothesis_equal_keys_run_in_scheduling_order(ops):
        """Records hold no insertion counter: a stable sort, ``insort``
        after equal keys and the closed open slot going back ahead of later
        appends must still run equal ``(time, priority)`` keys in the order
        they were scheduled — and match the sort-everything reference."""
        log = _play_ties(Simulator(), ops)
        assert log == _play_ties(_NaiveSimulator(), ops)
        last_rank = {}
        for time, priority, rank in log:
            assert rank > last_rank.get((time, priority), -1)
            last_rank[time, priority] = rank
