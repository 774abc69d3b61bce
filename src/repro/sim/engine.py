"""Core discrete-event simulator.

The queue is a **slotted calendar of call-carrying records**.  A record is
the tuple ``(key, fn, args)``; the run loop calls ``fn(*args)``, so the
per-message hot sites queue a bound method and a tuple instead of
allocating a closure.  ``key`` packs the record's time and priority into
one int, ``(time << _PRIORITY_BITS) | (priority + _PRIORITY_BIAS)``, so
records order by ``(time, priority)`` through one int comparison.  A
cancellable record — one :meth:`Simulator.schedule` made — is
``(key, None, handle)``: its call lives in the :class:`Event` handle, where
:meth:`Event.cancel` can drop it.

Records carry no insertion counter, yet equal keys still run in the order
they were scheduled — essential for reproducible distributed protocol
runs — because every path that orders records is stable:

- a future slot's records are appended in scheduling order, and the slot
  is ordered by a stable sort on ``key`` alone;
- a record scheduled into the slot being drained is ``insort``-ed after
  the records with an equal key;
- when an earlier slot preempts the open one, the open slot's remaining
  records go back ahead of anything appended to that slot later.

A sort never compares past ``key``, so it never reaches ``fn``.  The
global count of scheduled records survives as the O(1) :attr:`pending`
bookkeeping and as :attr:`Event.seq`.

Virtual time is cut into slots of ``2 ** _SLOT_SHIFT`` microseconds.  A
record for a *future* slot is appended, unsorted, to that slot's list; a
binary heap holds only the indices of the non-empty slots.  When a slot
becomes the head it is ordered by one C-level ``list.sort()`` and drained
through a cursor; a record scheduled into the slot being drained is
``insort``-ed behind the consumed prefix.  Scheduling therefore costs an
append (plus one heap push per *slot*, not per timestamp), and the
comparisons all happen inside ``sort()`` over a short, mostly pre-sorted
list — none of the per-event costs grows with the depth of the queue,
which in Lyra's all-to-all phases is n² (≈ 25 k records at n = 32, ≈ 945 k
at n = 100).  ``lyra_n32_closed`` at seed 1 pushes 22 663 slot indices
for its 1 947 898 processed events, and a quarter of the records — CPU
completions a few µs ahead — are insorted into the open slot.

Time is an integer number of microseconds.  Integer time avoids the
floating-point drift that makes long simulations diverge between platforms,
and a microsecond grain is fine enough to express both WAN latencies
(tens of milliseconds) and crypto costs (tens of microseconds).
"""

from __future__ import annotations

import gc
from bisect import insort
from heapq import heappop, heappush
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

# Convenience time units, all expressed in the simulator's integer microsecond
# grain.  ``5 * MILLISECONDS`` reads better than ``5000``.
MICROSECONDS = 1
MILLISECONDS = 1_000
SECONDS = 1_000_000

#: log2 of the slot width in microseconds (128 µs).  A constant, not a knob:
#: on the two Lyra ledger workloads that differ most in queue depth, shifts
#: 6, 7 and 8 read the same and 4 and 12 are 1–7 % slower (EXPERIMENTS.md
#: "Constants measured, not knobs") — narrower slots push more indices
#: through the heap, wider ones sort longer lists and insort deeper into
#: the open one.
_SLOT_SHIFT = 7

#: Low bits of a record's key that hold its priority, biased to be
#: non-negative: priorities run over ``[-_PRIORITY_BIAS, _PRIORITY_BIAS)``.
#: The network delivers at priority ``src + 1`` and pids stay below
#: ``2 ** 20`` (its packed pid pairs), so every delivery priority fits.
_PRIORITY_BITS = 22
_PRIORITY_BIAS = 1 << (_PRIORITY_BITS - 1)
_PRIORITY_MASK = (1 << _PRIORITY_BITS) - 1
#: A key's slot is ``key >> _KEY_SLOT_SHIFT``.
_KEY_SLOT_SHIFT = _SLOT_SHIFT + _PRIORITY_BITS
#: The sort and insort key of a record.
_KEY = itemgetter(0)

#: Stand-in for "no ``until`` / no ``max_events``": an int beyond any run,
#: so the loop compares ints with ints.
_NEVER = 1 << 62


class SimulationError(RuntimeError):
    """Raised for misuse of the simulator (time travel, re-running, ...)."""


def _bad_priority(priority: Any) -> SimulationError:
    return SimulationError(
        f"priority {priority!r} is not an int in "
        f"[{-_PRIORITY_BIAS}, {_PRIORITY_BIAS})"
    )


def _biased(priority: Any) -> int:
    """``priority`` as the key's low bits; one that does not fit is
    refused rather than aliased into a neighbouring time."""
    if type(priority) is not int or not (
        -_PRIORITY_BIAS <= priority < _PRIORITY_BIAS
    ):
        raise _bad_priority(priority)
    return priority + _PRIORITY_BIAS


def _bad_time(delay: Any) -> SimulationError:
    return SimulationError(
        f"event times are integer microseconds (got a delay of {delay!r})"
    )


class Event:
    """The cancellable handle :meth:`Simulator.schedule` returns; the
    queued record ``(key, None, handle)`` points to it.

    Cancellation is O(1) and lazy — the record stays queued and is skipped
    when reached — but it drops ``fn`` *and* ``args`` at once, so a
    cancelled timer does not keep what they reference (a frame, a
    consensus instance) alive until its deadline.  ``fn is None`` is the
    cancelled mark; an event that has run keeps its call and does not count
    as cancelled.
    """

    __slots__ = ("_key", "seq", "fn", "args")

    def __init__(
        self, key: int, seq: int, fn: Callable[..., None], args: Tuple[Any, ...]
    ) -> None:
        self._key = key
        #: Records scheduled before this one, handles or not.
        self.seq = seq
        self.fn: Optional[Callable[..., None]] = fn
        self.args: Optional[Tuple[Any, ...]] = args

    @property
    def time(self) -> int:
        return self._key >> _PRIORITY_BITS

    @property
    def priority(self) -> int:
        return (self._key & _PRIORITY_MASK) - _PRIORITY_BIAS

    @property
    def cancelled(self) -> bool:
        return self.fn is None

    def cancel(self) -> None:
        self.fn = self.args = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Event(time={self.time}, priority={self.priority}, "
            f"seq={self.seq}, cancelled={self.fn is None})"
        )


class Simulator:
    """Deterministic discrete-event loop with an integer virtual clock."""

    def __init__(self) -> None:
        self._now: int = 0
        #: slot index -> records of that (future) slot, in insertion order.
        self._slots: Dict[int, List[tuple]] = {}
        #: Min-heap of the slot indices present in ``_slots``.
        self._slot_heap: List[int] = []
        #: The open slot: sorted, drained through ``_open_pos``; entries
        #: before the cursor are consumed (and cleared to ``None``).  Only
        #: the open slot is ever sorted or partly consumed.
        self._open: List[Optional[tuple]] = []
        self._open_pos: int = 0
        self._open_slot: int = -1
        #: Records scheduled so far — the next handle's ``seq``.
        self._seq: int = 0
        self._running = False
        self._stopped = False
        self._processed: int = 0
        #: Cancelled records the loop has passed over.
        self._skipped: int = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current virtual time in microseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (for profiling/metrics)."""
        return self._processed

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones that
        have not been skipped yet).  O(1): every record scheduled is
        executed, skipped or still queued."""
        return self._seq - self._processed - self._skipped

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: int,
        fn: Callable[..., None],
        args: Tuple[Any, ...] = (),
        *,
        priority: int = 0,
    ) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` microseconds from now.

        ``priority`` breaks ties at equal timestamps: lower runs first.
        Returns the :class:`Event`, whose :meth:`Event.cancel` removes it.
        ``delay`` is truncated to an integer.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        key = ((self._now + int(delay)) << _PRIORITY_BITS) | _biased(priority)
        seq = self._seq
        self._seq = seq + 1
        event = Event(key, seq, fn, args)
        self._insert((key, None, event))
        return event

    def post(
        self,
        delay: int,
        fn: Callable[..., None],
        args: Tuple[Any, ...] = (),
        priority: int = 0,
    ) -> None:
        """:meth:`schedule` for the per-message hot sites, which never
        cancel: no handle and fewer checks — ``delay`` must be a
        non-negative integer by construction; a non-integer one, like a
        priority out of range, raises :class:`SimulationError`.  Worth its
        duplication only because it is measured: −5.8 % wall on
        ``lyra_n32_closed`` with the receive path on it (EXPERIMENTS.md
        "Constants measured, not knobs")."""
        if not -_PRIORITY_BIAS <= priority < _PRIORITY_BIAS:
            raise _bad_priority(priority)
        try:
            key = ((self._now + delay) << _PRIORITY_BITS) | (
                priority + _PRIORITY_BIAS
            )
        except TypeError:
            raise _bad_time(delay) from None
        self._insert((key, fn, args))
        self._seq += 1

    def schedule_block(self, items: Iterable[tuple], *, priority: int = 0) -> None:
        """:meth:`post` many ``(delay, fn, args)`` triples at one
        ``priority`` (broadcast fan-out), the per-call bookkeeping hoisted
        out of the loop.  Same contract: no handles, non-negative integer
        delays, a non-integer one raises :class:`SimulationError` here
        rather than surfacing mid-run."""
        base = (self._now << _PRIORITY_BITS) | _biased(priority)
        seq = self._seq
        insert = self._insert
        try:
            for delay, fn, args in items:
                try:
                    key = base + (delay << _PRIORITY_BITS)
                except TypeError:
                    raise _bad_time(delay) from None
                insert((key, fn, args))
                seq += 1
        finally:
            self._seq = seq

    def _insert(self, record: tuple) -> None:
        """Queue ``record``: append it to its (future) slot, or insort it
        behind the cursor of the open one, after its equal keys."""
        slot = record[0] >> _KEY_SLOT_SHIFT
        open_slot = self._open_slot
        if slot == open_slot:
            insort(self._open, record, lo=self._open_pos, key=_KEY)
            return
        if slot < open_slot:
            self._close_open_slot()
        bucket = self._slots.get(slot)
        if bucket is None:
            self._slots[slot] = [record]
            heappush(self._slot_heap, slot)
        else:
            bucket.append(record)

    def schedule_at(
        self,
        when: int,
        fn: Callable[..., None],
        args: Tuple[Any, ...] = (),
        *,
        priority: int = 0,
    ) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at t={when} (now is {self._now})"
            )
        return self.schedule(when - self._now, fn, args, priority=priority)

    def _close_open_slot(self) -> None:
        """Put the open slot's remaining records back among the future
        slots.  Needed only when the loop has peeked a slot ahead of the
        clock (``run(until=…)`` stopped before its first record) and
        something is then scheduled into an earlier slot: the heap, not
        the cursor, must decide what runs next.  The remaining records
        were all scheduled before anything appended to their slot from
        now on, and they stay ahead of it."""
        rest = self._open[self._open_pos :]
        if rest:
            self._slots[self._open_slot] = rest
            heappush(self._slot_heap, self._open_slot)
        self._open = []
        self._open_pos = 0
        self._open_slot = -1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next event.  Returns False when the queue is empty."""
        return self.run(max_events=1) == 1

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue empties, ``until`` passes, or
        ``max_events`` have executed.

        ``until`` is an absolute virtual time; on return ``now`` is
        ``min(until, time of last event)``.  Returns the number of events
        executed by this call.

        The cyclic garbage collector is suspended for the duration (and
        restored on exit): the loop allocates millions of short-lived
        records and messages, and repeated full-heap scans over them are
        pure wall-clock cost.  That is only sound while the hot path
        frees everything by reference count — ``tests/test_memory.py``
        holds every protocol to it.  Virtual time is unaffected.
        """
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        self._running = True
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        self._stopped = False
        executed = 0
        horizon = _NEVER if until is None else until
        limit = _NEVER if max_events is None else max_events
        # Keys at the current instant are at most ``now_top``.
        now_top = (self._now << _PRIORITY_BITS) | _PRIORITY_MASK
        # ``open_``/``pos`` mirror ``_open``/``_open_pos``.  The cursor is
        # written back before a callback runs; a callback runs at a time
        # inside the open slot, so it can only insort into the list, never
        # replace it.
        open_ = self._open
        pos = self._open_pos
        try:
            while executed < limit:
                try:
                    record = open_[pos]
                except IndexError:
                    # The open slot is exhausted.
                    heap = self._slot_heap
                    if not heap:
                        if self._now < horizon < _NEVER:
                            self._now = horizon
                        break
                    self._open_slot = heappop(heap)
                    open_ = self._open = self._slots.pop(self._open_slot)
                    open_.sort(key=_KEY)
                    pos = self._open_pos = 0
                    continue
                key, fn, args = record
                if fn is None:  # a handle's record: the call is in ``args``
                    fn = args.fn
                    if fn is None:  # cancelled
                        open_[pos] = None
                        pos += 1
                        self._open_pos = pos
                        self._skipped += 1
                        continue
                    args = args.args
                if key > now_top:
                    when = key >> _PRIORITY_BITS
                    if when > horizon:
                        self._now = horizon
                        break
                    self._now = when
                    now_top = key | _PRIORITY_MASK
                # Consumed records are dropped at once, not when the slot
                # closes: what a fired timer references must not outlive it
                # by up to a slot width.
                open_[pos] = None
                pos += 1
                self._open_pos = pos
                self._processed += 1
                fn(*args)
                executed += 1
                if self._stopped:
                    break
        finally:
            self._running = False
            if gc_was_enabled:
                gc.enable()
        return executed

    def stop(self) -> None:
        """Stop a ``run`` in progress after the current event completes."""
        self._stopped = True

    def drain(self, events: Iterable[Event]) -> None:
        """Cancel a collection of events (e.g. a node's timers at shutdown)."""
        for event in events:
            event.cancel()


__all__ = [
    "Simulator",
    "Event",
    "SimulationError",
    "MICROSECONDS",
    "MILLISECONDS",
    "SECONDS",
]
