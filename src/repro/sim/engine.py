"""Core discrete-event simulator.

The queue is a **slotted calendar of call-carrying records**.  A record is
the list ``[time, priority, seq, fn, args]``; the run loop calls
``fn(*args)``, so the per-message hot sites queue a bound method and a
tuple instead of allocating a closure.  ``seq`` is a global insertion
counter: records order by ``(time, priority, seq)``, ``seq`` is unique, so
the order is total and deterministic — essential for reproducible
distributed protocol runs — and a comparison never reaches ``fn``.

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

#: Stand-in for "no ``until`` / no ``max_events``": an int beyond any run,
#: so the loop compares ints with ints.
_NEVER = 1 << 62


class SimulationError(RuntimeError):
    """Raised for misuse of the simulator (time travel, re-running, ...)."""


class Event(list):
    """The cancellable handle :meth:`Simulator.schedule` returns — the
    queued record ``[time, priority, seq, fn, args]`` itself, under a name
    and with read-only views of its fields.

    A ``list`` subclass without an ``__init__`` of its own: building one is
    a single C call, and slots sort it against the plain-list records of
    :meth:`Simulator.post` and :meth:`Simulator.schedule_block` with
    ``list``'s own comparison.
    Cancellation is O(1) and lazy — the record stays queued and is skipped
    when reached — but it drops ``fn`` *and* ``args`` at once, so a
    cancelled timer does not keep what they reference (a frame, a
    consensus instance) alive until its deadline.  ``fn is None`` is the
    cancelled mark.
    """

    __slots__ = ()

    # ``list`` compares by value; a handle is one particular scheduling.
    __hash__ = object.__hash__

    @property
    def time(self) -> int:
        return self[0]

    @property
    def priority(self) -> int:
        return self[1]

    @property
    def seq(self) -> int:
        return self[2]

    @property
    def fn(self) -> Optional[Callable[..., None]]:
        return self[3]

    @property
    def args(self) -> Optional[Tuple[Any, ...]]:
        return self[4]

    @property
    def cancelled(self) -> bool:
        return self[3] is None

    def cancel(self) -> None:
        self[3] = self[4] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Event(time={self[0]}, priority={self[1]}, "
            f"seq={self[2]}, cancelled={self[3] is None})"
        )


class Simulator:
    """Deterministic discrete-event loop with an integer virtual clock."""

    def __init__(self) -> None:
        self._now: int = 0
        #: slot index -> records of that (future) slot, in insertion order.
        self._slots: Dict[int, List[list]] = {}
        #: Min-heap of the slot indices present in ``_slots``.
        self._slot_heap: List[int] = []
        #: The open slot: sorted, drained through ``_open_pos``; entries
        #: before the cursor are consumed (and cleared to ``None``).  Only
        #: the open slot is ever sorted or partly consumed.
        self._open: List[Optional[list]] = []
        self._open_pos: int = 0
        self._open_slot: int = -1
        #: Records scheduled so far — the next ``seq``.
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
        when = self._now + int(delay)
        seq = self._seq
        self._seq = seq + 1
        event = Event((when, priority, seq, fn, args))
        self._insert(event)
        return event

    def post(
        self,
        delay: int,
        fn: Callable[..., None],
        args: Tuple[Any, ...] = (),
        priority: int = 0,
    ) -> None:
        """:meth:`schedule` for the per-message hot sites, which never
        cancel: no handle (the record is a plain list) and no checks —
        ``delay`` must be a non-negative integer by construction; a
        non-integer one raises :class:`SimulationError`.  Worth its
        duplication only because it is measured: −5.8 % wall on
        ``lyra_n32_closed`` with the receive path on it (EXPERIMENTS.md
        "Constants measured, not knobs")."""
        seq = self._seq
        self._insert([self._now + delay, priority, seq, fn, args])
        self._seq = seq + 1

    def schedule_block(self, items: Iterable[tuple], *, priority: int = 0) -> None:
        """:meth:`post` many ``(delay, fn, args)`` triples at one
        ``priority`` (broadcast fan-out), the per-call bookkeeping hoisted
        out of the loop.  Same contract: no handles, non-negative integer
        delays, a non-integer one raises :class:`SimulationError` here
        rather than surfacing mid-run."""
        now = self._now
        seq = self._seq
        insert = self._insert
        try:
            for delay, fn, args in items:
                insert([now + delay, priority, seq, fn, args])
                seq += 1
        finally:
            self._seq = seq

    def _insert(self, record: list) -> None:
        """Queue ``record``: append it to its (future) slot, or insort it
        behind the cursor of the open one."""
        try:
            slot = record[0] >> _SLOT_SHIFT
        except TypeError:
            raise SimulationError(
                f"event times are integer microseconds (got {record[0]!r})"
            ) from None
        open_slot = self._open_slot
        if slot == open_slot:
            insort(self._open, record, lo=self._open_pos)
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
        the cursor, must decide what runs next."""
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
        now = self._now
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
                        if now < horizon < _NEVER:
                            self._now = horizon
                        break
                    self._open_slot = heappop(heap)
                    open_ = self._open = self._slots.pop(self._open_slot)
                    open_.sort()
                    pos = self._open_pos = 0
                    continue
                fn = record[3]
                if fn is None:  # cancelled
                    open_[pos] = None
                    pos += 1
                    self._open_pos = pos
                    self._skipped += 1
                    continue
                when = record[0]
                if when != now:
                    if when > horizon:
                        self._now = horizon
                        break
                    self._now = now = when
                # Consumed records are dropped at once, not when the slot
                # closes: what a fired timer references must not outlive it
                # by up to a slot width.
                open_[pos] = None
                pos += 1
                self._open_pos = pos
                self._processed += 1
                fn(*record[4])
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
