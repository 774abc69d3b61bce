"""Core discrete-event simulator.

The simulator keeps a two-level queue: a binary heap of *distinct
timestamps*, each mapping to a bucket of :class:`Event` records ordered by
``(priority, sequence)``.  The ``sequence`` component is a global insertion
counter which guarantees a total, deterministic order even when many events
share a timestamp — essential for reproducible distributed protocol runs.

The bucket layer is a same-timestamp burst fast path: events that share a
timestamp (a jitter-free fan-out, a delivery and the CPU completion it
triggers) append to an existing bucket in O(1), only the first event of a
new timestamp pays a heap push, and the heap holds bare integers instead
of tuple-wide keys.  How often that pays depends on the workload: with the
default per-message jitter most deliveries land on a microsecond of their
own — ``lyra_n32_closed`` at seed 1 pushes 1 214 765 new timestamps for
1 947 898 processed events, so there roughly three ``schedule`` calls in
five take the heap path, not the append.

Time is an integer number of microseconds.  Integer time avoids the
floating-point drift that makes long simulations diverge between platforms,
and a microsecond grain is fine enough to express both WAN latencies
(tens of milliseconds) and crypto costs (tens of microseconds).
"""

from __future__ import annotations

import gc
import heapq
import itertools
from bisect import insort
from operator import attrgetter
from typing import Any, Callable, Dict, Iterable, List, Optional

# Convenience time units, all expressed in the simulator's integer microsecond
# grain.  ``5 * MILLISECONDS`` reads better than ``5000``.
MICROSECONDS = 1
MILLISECONDS = 1_000
SECONDS = 1_000_000


class SimulationError(RuntimeError):
    """Raised for misuse of the simulator (time travel, re-running, ...)."""


class Event:
    """A scheduled callback.

    Buckets order events by the explicit ``(priority, seq)`` key so the
    queue pops them in deterministic order — a plain ``__slots__`` class
    beats an ``order=True`` dataclass here because events are the single
    most-allocated object in a run and field-by-field ``__lt__`` dispatch
    showed up in profiles.  ``cancelled`` events stay in their bucket
    (cancellation is O(1)) and are skipped when popped; cancelling drops
    the callback at once, so a cancelled timer does not keep whatever its
    closure captured (a frame, a consensus instance) alive until the
    bucket's deadline.
    """

    __slots__ = ("time", "priority", "seq", "callback", "cancelled")

    def __init__(
        self,
        time: int,
        priority: int,
        seq: int,
        callback: Callable[[], None],
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.cancelled = cancelled

    def cancel(self) -> None:
        self.cancelled = True
        self.callback = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Event(time={self.time}, priority={self.priority}, "
            f"seq={self.seq}, cancelled={self.cancelled})"
        )


#: Bucket sort key: ties at one timestamp resolve by (priority, insertion).
_EVENT_KEY = attrgetter("priority", "seq")


class Simulator:
    """Deterministic discrete-event loop with an integer virtual clock."""

    def __init__(self) -> None:
        self._now: int = 0
        #: Min-heap of the distinct timestamps present in ``_buckets``.
        self._times: List[int] = []
        #: timestamp -> events at that time, kept sorted by (priority, seq).
        self._buckets: Dict[int, List[Event]] = {}
        #: Cursor into the bucket currently being drained.  Only the head
        #: bucket ever has a consumed prefix (events at earlier times are
        #: gone, events at later times have not started), so two scalars
        #: replace the old per-timestamp position dict.
        self._head_time: int = -1
        self._head_pos: int = 0
        self._counter = itertools.count()
        self._running = False
        self._stopped = False
        self._processed: int = 0
        #: Live count of queued events (kept O(1); see ``pending``).
        self._pending: int = 0
        #: End-of-instant hooks: run whenever the loop is about to advance
        #: past the current timestamp while the dirty flag is set.  The
        #: coalescing layer uses this to flush per-link outboxes exactly
        #: once per simulated instant (see ``add_end_of_instant_hook``).
        self._instant_hooks: List[Callable[[], None]] = []
        self._instant_dirty = False

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current virtual time in microseconds."""
        return self._now

    @property
    def now_ms(self) -> float:
        """Current virtual time in (float) milliseconds, for reporting."""
        return self._now / MILLISECONDS

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (for profiling/metrics)."""
        return self._processed

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones that
        have not been skipped yet).  O(1): maintained as a live counter."""
        return self._pending

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: int,
        callback: Callable[[], None],
        *,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` microseconds from now.

        ``priority`` breaks ties at equal timestamps: lower runs first.
        Returns the :class:`Event`, whose :meth:`Event.cancel` removes it.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        when = self._now + int(delay)
        event = Event(when, priority, next(self._counter), callback)
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [event]
            heapq.heappush(self._times, when)
        elif priority >= bucket[-1].priority:
            # Fast path: seq is globally monotonic, so an appended event
            # with priority >= the tail keeps the bucket sorted.
            bucket.append(event)
        else:
            lo = self._head_pos if when == self._head_time else 0
            insort(bucket, event, lo=lo, key=_EVENT_KEY)
        self._pending += 1
        return event

    def schedule_block(self, items: List, *, priority: int = 0) -> None:
        """Schedule many ``(delay, callback)`` pairs at one ``priority``.

        The per-event bookkeeping (bucket/heap lookups, the pending
        counter) is hoisted out of the loop; delays must be non-negative —
        callers on this path (broadcast fan-out) guarantee it by
        construction, so the guard of :meth:`schedule` is skipped.
        """
        now = self._now
        times = self._times
        buckets = self._buckets
        counter = self._counter
        head_time = self._head_time
        head_pos = self._head_pos
        for delay, callback in items:
            when = now + delay
            event = Event(when, priority, next(counter), callback)
            bucket = buckets.get(when)
            if bucket is None:
                buckets[when] = [event]
                heapq.heappush(times, when)
            elif bucket[-1].priority <= priority:
                bucket.append(event)
            else:
                lo = head_pos if when == head_time else 0
                insort(bucket, event, lo=lo, key=_EVENT_KEY)
        self._pending += len(items)

    def schedule_at(
        self,
        when: int,
        callback: Callable[[], None],
        *,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback`` at absolute virtual time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at t={when} (now is {self._now})"
            )
        return self.schedule(when - self._now, callback, priority=priority)

    # ------------------------------------------------------------------
    # End-of-instant hooks
    # ------------------------------------------------------------------
    def add_end_of_instant_hook(self, hook: Callable[[], None]) -> None:
        """Register ``hook`` to run when the loop is about to leave the
        current timestamp (or the queue empties) while the instant is
        marked dirty.  Hooks fire *before* the ``until`` horizon check, so
        work emitted at the final instant of a bounded ``run`` is still
        flushed.  Hooks may schedule new events and re-mark the instant."""
        self._instant_hooks.append(hook)

    def mark_instant_dirty(self) -> None:
        """Request an end-of-instant hook pass before time next advances."""
        self._instant_dirty = True

    def _run_instant_hooks(self) -> None:
        self._instant_dirty = False
        for hook in self._instant_hooks:
            hook()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _next_event(self) -> Optional[Event]:
        """Peek the next live event, discarding drained buckets and
        cancelled bucket heads along the way.  On return the head cursor
        points at the returned event, so the caller can consume it by
        advancing ``_head_pos`` once (see ``run``/``step``)."""
        times = self._times
        buckets = self._buckets
        while times:
            t = times[0]
            bucket = buckets[t]
            pos = start = self._head_pos if t == self._head_time else 0
            size = len(bucket)
            while pos < size and bucket[pos].cancelled:
                pos += 1
            if pos != start:
                self._pending -= pos - start
            if pos < size:
                self._head_time = t
                self._head_pos = pos
                return bucket[pos]
            heapq.heappop(times)
            del buckets[t]
            self._head_time = -1
        return None

    def step(self) -> bool:
        """Execute the next event.  Returns False when the queue is empty."""
        event = self._next_event()
        while self._instant_dirty and (event is None or event.time > self._now):
            self._run_instant_hooks()
            event = self._next_event()
        if event is None:
            return False
        if event.time < self._now:  # pragma: no cover - defensive
            raise SimulationError("event queue yielded an event in the past")
        self._head_pos += 1
        self._pending -= 1
        self._now = event.time
        self._processed += 1
        event.callback()
        return True

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue empties, ``until`` passes, or
        ``max_events`` have executed.

        ``until`` is an absolute virtual time; on return ``now`` is
        ``min(until, time of last event)``.  Returns the number of events
        executed by this call.

        The cyclic garbage collector is suspended for the duration (and
        restored on exit): the loop allocates millions of short-lived
        events and messages, and repeated full-heap scans over them are
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
        # The peek logic of ``_next_event`` is inlined below: at ~2 events
        # per delivered message the loop body dominates runs, and the
        # extra call frame plus attribute traffic showed up in profiles.
        times = self._times
        buckets = self._buckets
        limit = max_events if max_events is not None else float("inf")
        try:
            while not self._stopped and executed < limit:
                event = None
                while times:
                    t = times[0]
                    bucket = buckets[t]
                    pos = start = self._head_pos if t == self._head_time else 0
                    size = len(bucket)
                    while pos < size:
                        ev = bucket[pos]
                        if not ev.cancelled:
                            event = ev
                            break
                        pos += 1
                    if pos != start:
                        self._pending -= pos - start
                        self._head_time = t
                        self._head_pos = pos
                    if event is not None:
                        break
                    heapq.heappop(times)
                    del buckets[t]
                    self._head_time = -1
                # Flush coalescing outboxes before the clock leaves this
                # instant — and before the ``until`` horizon check, so a
                # burst at the boundary still goes out.
                if self._instant_dirty and (
                    event is None or event.time > self._now
                ):
                    self._run_instant_hooks()
                    continue
                if event is None:
                    if until is not None and self._now < until:
                        self._now = until
                    break
                when = event.time
                if until is not None and when > until:
                    self._now = until
                    break
                # Drain the whole bucket inline: while ``now == when`` no
                # callback can schedule anything earlier (delays are
                # non-negative), so this bucket stays at the heap head
                # until exhausted and the heap/dict lookups above need not
                # repeat per event.
                self._now = when
                self._head_time = when
                while True:
                    self._head_pos = pos + 1
                    self._pending -= 1
                    self._processed += 1
                    event.callback()
                    executed += 1
                    if self._stopped or executed >= limit:
                        break
                    pos += 1
                    size = len(bucket)  # callbacks may have appended
                    event = None
                    while pos < size:
                        ev = bucket[pos]
                        if not ev.cancelled:
                            event = ev
                            break
                        pos += 1
                        self._pending -= 1
                    if event is None:
                        self._head_pos = pos
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
