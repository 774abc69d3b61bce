"""Named, cancellable timers per owner.

Protocols set many short-lived timers (VVB expiration timers, DBFT round
timers, pacemaker view timers).  A :class:`TimerWheel` maps each *live*
(armed) timer's name straight to its :class:`~repro.sim.engine.Event`, so
teardown can cancel them all (preventing callbacks from firing into a dead
object, the classic source of "ghost vote" bugs in simulators).  A timer is
that one record: arming schedules the wheel's ``_fire`` — bound once per
wheel — with ``(name, fn, args)`` as its arguments, and allocates no timer
object, closure or bound method of its own.  Names are any hashable; the
per-instance protocol timers use tuples built from the instance id, so no
name is formatted.  A timer that fires or is cancelled leaves the wheel at
once: protocols name timers per (instance, round), so a wheel that
remembered them would pin every consensus instance its owner ever ran.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Tuple

from repro.sim.engine import Event, Simulator


class TimerWheel:
    """Named timers for one protocol instance, cancellable as a group."""

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._timers: Dict[Hashable, Event] = {}
        self._closed = False
        # Bound once: every timer of this wheel queues the same method.
        self._fire_bound = self._fire

    def set(
        self,
        name: Hashable,
        delay: int,
        fn: Callable[..., None],
        args: Tuple[Any, ...] = (),
    ) -> Event:
        """Arm (or re-arm) the named timer to call ``fn(*args)``."""
        if self._closed:
            raise RuntimeError("timer wheel is closed")
        # Re-arming replaces the timer: the same logical name can carry
        # round-specific callbacks.
        old = self._timers.pop(name, None)
        if old is not None:
            old.cancel()
        event = self._timers[name] = self._sim.schedule(
            delay, self._fire_bound, (name, fn, args)
        )
        return event

    def _fire(
        self, name: Hashable, fn: Callable[..., None], args: Tuple[Any, ...]
    ) -> None:
        # Forget the timer before running it: periodic callbacks re-arm
        # their own name from inside.
        del self._timers[name]
        fn(*args)

    def cancel(self, name: Hashable) -> None:
        event = self._timers.pop(name, None)
        if event is not None:
            event.cancel()

    def armed(self, name: Hashable) -> bool:
        return name in self._timers

    def close(self) -> None:
        """Cancel every timer and refuse further arming."""
        for event in self._timers.values():
            event.cancel()
        self._timers.clear()
        self._closed = True

    def reopen(self) -> None:
        """Accept arming again after :meth:`close` (crash recovery).

        Timers cancelled by the close stay cancelled — the recovered owner
        must re-arm whatever it still needs.
        """
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed


__all__ = ["TimerWheel"]
