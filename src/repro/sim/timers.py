"""Cancellable timers and per-owner timer bookkeeping.

Protocols set many short-lived timers (VVB expiration timers, DBFT round
timers, pacemaker view timers).  :class:`Timer` wraps a scheduled event with
restart/cancel semantics; :class:`TimerWheel` tracks every *live* (armed)
timer of one owner so teardown can cancel them all (preventing callbacks from
firing into a dead object, the classic source of "ghost vote" bugs in
simulators).  A timer that fires or is cancelled leaves the wheel at once:
protocols name timers per (instance, round), so a wheel that remembered
them would pin every consensus instance its owner ever ran.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Optional

from repro.sim.engine import Event, Simulator


class Timer:
    """A restartable one-shot timer bound to a simulator."""

    __slots__ = ("_sim", "_callback", "_event", "fired_count")

    def __init__(self, sim: Simulator, callback: Callable[[], None]) -> None:
        self._sim = sim
        self._callback = callback
        self._event: Optional[Event] = None
        self.fired_count = 0

    @property
    def armed(self) -> bool:
        return self._event is not None and not self._event.cancelled

    def start(self, delay: int) -> None:
        """(Re)arm the timer to fire ``delay`` microseconds from now."""
        self.cancel()
        self._event = self._sim.schedule(delay, self._fire)

    def cancel(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self.fired_count += 1
        self._callback()


class TimerWheel:
    """Named timers for one protocol instance, cancellable as a group."""

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._timers: Dict[str, Timer] = {}
        self._closed = False

    def set(self, name: str, delay: int, callback: Callable[[], None]) -> Timer:
        """Arm (or re-arm) the named timer."""
        if self._closed:
            raise RuntimeError("timer wheel is closed")
        # Re-arming replaces the timer: the same logical name can carry
        # round-specific callbacks.
        self.cancel(name)
        timer = self._timers[name] = Timer(
            self._sim, partial(self._fire, name, callback)
        )
        timer.start(delay)
        return timer

    def _fire(self, name: str, callback: Callable[[], None]) -> None:
        # Forget the timer before running it: periodic callbacks re-arm
        # their own name from inside.
        del self._timers[name]
        callback()

    def cancel(self, name: str) -> None:
        timer = self._timers.pop(name, None)
        if timer is not None:
            timer.cancel()

    def armed(self, name: str) -> bool:
        timer = self._timers.get(name)
        return timer is not None and timer.armed

    def close(self) -> None:
        """Cancel every timer and refuse further arming."""
        for timer in self._timers.values():
            timer.cancel()
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


__all__ = ["Timer", "TimerWheel"]
