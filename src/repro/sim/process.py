"""Simulated processes with a serialised-CPU cost model.

A :class:`SimProcess` is one node of the distributed system.  Incoming
messages are not handled instantaneously: each handler invocation may charge
virtual CPU time (via :meth:`SimProcess.charge`), and the :class:`CpuModel`
serialises that work — a node busy verifying a batch of signatures delays
every later message, exactly the queueing behaviour that makes a HotStuff
leader a bottleneck on real hardware.

The class is transport-agnostic: a network (see :mod:`repro.net.network`)
attaches itself and provides ``send``/``broadcast`` primitives.

The receive path
----------------
:meth:`SimProcess.deliver` is the one CPU-queued receive path; every node
type (Lyra, Pompē, Fino, clients, test collectors) inherits it and supplies
three things:

- ``_RECEIVE_COSTS`` — ``{message kind: µs}`` for kinds whose cost is a
  constant.  A class attribute, or a per-instance dict when the constants
  come from the node's :class:`~repro.crypto.cost.CryptoCosts`.  Probed
  first, once per message.
- ``_receive_cost(message) -> µs`` — the fallback for every kind the table
  does not list (size- or payload-dependent costs).  Default 0: a process
  that never charges its core dispatches synchronously.
- ``_process(message, sender)`` — the handler, run when the core has
  finished the job.  Default: :meth:`SimProcess.on_message`.

``deliver`` reserves the core for the cost, and either runs ``_process``
inline (the job completes now) or schedules it at the completion time,
guarded by the incarnation it was queued in: a completion queued before
``crash()``/``recover()`` never lands in the new incarnation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.sim.engine import Simulator
from repro.sim.timers import TimerWheel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.message import Message
    from repro.net.network import Network


class CpuModel:
    """A single serialised core with a virtual-time work queue.

    ``acquire(cost)`` returns the completion time of a job of ``cost``
    microseconds submitted now: the job starts when the core frees up and
    runs for ``cost``.  With ``cost == 0`` the model is pass-through.
    """

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._free_at: int = 0
        self.busy_time: int = 0
        self._window_mark_us: int = 0
        self._window_busy_base: int = 0

    @property
    def free_at(self) -> int:
        return self._free_at

    def acquire(self, cost_us: int) -> int:
        """Reserve the core for ``cost_us`` of work; return completion time."""
        if cost_us < 0:
            raise ValueError("CPU cost must be non-negative")
        start = max(self._sim.now, self._free_at)
        self._free_at = start + cost_us
        self.busy_time += cost_us
        return self._free_at

    def mark_window(self) -> None:
        """Reset the measurement window for :meth:`utilisation` to now."""
        self._window_mark_us = self._sim.now
        self._window_busy_base = self._completed_busy()

    def _completed_busy(self) -> int:
        """Busy time actually elapsed by now (acquired work still queued
        past ``now`` hasn't run yet and must not count)."""
        return self.busy_time - max(0, self._free_at - self._sim.now)

    def utilisation(self) -> float:
        """Fraction of time since the last :meth:`mark_window` (or process
        start) the core was busy."""
        window_us = self._sim.now - self._window_mark_us
        if window_us <= 0:
            return 0.0
        busy = self._completed_busy() - self._window_busy_base
        return min(1.0, max(0, busy) / window_us)

    def cancel_backlog(self) -> None:
        """Abandon queued-but-unstarted work (the owner crashed)."""
        overshoot = max(0, self._free_at - self._sim.now)
        self.busy_time -= overshoot
        self._free_at = self._sim.now


class SimProcess:
    """Base class for all simulated nodes (replicas, clients, attackers)."""

    def __init__(self, pid: int, sim: Simulator) -> None:
        self.pid = pid
        self.sim = sim
        self.cpu = CpuModel(sim)
        self.timers = TimerWheel(sim)
        self.network: Optional["Network"] = None
        self.crashed = False
        #: Bumped on every recovery; scheduled callbacks capture the value
        #: at creation and refuse to run into a later incarnation.
        self.incarnation = 0
        self._handlers: Dict[str, Callable[["Message", int], None]] = {}
        #: Bound once: every CPU-queued message's record carries it.
        self._deferred = self._process_deferred
        self.messages_received = 0
        self.messages_sent = 0
        self.bytes_sent = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, network: "Network") -> None:
        """Called by the network when the process is registered."""
        self.network = network

    def handler(self, kind: str, fn: Callable[["Message", int], None]) -> None:
        """Register a dispatch handler for a message kind."""
        self._handlers[kind] = fn

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, dst: int, message: "Message") -> None:
        """Send a point-to-point message (authenticated reliable channel)."""
        if self.crashed:
            return
        assert self.network is not None, "process not attached to a network"
        self.messages_sent += 1
        self.bytes_sent += message.size
        self.network.send(self.pid, dst, message)

    def broadcast(self, message: "Message", *, include_self: bool = True) -> None:
        """Send ``message`` to every process (optionally including self).

        Delegates to the network's zero-copy fan-out: one shared frame, one
        checksum stamp, one size estimate for the whole replica group.
        """
        if self.crashed:
            return
        assert self.network is not None, "process not attached to a network"
        attempts = self.network.broadcast(
            self.pid, message, include_self=include_self
        )
        self.messages_sent += attempts
        self.bytes_sent += attempts * message.size

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    #: Constant receive costs by message kind (see the module docstring).
    _RECEIVE_COSTS: Dict[str, int] = {}

    def _receive_cost(self, message: "Message") -> int:
        """CPU cost of a kind ``_RECEIVE_COSTS`` does not list."""
        return 0

    def deliver(self, message: "Message", sender: int) -> None:
        """Entry point used by the network: queue the receive cost on the
        core, then ``_process``."""
        if self.crashed:
            return
        self.messages_received += 1
        cost = self._RECEIVE_COSTS.get(message.kind)
        if cost is None:
            cost = self._receive_cost(message)
        now = self.sim._now
        # ``CpuModel.acquire`` unrolled: this runs once per delivered
        # message.
        cpu = self.cpu
        free = cpu._free_at
        done_at = (now if now > free else free) + cost
        cpu._free_at = done_at
        cpu.busy_time += cost
        if done_at <= now:
            self._process(message, sender)
        else:
            # The record carries the call: no closure, and the epoch guard
            # lives in one shared bound method.
            self.sim.post(
                done_at - now,
                self._deferred,
                (message, sender, self.incarnation),
            )

    def _process_deferred(self, message: "Message", sender: int, epoch: int) -> None:
        # A crash between acquire and completion loses the work; it must
        # not leak into a recovered incarnation either.
        if self.crashed or self.incarnation != epoch:
            return
        self._process(message, sender)

    def _process(self, message: "Message", sender: int) -> None:
        """Handle a message whose receive cost has been paid."""
        self.on_message(message, sender)

    def on_message(self, message: "Message", sender: int) -> None:
        """Dispatch on the message kind; subclasses may override entirely."""
        handler = self._handlers.get(message.kind)
        if handler is not None:
            handler(message, sender)

    # ------------------------------------------------------------------
    # CPU accounting
    # ------------------------------------------------------------------
    def charge(self, cost_us: int, callback: Optional[Callable[[], None]] = None) -> None:
        """Charge ``cost_us`` of CPU work; run ``callback`` when it completes.

        Without a callback the work is accounted for (delaying later jobs)
        but control continues synchronously — appropriate for costs whose
        result is needed inline.
        """
        done_at = self.cpu.acquire(cost_us)
        if callback is not None:
            # ``acquire`` never completes in the past.
            self.sim.post(
                done_at - self.sim._now,
                self._run_charged,
                (callback, self.incarnation),
            )

    def _run_charged(self, callback: Callable[[], None], epoch: int) -> None:
        # Work in flight when the process crashed must not land: the core
        # lost it, and a recovered incarnation must not see callbacks from
        # its previous life.
        if self.crashed or self.incarnation != epoch:
            return
        callback()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Crash-stop the process: drop all I/O and cancel timers."""
        self.crashed = True
        self.timers.close()
        self.cpu.cancel_backlog()

    def recover(self) -> None:
        """Bring a crashed process back as a fresh incarnation.

        Re-arms the timer wheel; subclasses restore durable state and
        re-schedule their own timers on top of this.
        """
        if not self.crashed:
            return
        self.crashed = False
        self.incarnation += 1
        self.timers.reopen()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(pid={self.pid})"


__all__ = ["SimProcess", "CpuModel"]
