"""Wiring between protocol instances and their host node.

VVB / DBFT / Commit instances are plain state machines: they never touch
the network or the simulator directly.  A :class:`ProtocolServices` bundle
— constructed by the host node (or by a lightweight test harness) — gives
them identity (pid, n, f), time, cryptographic capabilities, and
``send``/``broadcast`` functions.  This keeps every protocol unit-testable
without spinning up a cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.crypto.cost import CryptoCosts, DEFAULT_COSTS
from repro.crypto.signatures import KeyRegistry, Signer
from repro.crypto.threshold import ThresholdScheme, ThresholdSigner
from repro.net.message import Message
from repro.sim.engine import Simulator
from repro.sim.timers import TimerWheel


class NullTransport:
    """Fallback transport for services built without ``send_fn`` /
    ``broadcast_fn``.

    Historically the defaults were silent no-op lambdas, which made a
    mis-wired harness indistinguishable from a quiet protocol: messages
    vanished without a trace.  The null transport still drops everything
    (protocol state machines stay unit-testable without a network) but
    counts every drop and remembers the last message, so tests can assert
    ``services.dropped_messages == 0`` — or spot a wiring bug immediately.
    """

    def __init__(self) -> None:
        self.dropped_sends = 0
        self.dropped_broadcasts = 0
        self.last_dropped: Optional[Message] = None

    @property
    def dropped(self) -> int:
        return self.dropped_sends + self.dropped_broadcasts

    def send(self, dst: int, message: Message) -> None:
        self.dropped_sends += 1
        self.last_dropped = message

    def broadcast(self, message: Message) -> None:
        self.dropped_broadcasts += 1
        self.last_dropped = message


@dataclass
class ProtocolServices:
    """Everything a protocol instance needs from its host."""

    pid: int
    n: int
    f: int
    sim: Simulator
    delta_us: int
    signer: Signer
    registry: KeyRegistry
    threshold: ThresholdScheme
    costs: CryptoCosts = field(default_factory=lambda: DEFAULT_COSTS)
    #: Point-to-point send: (dst, Message) -> None.  ``None`` wires a
    #: drop-counting :class:`NullTransport` instead of losing messages
    #: invisibly.
    send_fn: Optional[Callable[[int, Message], None]] = None
    #: Broadcast to all replicas: (Message) -> None.  In a full cluster
    #: this is the host node's ``_proto_broadcast``, which is also where
    #: Algorithm-4 commit state piggybacks onto every outgoing broadcast
    #: as a ``"pb"`` report.  Protocol instances stay oblivious: they call
    #: :meth:`broadcast` with their own payload and the transport layer
    #: decorates it.
    broadcast_fn: Optional[Callable[[Message], None]] = None
    #: Called once for each message a protocol instance drops for its
    #: shape (junk from a Byzantine peer).  The host node counts these in
    #: ``NodeStats.malformed_messages``.
    on_malformed: Callable[[], None] = lambda: None
    timers: Optional[TimerWheel] = None
    threshold_signer: Optional[ThresholdSigner] = None
    null_transport: Optional[NullTransport] = None

    def __post_init__(self) -> None:
        if self.n <= 3 * self.f and self.f > 0:
            raise ValueError(f"need n > 3f (n={self.n}, f={self.f})")
        if self.timers is None:
            self.timers = TimerWheel(self.sim)
        if self.threshold_signer is None:
            self.threshold_signer = self.threshold.share_signer(self.pid)
        if self.send_fn is None or self.broadcast_fn is None:
            if self.null_transport is None:
                self.null_transport = NullTransport()
            if self.send_fn is None:
                self.send_fn = self.null_transport.send
            if self.broadcast_fn is None:
                self.broadcast_fn = self.null_transport.broadcast

    @property
    def dropped_messages(self) -> int:
        """Messages swallowed by the null transport (0 when fully wired)."""
        return self.null_transport.dropped if self.null_transport else 0

    @property
    def quorum(self) -> int:
        """``n - f`` — the Byzantine quorum (≥ 2f+1 when n = 3f+1)."""
        return self.n - self.f

    @property
    def small_quorum(self) -> int:
        """``f + 1`` — guarantees at least one correct process."""
        return self.f + 1

    def send(self, dst: int, kind: str, payload: Any, size: int = 0) -> None:
        self.send_fn(dst, Message(kind, payload, size))

    def broadcast(self, kind: str, payload: Any, size: int = 0) -> None:
        # ``size`` is the protocol payload only; piggyback bytes are
        # accounted by the decorating broadcast_fn (see field doc above).
        self.broadcast_fn(Message(kind, payload, size))


__all__ = ["ProtocolServices", "NullTransport"]
