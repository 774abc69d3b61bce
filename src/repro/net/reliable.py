"""Ack/retransmit channels: *implementing* §II-A instead of assuming it.

The paper's model gives every pair of correct processes a reliable
authenticated channel.  Over a lossy transport that abstraction has to be
built, and its cost (acks, retransmissions, duplicate suppression) is part
of any honest end-to-end latency account.  :class:`ReliableLayer` sits
between :meth:`SimProcess.send` and the lossy :class:`Network`:

- every application message is wrapped in a ``net.frame`` carrying a
  per-(src, dst) sequence number; the receiver acks each frame and
  suppresses duplicates, so the application sees exactly-once delivery;
- unacked frames are retransmitted with exponential backoff from a
  *bounded* resend window; excess sends queue in a (bounded) backlog and
  a frame that exhausts ``max_retries`` is abandoned (the peer is down —
  crash recovery, not the transport, is responsible for catching it up);
- corrupted frames fail the :class:`~repro.net.message.Message` checksum
  at delivery and are treated as loss: no ack, so the sender retransmits.

All timers run on the simulator, all state is keyed by (src, dst), and no
randomness is used, so runs stay bit-deterministic.

Every physical transmission this layer makes — first sends,
retransmissions, and acks — goes through ``Network._put_on_wire``, the
same routine application traffic uses, so each frame and each ack takes
its own fault draw.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, Optional, Set

from repro.net.message import Message
from repro.sim.engine import Event, MILLISECONDS, SECONDS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import Network, _Link

FRAME_KIND = "net.frame"
ACK_KIND = "net.ack"

#: Frame overhead on the wire: sequence number + checksum echo.
FRAME_HEADER_BYTES = 12
ACK_BYTES = 48


@dataclass
class ReliableConfig:
    """Retransmission tunables (defaults sized for WAN delta ~150 ms)."""

    #: Initial retransmission timeout.  It does *not* dominate one RTT on
    #: the geo matrix (one-way latencies reach 131 ms between evaluation
    #: regions), so under loss most retransmissions are spurious
    #: (EXPERIMENTS.md "Constants measured, not knobs").  Changing it
    #: moves every lossy-wire digest.
    rto_us: int = 60 * MILLISECONDS
    #: Multiplicative backoff applied after every timeout.
    backoff: float = 2.0
    #: Ceiling on the per-frame timeout.
    max_rto_us: int = 1 * SECONDS
    #: Retransmissions before a frame is abandoned (peer presumed down).
    max_retries: int = 8
    #: Bounded resend window: unacked frames in flight per link.
    window: int = 256
    #: Bounded backlog of sends waiting for window space; overflow drops.
    max_backlog: int = 4096


@dataclass
class ReliableStats:
    """Transport overhead counters (the measured cost of §II-A)."""

    data_sends: int = 0
    frames_sent: int = 0  # physical transmissions, including retransmits
    retransmits: int = 0
    acks_sent: int = 0
    delivered: int = 0
    dup_frames: int = 0
    gave_up: int = 0
    backlog_dropped: int = 0
    sender_died: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "data_sends": self.data_sends,
            "frames_sent": self.frames_sent,
            "retransmits": self.retransmits,
            "acks_sent": self.acks_sent,
            "delivered": self.delivered,
            "dup_frames": self.dup_frames,
            "gave_up": self.gave_up,
            "backlog_dropped": self.backlog_dropped,
            "sender_died": self.sender_died,
        }


@dataclass(slots=True)
class _Pending:
    seq: int
    frame: Message
    retries: int = 0
    rto_us: int = 0
    event: Optional[Event] = None


class _SenderLink:
    """Per-(src, dst) sender state: window, backlog, next sequence."""

    __slots__ = ("next_seq", "unacked", "backlog")

    def __init__(self) -> None:
        self.next_seq = 0
        self.unacked: Dict[int, _Pending] = {}
        self.backlog: Deque[Message] = deque()


class _ReceiverLink:
    """Per-(src, dst) receiver state: duplicate suppression."""

    __slots__ = ("cum", "seen")

    def __init__(self) -> None:
        self.cum = 0  # every seq < cum has been delivered
        self.seen: Set[int] = set()

    def accept(self, seq: int) -> bool:
        """Record delivery of ``seq``; False when it is a duplicate."""
        if seq < self.cum or seq in self.seen:
            return False
        self.seen.add(seq)
        while self.cum in self.seen:
            self.seen.discard(self.cum)
            self.cum += 1
        return True


class ReliableLayer:
    """The ack/sequence-number retransmission channel over one network."""

    def __init__(self, network: "Network", config: Optional[ReliableConfig] = None) -> None:
        self.network = network
        self.config = config or ReliableConfig()
        self.stats = ReliableStats()
        # Keyed by the packed pid pair ``(src << 20) | dst`` of the data
        # direction, like the network's link records.
        self._senders: Dict[int, _SenderLink] = {}
        self._receivers: Dict[int, _ReceiverLink] = {}

    # ------------------------------------------------------------------
    # Sender side
    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, message: Message) -> None:
        self.stats.data_sends += 1
        # Not ``setdefault``: its default argument would build (and throw
        # away) a _SenderLink on every send.
        link = self._senders.get((src << 20) | dst)
        if link is None:
            link = self._senders[(src << 20) | dst] = _SenderLink()
        if len(link.unacked) >= self.config.window:
            if len(link.backlog) >= self.config.max_backlog:
                self.stats.backlog_dropped += 1
                return
            link.backlog.append(message)
            return
        self._send_frame(src, dst, link, message)

    def _send_frame(self, src: int, dst: int, link: _SenderLink, message: Message) -> None:
        seq = link.next_seq
        link.next_seq += 1
        frame = Message(
            FRAME_KIND,
            {"seq": seq, "inner": message},
            message.size + FRAME_HEADER_BYTES,
        )
        pending = _Pending(seq, frame, rto_us=self.config.rto_us)
        link.unacked[seq] = pending
        self._transmit(src, dst, pending)

    def _transmit(self, src: int, dst: int, pending: _Pending) -> None:
        # Retransmissions re-send the *same* frame object: its uid is
        # stable across attempts, which is what lets FaultInjector count
        # a corrupted-then-retransmitted message once.
        self.stats.frames_sent += 1
        self.network._put_on_wire(src, dst, pending.frame)
        # The RTO callback names the frame by (link, seq), never by object:
        # a closure over ``pending`` would close the cycle pending -> event
        # -> callback -> pending and strand every acked frame until a
        # cyclic collection (the event loop runs with the collector off).
        pending.event = self.network.sim.schedule(
            pending.rto_us, self._on_timeout, (src, dst, pending.seq)
        )

    def _on_timeout(self, src: int, dst: int, seq: int) -> None:
        link = self._senders[(src << 20) | dst]
        pending = link.unacked.get(seq)
        if pending is None:
            return  # acked in the meantime
        pending.event = None
        sender = self.network._processes.get(src)
        if sender is None or sender.crashed:
            # The sending process died: its transport state dies with it.
            del link.unacked[seq]
            self.stats.sender_died += 1
            return
        if pending.retries >= self.config.max_retries:
            del link.unacked[seq]
            self.stats.gave_up += 1
            self._pump_backlog(src, dst, link)
            return
        pending.retries += 1
        pending.rto_us = min(
            self.config.max_rto_us, int(pending.rto_us * self.config.backoff)
        )
        self.stats.retransmits += 1
        self._transmit(src, dst, pending)

    def _pump_backlog(self, src: int, dst: int, link: _SenderLink) -> None:
        while link.backlog and len(link.unacked) < self.config.window:
            self._send_frame(src, dst, link, link.backlog.popleft())

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------
    def on_receive(self, link: "_Link", message: Message) -> None:
        """Entry point from the network for ``net.frame``/``net.ack``
        arriving over ``link``."""
        src, dst = link.src, link.dst
        if message.kind == ACK_KIND:
            self._on_ack(dst, src, message.payload)
            return
        process = link.process
        if process.crashed:
            return  # a crashed receiver neither acks nor delivers
        payload = message.payload if isinstance(message.payload, dict) else {}
        seq = payload.get("seq")
        inner = payload.get("inner")
        if not isinstance(seq, int) or inner is None:
            return
        # Ack every receipt — the original ack may have been lost, and the
        # sender will retransmit until one gets through.
        self.stats.acks_sent += 1
        self.network._put_on_wire(dst, src, Message(ACK_KIND, {"seq": seq}, ACK_BYTES))
        receiver = self._receivers.get(link.key)
        if receiver is None:
            receiver = self._receivers[link.key] = _ReceiverLink()
        if not receiver.accept(seq):
            self.stats.dup_frames += 1
            return
        self.stats.delivered += 1
        self.network.deliver_local(src, dst, inner, process)

    def _on_ack(self, sender_pid: int, acker_pid: int, payload) -> None:
        if not isinstance(payload, dict):
            return
        seq = payload.get("seq")
        link = self._senders.get((sender_pid << 20) | acker_pid)
        if link is None or not isinstance(seq, int):
            return
        pending = link.unacked.pop(seq, None)
        if pending is None:
            return  # duplicate ack
        if pending.event is not None:
            pending.event.cancel()
            pending.event = None
        self._pump_backlog(sender_pid, acker_pid, link)

    # ------------------------------------------------------------------
    def in_flight(self, src: int, dst: int) -> int:
        link = self._senders.get((src << 20) | dst)
        return len(link.unacked) if link else 0


__all__ = [
    "ReliableLayer",
    "ReliableConfig",
    "ReliableStats",
    "FRAME_KIND",
    "ACK_KIND",
]
