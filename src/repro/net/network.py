"""The simulated network: authenticated channels, lossy on demand.

Delivery time of a message =
    egress serialisation (NIC queue at the sender)
  + propagation latency (region matrix + jitter)
  + the fault plan's fixed delay or partition hold (none after GST)
  + ingress serialisation (NIC queue at the receiver)
  + the fault plan's random reorder delay

By default channels deliver every message promptly (the §II-A
reliable-channel abstraction taken as given).  With a
:class:`~repro.net.faults.FaultInjector` attached, links delay/hold/drop/
duplicate/reorder/corrupt per their :class:`~repro.net.faults.FaultPlan`;
layering a :class:`~repro.net.reliable.ReliableLayer` on top (``enable_reliable``)
then *implements* §II-A over the lossy wire with acks and retransmission.
Authentication is by construction: the receiver learns the true sender pid
(processes cannot impersonate each other), the cryptographic layer on top
adds transferable signatures.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.net.bandwidth import BandwidthModel
from repro.net.faults import FaultInjector
from repro.net.latency import LatencyModel, UniformLatencyModel
from repro.net.message import Message
from repro.net.reliable import ACK_KIND, FRAME_KIND, ReliableConfig, ReliableLayer
from repro.sim.engine import MILLISECONDS, Simulator
from repro.sim.process import SimProcess

#: Hook signature: (time_us, src, dst, message) -> None
TraceHook = Callable[[int, int, int, Message], None]


@dataclass
class NetworkConfig:
    """Tunables for one simulated network."""

    #: Post-GST bound on correct-to-correct message delay (µs).  Protocols
    #: read this as their Δ.  Must dominate the worst physical path.
    delta_us: int = 150 * MILLISECONDS
    #: Enable NIC bandwidth queueing (disable to isolate protocol logic).
    bandwidth_enabled: bool = True
    #: NIC line rate in bits/s (uniform across nodes unless a dict).
    rate_bps: float | Dict[int, float] = BandwidthModel.DEFAULT_RATE


class _Link:
    """One directed link's wire state, resolved on the link's first frame.

    It holds what the per-frame path would otherwise look up by
    ``(src, dst)`` in five places: the destination process (processes are
    never deregistered), the sender's egress and the receiver's ingress
    :class:`~repro.net.bandwidth.NicQueue` (``None`` with bandwidth off),
    the :meth:`~repro.net.latency.LatencyModel.link_terms` (the jitter
    stream is the sender's, shared by all its links), the fault lane
    (``None`` without a matching fault rule) and the link-stats slot
    (``None`` while link stats are off).  No field changes after the
    record is built, except that enabling link stats gives it a slot.

    Calling the link delivers an intact message over it, so a fast-path
    broadcast queues the link itself as each delivery's call, with one
    ``(message,)`` shared by the whole fan-out: the 1 s n=100 run holds
    ≈ 900 k queued deliveries at its horizon, and a link costs no bound
    object of its own.
    """

    __slots__ = (
        "src", "dst", "key", "process", "egress", "ingress",
        "base", "floor", "jitter", "lane", "counts", "net",
    )

    def __call__(self, message: Message) -> None:
        """Hand an intact application message to the link's process.

        Fast-path broadcasts are delivered here directly: their checksum
        was stamped by the sender an instant ago and no fault injector
        exists on that path, so re-verifying it (and sniffing for
        reliable-layer frames, which imply a fault injector) would be pure
        overhead."""
        process = self.process
        if process.crashed:
            return
        net = self.net
        net.messages_delivered += 1
        net.bytes_delivered += message.size
        counts = self.counts
        if counts is not None:
            counts[0] += 1
            counts[1] += message.size
        if net._trace_hooks:
            for hook in net._trace_hooks:
                hook(net.sim.now, self.src, self.dst, message)
        process.deliver(message, self.src)


class Network:
    """Connects :class:`SimProcess` instances over simulated channels."""

    def __init__(
        self,
        sim: Simulator,
        latency: Optional[LatencyModel] = None,
        config: Optional[NetworkConfig] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.sim = sim
        self.latency = latency or UniformLatencyModel()
        self.config = config or NetworkConfig()
        self.bandwidth = BandwidthModel(
            sim, rate_bps=self.config.rate_bps, enabled=self.config.bandwidth_enabled
        )
        self.faults = faults
        self.reliable: Optional[ReliableLayer] = None
        self._processes: Dict[int, SimProcess] = {}
        self._replicas: List[int] = []
        self._trace_hooks: List[TraceHook] = []
        self.messages_delivered = 0
        self.bytes_delivered = 0
        self.unroutable_dropped = 0
        self.corrupt_dropped = 0
        # Link records and the per-link delivery counters are keyed by the
        # packed pid pair ``(src << 20) | dst`` — an int key skips the tuple
        # allocation and tuple hash a ``(src, dst)`` key would cost.
        self._links: Dict[int, _Link] = {}
        #: A sender's records over the replica group, keyed by
        #: ``(src << 1) | include_self``; rebuilt when the group changes.
        self._rows: Dict[int, List[_Link]] = {}
        # ``[messages, bytes]`` slots, shared with the records.  None until
        # ``enable_link_stats``.
        self._link_stats: Optional[Dict[int, List[int]]] = None

    def enable_reliable(self, config: Optional[ReliableConfig] = None) -> ReliableLayer:
        """Layer ack/retransmit channels over this network's links."""
        self.reliable = ReliableLayer(self, config)
        return self.reliable

    def enable_link_stats(self) -> None:
        """Track per-(src, dst) delivered message/byte counts.

        Off by default: the delivery hot path then pays only a ``None``
        check.  Snapshot with :meth:`link_stats`.
        """
        if self._link_stats is None:
            self._link_stats = {}
            for key, link in self._links.items():
                link.counts = self._link_stats[key] = [0, 0]

    def link_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-link delivery counters as ``{"src->dst": {messages, bytes}}``
        (links that delivered nothing are left out)."""
        if not self._link_stats:
            return {}
        return {
            f"{key >> 20}->{key & 0xFFFFF}": {
                "messages": counts[0],
                "bytes": counts[1],
            }
            for key, counts in sorted(self._link_stats.items())
            if counts[0]
        }

    def _count_link(self, src: int, dst: int, size: int) -> None:
        # Slow-path helper; the delivery hot paths count on the record.
        try:
            counts = self._link_stats[(src << 20) | dst]
        except KeyError:
            counts = self._link_stats[(src << 20) | dst] = [0, 0]
        counts[0] += 1
        counts[1] += size

    def _link(self, src: int, dst: int) -> _Link:
        """The record of link ``src -> dst`` (``dst`` must be registered),
        built on first use."""
        key = (src << 20) | dst
        link = self._links.get(key)
        if link is not None:
            return link
        link = self._links[key] = _Link()
        link.src, link.dst, link.key = src, dst, key
        link.process = self._processes[dst]
        bandwidth = self.bandwidth
        if bandwidth.enabled:
            link.egress, link.ingress = bandwidth.egress(src), bandwidth.ingress(dst)
        else:
            link.egress = link.ingress = None
        link.base, link.floor, link.jitter = self.latency.link_terms(src, dst)
        link.lane = None if self.faults is None else self.faults.lane(src, dst)
        stats = self._link_stats
        link.counts = None if stats is None else stats.setdefault(key, [0, 0])
        link.net = self
        return link

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, process: SimProcess, *, replica: bool = True) -> None:
        """Add a process; ``replica=True`` adds it to the broadcast group."""
        if process.pid in self._processes:
            raise ValueError(f"pid {process.pid} already registered")
        self._processes[process.pid] = process
        if replica:
            # Keep the broadcast group sorted with one O(n) insertion
            # instead of a full re-sort per registration.
            insort(self._replicas, process.pid)
            self._rows.clear()
        process.attach(self)

    def pids(self) -> List[int]:
        """Broadcast group: the replica pids, sorted."""
        return list(self._replicas)

    @property
    def delta_us(self) -> int:
        return self.config.delta_us

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def add_trace_hook(self, hook: TraceHook) -> None:
        """Observe every delivery (metrics, attack oracles, tests)."""
        self._trace_hooks.append(hook)

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, message: Message) -> None:
        """Queue ``message`` from ``src`` to ``dst``.

        An unregistered destination is counted as a dropped send rather
        than raising, so traffic to deregistered targets degrades
        gracefully instead of killing the whole simulation.
        """
        reliable = self.reliable
        if reliable is None:
            self._put_on_wire(src, dst, message)  # counts unroutable itself
        elif dst in self._processes:
            reliable.send(src, dst, message)
        else:
            self.unroutable_dropped += 1

    def broadcast(
        self, src: int, message: Message, *, include_self: bool = True
    ) -> int:
        """Fan one logical message out to every replica directly, zero-copy.

        The same :class:`Message` instance is shared by every recipient —
        ``estimate_size`` ran once at construction and the checksum is a
        memoised ``(kind, size)`` lookup.  Copy-on-write semantics are
        preserved by :meth:`_put_on_wire`, so per-link faults never leak
        into other recipients.  Fault decisions are drawn per destination
        in sorted-pid order, exactly as the per-``send`` path would,
        keeping RNG streams — and therefore whole runs — bit-identical.

        Returns the number of send attempts, which callers use for traffic
        accounting.
        """
        reliable = self.reliable
        if reliable is None and self.faults is None:
            return self._broadcast_fast(src, message, include_self)
        # Reliable channels frame per destination (each link has its own
        # sequence space); the inner message object stays shared.
        send = self._put_on_wire if reliable is None else reliable.send
        attempts = 0
        for dst in self._replicas:
            if dst != src or include_self:
                attempts += 1
                send(src, dst, message)
        return attempts

    def _broadcast_fast(self, src: int, message: Message, include_self: bool) -> int:
        """Fan-out over the sender's row of link records.

        Applies when nothing perturbs the pipeline per destination — no
        fault injector.  The k-th egress departure is then
        exactly ``first_departure + k * serialisation`` on the sender's NIC,
        so what is left per destination is its ingress serialisation, one
        jitter draw (off the sender's stream, in destination order, as
        per-destination sends would draw) and one ``schedule_block`` triple.
        """
        key = (src << 1) | include_self
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = [
                self._link(src, dst)
                for dst in self._replicas
                if include_self or dst != src
            ]
        count = len(row)
        if not count:
            return 0
        message.stamp_checksum()
        sim = self.sim
        now = sim._now
        size = message.size
        egress = row[0].egress
        if egress is None:
            ser = delay = 0
        else:
            ser = egress._ser_cache.get(size)
            if ser is None:
                ser = egress.serialisation_us(size)
            free = egress._free_at
            start = now if now > free else free
            egress._free_at = start + count * ser
            egress.bytes_total += count * size
            delay = start - now + ser
        args = (message,)
        items = []
        for link in row:
            prop = link.base
            stream = link.jitter
            if stream is not None:
                # One draw, as in ``_put_on_wire``.
                buf, pos, refill, bound = stream
                if pos >= len(buf):
                    buf = stream[0] = refill()
                    pos = 0
                noise = buf[pos]
                stream[1] = pos + 1
                if noise > bound:
                    noise = bound
                elif noise < -bound:
                    noise = -bound
                prop = int(prop * (1.0 + noise))
                if prop < link.floor:
                    prop = link.floor
            ingress = link.ingress
            if ingress is not None:
                in_ser = ingress._ser_cache.get(size)
                prop += ingress.serialisation_us(size) if in_ser is None else in_ser
            items.append((delay + prop, link, args))
            delay += ser
        # Deliveries run at priority src+1: at any shared instant the
        # destination processes timers/CPU completions (priority 0) first,
        # then deliveries ordered by sender pid.  The same-instant order is
        # thus a function of who sent, not of which sender's event happened
        # to schedule first, and every pinned digest depends on it.
        sim.schedule_block(items, priority=src + 1)
        return count

    def _put_on_wire(self, src: int, dst: int, frame: Message) -> None:
        """The one routine that turns a physical frame into queued
        deliveries, over the link's record: stamp the checksum, apply the
        link's faults, and queue each surviving copy with
        :meth:`Simulator.post` (a delivery is never cancelled).

        Arrival = egress departure + propagation (base plus the sender's
        jitter draw) + ingress serialisation + the fault's fixed delay or
        hold (every copy) + its reorder delay (the original only).
        Point-to-point sends, reliable frames and acks and the general
        broadcast loop all end here, so ``frame`` may be shared with other links:
        a corrupting link damages a *copy* and a duplicate travels as a
        clone taking its own (jittered) path, so it may arrive before or
        after the original.  An unregistered destination is counted as
        unroutable.
        """
        link = self._links.get((src << 20) | dst)
        if link is None:
            if dst not in self._processes:
                self.unroutable_dropped += 1
                return
            link = self._link(src, dst)
        frame.stamp_checksum()
        sim = self.sim
        now = sim._now
        wire = frame
        reorder = delay = 0
        duplicate = False
        if link.lane is not None:
            decision = self.faults.decide_on(link.lane, frame, now)
            if decision.drop:
                return
            if decision.corrupt:
                wire = FaultInjector.corrupted_copy(frame)
            reorder = decision.extra_delay_us
            delay = decision.delay_us
            duplicate = decision.duplicate
        size = frame.size
        egress = link.egress
        if egress is None:
            ingress = 0
        else:
            ser = egress._ser_cache.get(size)
            if ser is None:
                ser = egress.serialisation_us(size)
            ingress = link.ingress._ser_cache.get(size)
            if ingress is None:
                ingress = link.ingress.serialisation_us(size)
        while True:
            if egress is None:
                departure = now
            else:
                free = egress._free_at
                departure = egress._free_at = (now if now > free else free) + ser
                egress.bytes_total += size
            prop = link.base
            stream = link.jitter
            if stream is not None:
                buf, pos, refill, bound = stream
                if pos >= len(buf):
                    buf = stream[0] = refill()
                    pos = 0
                noise = buf[pos]
                stream[1] = pos + 1
                if noise > bound:
                    noise = bound
                elif noise < -bound:
                    noise = -bound
                prop = int(prop * (1.0 + noise))
                if prop < link.floor:
                    prop = link.floor
            # Every term is non-negative and departure is never in the past.
            # Priority src+1 gives same-instant deliveries a canonical
            # sender-pid order (see _broadcast_fast).
            sim.post(
                departure - now + prop + ingress + delay + reorder,
                self._deliver,
                (link, wire),
                src + 1,
            )
            if not duplicate:
                return
            # Once more for the duplicate: a clean clone with its own
            # departure and jitter draw, the same fixed delay, no reorder.
            duplicate = False
            wire = frame.clone()
            reorder = 0

    def _deliver(self, link: _Link, message: Message) -> None:
        checksum = message.checksum
        if checksum and checksum != message.expected_checksum():
            # Damaged in flight: indistinguishable from loss at this layer.
            self.corrupt_dropped += 1
            if self.faults is not None:
                self.faults.stats.corrupt_detected += 1
            return
        if self.reliable is not None and message.kind in (FRAME_KIND, ACK_KIND):
            self.reliable.on_receive(link, message)
        else:
            link(message)

    def deliver_local(
        self, src: int, dst: int, message: Message, process: SimProcess
    ) -> None:
        """Hand an application-level message to its destination process,
        updating delivery counters and firing trace hooks."""
        self.messages_delivered += 1
        self.bytes_delivered += message.size
        if self._link_stats is not None:
            self._count_link(src, dst, message.size)
        for hook in self._trace_hooks:
            hook(self.sim.now, src, dst, message)
        process.deliver(message, src)


__all__ = ["Network", "NetworkConfig", "TraceHook"]
