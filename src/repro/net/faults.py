"""Deterministic fault injection: everything the wire does wrong, in one plan.

The paper's model (§II-A) lets an adversary delay messages until an
unknown Global Stabilisation Time (GST), but never drop them, and assumes
reliable authenticated channels and crash-free correct processes.  One
:class:`FaultPlan` describes both the adversary the model allows and the
faults a production SMR system has to survive on top of it:

- a :class:`FaultPlan` is pure data — per-link loss/duplication/reordering/
  corruption rates, fixed delays and partition holds with time windows
  (:class:`LinkFault`), scheduled crash/recover events
  (:class:`CrashEvent`) and the GST from which the network is promised to
  be synchronous — so it can live inside an
  :class:`~repro.harness.config.ExperimentConfig` and be swept over like
  any other parameter;
- a :class:`FaultInjector` executes the link faults inside the
  :class:`~repro.net.network.Network`, drawing every coin flip from a
  per-link seeded stream so the same seed replays the same fault sequence
  bit-for-bit.

Crash events and ``gst_us`` are *interpreted by the cluster builder*
(which owns the processes and the invariant watchdog), not by the
injector.  :func:`partition_faults` writes a network partition as one
``hold`` rule per side; a pre-GST random delay is a ``reorder_rate=1.0``
rule ending at GST.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import AbstractSet, Any, Dict, Optional, Sequence, Tuple

from repro.net.message import Message
from repro.sim.engine import MILLISECONDS
from repro.sim.rng import RngRegistry


@dataclass(frozen=True)
class LinkFault:
    """One fault rule, applied to every transmission it matches.

    ``src``/``dst`` restrict the rule to particular endpoints (``None``
    matches every pid); ``start_us``/``end_us`` bound the active window
    (``end_us=None`` means until the end of the run).  Rates are
    independent per-message probabilities in ``[0, 1]``.

    ``delay_us`` and ``hold`` are the model's adversary: deterministic,
    they draw no random number, apply to every copy of a frame and do not
    stack — a frame waits the largest of its matching rules' delays.  Both
    need an ``end_us`` no later than the plan's ``gst_us``.
    """

    #: Probability the message is silently lost.
    drop_rate: float = 0.0
    #: Probability a second copy is delivered (with its own latency draw).
    duplicate_rate: float = 0.0
    #: Probability the message is held back by an extra random delay,
    #: letting later traffic overtake it.
    reorder_rate: float = 0.0
    #: Maximum extra delay applied to reordered messages.
    reorder_delay_us: int = 50 * MILLISECONDS
    #: Probability the payload is corrupted in flight (detected by the
    #: frame checksum and treated as loss by the reliable layer).
    corrupt_rate: float = 0.0
    src: Optional[Tuple[int, ...]] = None
    dst: Optional[Tuple[int, ...]] = None
    start_us: int = 0
    end_us: Optional[int] = None
    #: Fixed extra delay for every matching frame.
    delay_us: int = 0
    #: Hold every matching frame until ``end_us`` (a partition).
    hold: bool = False

    def __post_init__(self) -> None:
        for name in ("drop_rate", "duplicate_rate", "reorder_rate", "corrupt_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        for name in ("start_us", "reorder_delay_us", "delay_us"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.end_us is not None and self.end_us <= self.start_us:
            raise ValueError(
                f"end_us must be after start_us, got [{self.start_us}, {self.end_us})"
            )
        if self.hold and self.end_us is None:
            raise ValueError("a hold rule needs end_us: held frames leave then")
        if self.hold and self.delay_us:
            raise ValueError("a rule either holds or delays, not both")
        # Normalise endpoint selectors to sorted tuples so to_dict() output
        # (and the sweep cache content hash) is canonical.
        for name in ("src", "dst"):
            sel = getattr(self, name)
            if sel is not None:
                object.__setattr__(self, name, tuple(sorted(int(p) for p in sel)))

    def matches(self, src: int, dst: int, now: int) -> bool:
        if now < self.start_us:
            return False
        if self.end_us is not None and now >= self.end_us:
            return False
        if self.src is not None and src not in self.src:
            return False
        if self.dst is not None and dst not in self.dst:
            return False
        return True


@dataclass(frozen=True)
class CrashEvent:
    """Crash pid at ``crash_at_us``; recover it at ``recover_at_us``
    (``None`` = crash-stop for the rest of the run)."""

    pid: int
    crash_at_us: int
    recover_at_us: Optional[int] = None

    def __post_init__(self) -> None:
        if self.crash_at_us < 0:
            raise ValueError("crash_at_us must be non-negative")
        if self.recover_at_us is not None and self.recover_at_us <= self.crash_at_us:
            raise ValueError("recover_at_us must be after crash_at_us")


@dataclass(frozen=True)
class FaultPlan:
    """A complete, serialisable fault schedule for one run.

    ``gst_us`` is the time from which the plan promises a synchronous
    network: no ``delay_us`` or ``hold`` rule outlasts it, and the
    invariant watchdog expects commit progress after it.
    """

    links: Tuple[LinkFault, ...] = ()
    crashes: Tuple[CrashEvent, ...] = ()
    gst_us: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "links", tuple(self.links))
        object.__setattr__(
            self,
            "crashes",
            tuple(sorted(self.crashes, key=lambda e: (e.crash_at_us, e.pid))),
        )
        if self.gst_us < 0:
            raise ValueError(f"gst_us must be non-negative, got {self.gst_us}")
        for lf in self.links:
            if (lf.delay_us or lf.hold) and (lf.end_us is None or lf.end_us > self.gst_us):
                raise ValueError(
                    f"a delay or hold rule must end by gst_us={self.gst_us}, "
                    f"got end_us={lf.end_us}"
                )

    @property
    def empty(self) -> bool:
        return not self.links and not self.crashes and not self.gst_us

    def validate_for(
        self, n_nodes: int, f: int, byzantine: Sequence[int] = ()
    ) -> None:
        """Reject schedules the model cannot honour: unknown pids, or a
        joint adversary over the resilience bound ``f``.

        Crashed and Byzantine/attack replicas share one budget: at every
        moment, ``|byzantine ∪ currently-down| <= f`` must hold (a crashed
        Byzantine replica counts once, not twice).  ``byzantine`` defaults
        to empty, which reduces to the historical crashes-only bound.
        """
        byz = {int(pid) for pid in byzantine}
        for pid in byz:
            if not 0 <= pid < n_nodes:
                raise ValueError(f"byzantine set contains unknown pid {pid}")
        if len(byz) > f:
            raise ValueError(
                f"{len(byz)} Byzantine/attack replicas exceed f={f}"
            )
        for ev in self.crashes:
            if not 0 <= ev.pid < n_nodes:
                raise ValueError(f"crash event targets unknown pid {ev.pid}")
        for lf in self.links:
            for name in ("src", "dst"):
                for pid in getattr(lf, name) or ():
                    if not 0 <= pid < n_nodes:
                        raise ValueError(f"link fault {name} names unknown pid {pid}")
        # Worst-case joint adversary at each crash/recover moment.
        moments = sorted(
            {ev.crash_at_us for ev in self.crashes}
            | {ev.recover_at_us for ev in self.crashes if ev.recover_at_us}
        )
        for t in moments:
            down = {
                ev.pid
                for ev in self.crashes
                if ev.crash_at_us <= t
                and (ev.recover_at_us is None or t < ev.recover_at_us)
            }
            if len(down) > f:
                raise ValueError(
                    f"{len(down)} replicas down simultaneously at t={t}us "
                    f"exceeds f={f}"
                )
            joint = len(down | byz)
            if joint > f:
                raise ValueError(
                    f"{len(down - byz)} crashed plus {len(byz)} "
                    f"Byzantine/attack replicas at t={t}us jointly exceed "
                    f"f={f}"
                )

    # ------------------------------------------------------------------
    # Serialization — plans ride inside ExperimentConfig across process
    # boundaries and into the sweep cache's content hash.
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        def link_dict(lf: LinkFault) -> Dict[str, Any]:
            return {
                "drop_rate": lf.drop_rate,
                "duplicate_rate": lf.duplicate_rate,
                "reorder_rate": lf.reorder_rate,
                "reorder_delay_us": lf.reorder_delay_us,
                "corrupt_rate": lf.corrupt_rate,
                "src": list(lf.src) if lf.src is not None else None,
                "dst": list(lf.dst) if lf.dst is not None else None,
                "start_us": lf.start_us,
                "end_us": lf.end_us,
                "delay_us": lf.delay_us,
                "hold": lf.hold,
            }

        return {
            "links": [link_dict(lf) for lf in self.links],
            "crashes": [
                {
                    "pid": ev.pid,
                    "crash_at_us": ev.crash_at_us,
                    "recover_at_us": ev.recover_at_us,
                }
                for ev in self.crashes
            ],
            "gst_us": self.gst_us,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        def build(kind, raw):
            known = {f.name for f in fields(kind)}
            unknown = set(raw) - known
            if unknown:
                raise ValueError(f"unknown {kind.__name__} fields: {sorted(unknown)}")
            fixed = dict(raw)
            for key in ("src", "dst"):
                if fixed.get(key) is not None and key in known:
                    fixed[key] = tuple(fixed[key])
            return kind(**fixed)

        return cls(
            links=tuple(build(LinkFault, raw) for raw in data.get("links", ())),
            crashes=tuple(build(CrashEvent, raw) for raw in data.get("crashes", ())),
            gst_us=data.get("gst_us", 0),
        )


def partition_faults(
    groups: Sequence[AbstractSet[int]],
    n_nodes: int,
    *,
    start_us: int = 0,
    heal_at_us: int,
) -> Tuple[LinkFault, ...]:
    """A network partition from ``start_us`` until ``heal_at_us``, as one
    ``hold`` rule per side: every frame from a side to any replica outside
    it is held until the heal, the strongest schedule partial synchrony
    allows short of dropping.  Replica pids left out of every group form
    the remainder side.  Give the plan a ``gst_us`` of at least the latest
    heal."""
    replicas = frozenset(range(n_nodes))
    sides = [frozenset(int(p) for p in group) for group in groups]
    if not sides:
        raise ValueError("a partition needs at least one group")
    seen: frozenset = frozenset()
    for side in sides:
        if seen & side:
            raise ValueError(f"pids {sorted(seen & side)} appear in two groups")
        seen |= side
    if not seen <= replicas:
        raise ValueError(f"pids {sorted(seen - replicas)} are not replicas")
    if heal_at_us <= start_us:
        raise ValueError("heal_at_us must be after start_us")
    sides.append(replicas - seen)
    return tuple(
        LinkFault(
            src=tuple(side),
            dst=tuple(replicas - side),
            start_us=start_us,
            end_us=heal_at_us,
            hold=True,
        )
        for side in sides
        if side and side != replicas
    )


@dataclass(frozen=True, slots=True)
class FaultDecision:
    """What the injector decided for one physical transmission.

    Frozen: the two overwhelmingly common outcomes are shared instances
    (:data:`_CLEAN`, :data:`_DROP`) that no caller may mutate.
    """

    drop: bool = False
    duplicate: bool = False
    corrupt: bool = False
    #: The reorder delay, on the original copy only.
    extra_delay_us: int = 0
    #: The fixed delay or hold, on every copy.
    delay_us: int = 0


_CLEAN = FaultDecision()
_DROP = FaultDecision(drop=True)

#: Uniforms pre-drawn per refill of a lane's block.
_BLOCK = 256

#: A lane rule's ``end_us`` when the rule never ends.
_FOREVER = 1 << 62


@dataclass
class FaultStats:
    """Counters the chaos report surfaces after a run.

    ``duplicated``/``corrupted`` count *logical messages* hit at least
    once: the reliable layer retransmits the same frame object until it is
    acked, so without uid-level dedup a message corrupted on two physical
    transmissions (or duplicated on a retransmit after its first copy was
    already suppressed) would inflate the counts.  The raw per-transmission
    event totals stay available as ``*_wire_events``.
    """

    dropped: int = 0
    duplicated: int = 0
    reordered: int = 0
    #: Transmissions given a fixed delay or held.
    delayed: int = 0
    corrupted: int = 0
    corrupt_detected: int = 0
    duplicate_wire_events: int = 0
    corrupt_wire_events: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "reordered": self.reordered,
            "delayed": self.delayed,
            "corrupted": self.corrupted,
            "corrupt_detected": self.corrupt_detected,
            "duplicate_wire_events": self.duplicate_wire_events,
            "corrupt_wire_events": self.corrupt_wire_events,
        }


class FaultInjector:
    """Executes a :class:`FaultPlan`'s link faults deterministically.

    Each (src, dst) link draws from its own named stream of the run's
    :class:`~repro.sim.rng.RngRegistry`, so adding traffic on one link
    never perturbs the fault sequence of another.

    A link's state is its *fault lane*, opened on the first transmission
    (see :meth:`lane`): the link's generator resolved once, the
    plan's rules that can ever match the link (endpoint selectors are
    static; time windows are still checked per call) and a block of
    pre-drawn uniforms.  ``Generator.random(k)`` yields exactly the
    variates of k scalar ``random()`` calls, so a lane's draw sequence —
    per active rule: drop, duplicate, corrupt, reorder — is bit-identical
    to drawing one at a time.  The reorder *delay* is an ``integers()``
    draw off the same bitstream and cannot be pre-drawn around, so a lane
    any of whose rules can reorder draws scalar instead; that is a
    property of the plan, decided once per lane.

    This is not PR 14's deleted ``_BufferedUniform`` again: that was a
    second class behind a user-set backend knob, paid a Python method call
    per draw and was only ever measured bundled with the arena engine.
    Here there is one injector, the choice is read off the plan, and a
    draw is a C-level ``list.pop``.
    """

    def __init__(self, plan: FaultPlan, rng: RngRegistry) -> None:
        self.plan = plan
        self._rng = rng
        self.stats = FaultStats()
        # uids of messages already counted in the per-message counters
        # (retransmissions re-send the same Message object).
        self._duplicated_uids: set = set()
        self._corrupted_uids: set = set()
        # Lanes keyed by the packed pid pair ``(src << 20) | dst`` (the
        # packing ``Network._link_stats`` uses).
        self._lanes: Dict[int, Optional[tuple]] = {}

    def _stream(self, src: int, dst: int):
        return self._rng.get("faults", f"{src}->{dst}")

    def lane(self, src: int, dst: int) -> Optional[tuple]:
        """The ``(rules, gen, block, need)`` lane of link ``src -> dst``,
        opened on first use: the rules whose endpoint selectors admit it,
        its generator, the stack of pre-drawn uniforms (next draw last;
        ``None`` = draw scalar) and the most one decision can pop from it.
        ``None`` when no rule can ever match the link: it never draws."""
        key = (src << 20) | dst
        if key in self._lanes:
            return self._lanes[key]
        # The static half of ``LinkFault.matches``; decide() does the window.
        # Each rule is flattened to a plain tuple, read once per decision.
        rules = tuple(
            (
                lf.start_us,
                _FOREVER if lf.end_us is None else lf.end_us,
                lf.drop_rate,
                lf.duplicate_rate,
                lf.corrupt_rate,
                lf.reorder_rate,
                lf.reorder_delay_us,
                lf.delay_us,
                lf.hold,
            )
            for lf in self.plan.links
            if (lf.src is None or src in lf.src) and (lf.dst is None or dst in lf.dst)
        )
        if not rules:
            lane = None
        elif any(rule[5] > 0.0 for rule in rules):
            lane = (rules, self._stream(src, dst), None, 0)
        else:
            need = sum((rule[2] > 0.0) + (rule[3] > 0.0) + (rule[4] > 0.0) for rule in rules)
            lane = (rules, self._stream(src, dst), [], need)
        self._lanes[key] = lane
        return lane

    def decide(self, src: int, dst: int, message: Message, now: int) -> FaultDecision:
        lane = self.lane(src, dst)
        return _CLEAN if lane is None else self.decide_on(lane, message, now)

    def decide_on(self, lane: tuple, message: Message, now: int) -> FaultDecision:
        """:meth:`decide` on a lane already resolved by :meth:`lane` (the
        network keeps each link's lane in its per-link record)."""
        rules, gen, block, need = lane
        if block is None:
            draw = gen.random
        else:
            while len(block) < need:
                # Refill under the leftovers, reversed so pop() walks the
                # variates in draw order.
                block[:0] = gen.random(_BLOCK)[::-1].tolist()
            draw = block.pop
        drop = duplicate = corrupt = False
        extra_delay_us = fixed_us = 0
        for (
            start, end, drop_rate, dup_rate, corrupt_rate, reorder_rate, reorder_us,
            delay_us, hold,
        ) in rules:
            if now < start or now >= end:
                continue
            if hold:
                delay_us = end - now
            if delay_us > fixed_us:
                fixed_us = delay_us
            if drop_rate > 0.0 and draw() < drop_rate:
                drop = True
            if dup_rate > 0.0 and draw() < dup_rate:
                duplicate = True
            if corrupt_rate > 0.0 and draw() < corrupt_rate:
                corrupt = True
            if reorder_rate > 0.0 and draw() < reorder_rate:
                extra_delay_us += int(gen.integers(1, max(2, reorder_us + 1)))
        stats = self.stats
        if drop:
            # A dropped message neither duplicates nor reorders.
            stats.dropped += 1
            return _DROP
        if not (duplicate or corrupt or extra_delay_us or fixed_us):
            return _CLEAN
        if duplicate:
            stats.duplicate_wire_events += 1
            if message.uid not in self._duplicated_uids:
                self._duplicated_uids.add(message.uid)
                stats.duplicated += 1
        if corrupt:
            stats.corrupt_wire_events += 1
            if message.uid not in self._corrupted_uids:
                self._corrupted_uids.add(message.uid)
                stats.corrupted += 1
        if extra_delay_us:
            stats.reordered += 1
        if fixed_us:
            stats.delayed += 1
        return FaultDecision(
            duplicate=duplicate,
            corrupt=corrupt,
            extra_delay_us=extra_delay_us,
            delay_us=fixed_us,
        )

    @staticmethod
    def corrupted_copy(message: Message) -> Message:
        """A bit-flipped copy: the checksum no longer matches, so the
        receiving end detects the damage and treats the frame as lost."""
        bad = message.clone()
        bad.checksum ^= 0x1
        return bad


__all__ = [
    "LinkFault",
    "CrashEvent",
    "FaultPlan",
    "partition_faults",
    "FaultDecision",
    "FaultStats",
    "FaultInjector",
]
