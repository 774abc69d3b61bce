"""Partial-synchrony message-delay adversaries.

The model (§II-A) lets an adversary delay any message arbitrarily before an
unknown Global Stabilisation Time (GST); after GST every correct-to-correct
message arrives within Δ.  Channels stay reliable: the adversary can delay,
never drop.

Adversaries here return an *extra* delay (µs) added on top of the physical
propagation delay; the network clamps post-GST deliveries so that the Δ
bound holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Sequence, Set, Tuple

from repro.sim.engine import MILLISECONDS, Simulator
from repro.sim.rng import RngRegistry


class NetworkAdversary:
    """Interface: decide the extra delay for one message."""

    def extra_delay_us(self, src: int, dst: int, size: int, now: int) -> int:
        raise NotImplementedError

    def gst(self) -> int:
        """The adversary's GST; 0 means the network is always synchronous."""
        return 0


class NullAdversary(NetworkAdversary):
    """No interference: the network is synchronous from the start."""

    def extra_delay_us(self, src: int, dst: int, size: int, now: int) -> int:
        return 0


class PartialSynchronyAdversary(NetworkAdversary):
    """Random adversarial delays until GST, silence after.

    Before GST each message is delayed by Uniform(0, ``max_delay_us``);
    messages already in flight when GST hits were scheduled with their delay,
    so convergence is gradual — exactly the behaviour DBFT-style protocols
    must survive.
    """

    def __init__(
        self,
        gst_us: int,
        *,
        max_delay_us: int = 500 * MILLISECONDS,
        rng: RngRegistry | None = None,
    ) -> None:
        self._gst = int(gst_us)
        self.max_delay_us = int(max_delay_us)
        self._rng = (rng or RngRegistry(0)).get("adversary", "delays")

    def gst(self) -> int:
        return self._gst

    def extra_delay_us(self, src: int, dst: int, size: int, now: int) -> int:
        if now >= self._gst:
            return 0
        return int(self._rng.integers(0, self.max_delay_us + 1))


class TargetedDelayAdversary(NetworkAdversary):
    """Delays only messages touching a target set of processes.

    Used by reordering-attack experiments: the adversary slows a victim's
    proposals (or the paths toward specific validators) to try to displace
    its transaction in the decided order.
    """

    def __init__(
        self,
        targets: Iterable[int],
        delay_us: int,
        *,
        gst_us: int = 0,
        direction: str = "both",
    ) -> None:
        if direction not in ("src", "dst", "both"):
            raise ValueError("direction must be 'src', 'dst', or 'both'")
        self.targets: Set[int] = set(targets)
        self.delay_us = int(delay_us)
        self._gst = int(gst_us)
        self.direction = direction

    def gst(self) -> int:
        return self._gst

    def extra_delay_us(self, src: int, dst: int, size: int, now: int) -> int:
        if self._gst and now >= self._gst:
            return 0
        hit = (
            (self.direction in ("src", "both") and src in self.targets)
            or (self.direction in ("dst", "both") and dst in self.targets)
        )
        return self.delay_us if hit else 0


@dataclass(frozen=True)
class PartitionEvent:
    """One partition episode: ``groups`` are mutually isolated from
    ``start_us`` until ``heal_at_us``.  Pids not listed in any group form
    an implicit remainder group (isolated from all listed groups but able
    to talk among themselves)."""

    groups: Tuple[FrozenSet[int], ...]
    heal_at_us: int
    start_us: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "groups", tuple(frozenset(g) for g in self.groups)
        )
        if len(self.groups) < 1:
            raise ValueError("a partition event needs at least one group")
        if self.heal_at_us <= self.start_us:
            raise ValueError("heal_at_us must be after start_us")
        seen: Set[int] = set()
        for group in self.groups:
            overlap = seen & group
            if overlap:
                raise ValueError(f"pids {sorted(overlap)} appear in two groups")
            seen |= group

    def side(self, pid: int) -> int:
        """Index of pid's group; -1 for the implicit remainder group."""
        for idx, group in enumerate(self.groups):
            if pid in group:
                return idx
        return -1

    def active(self, now: int) -> bool:
        return self.start_us <= now < self.heal_at_us


class PartitionAdversary(NetworkAdversary):
    """Splits the network into isolated groups until each episode heals.

    Cross-partition messages are delayed until (just after) the episode's
    healing time — the strongest schedule partial synchrony allows short
    of dropping messages (channels stay reliable: everything is delivered
    once the partition heals).

    ``schedule`` lists the episodes (:class:`PartitionEvent`), each with
    any number of groups and its own heal time.
    """

    def __init__(self, *, schedule: Sequence[PartitionEvent]) -> None:
        self.schedule: Tuple[PartitionEvent, ...] = tuple(schedule)
        if not self.schedule:
            raise ValueError("schedule needs at least one PartitionEvent")

    def gst(self) -> int:
        return max(ev.heal_at_us for ev in self.schedule)

    def extra_delay_us(self, src: int, dst: int, size: int, now: int) -> int:
        delay = 0
        for ev in self.schedule:
            if not ev.active(now):
                continue
            if ev.side(src) != ev.side(dst):
                delay = max(delay, ev.heal_at_us - now)
        return delay


__all__ = [
    "NetworkAdversary",
    "NullAdversary",
    "PartialSynchronyAdversary",
    "TargetedDelayAdversary",
    "PartitionAdversary",
    "PartitionEvent",
]
