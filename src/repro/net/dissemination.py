"""Pluggable broadcast dissemination strategies.

Lyra's BOC and commit phases are broadcast-heavy: with the default
``all2all`` strategy every replica pushes every broadcast to all n-1 peers,
so wire complexity per instance is O(n²) — fine at n=32, dominant at the
paper's n=100.  This module adds two sub-quadratic alternatives behind
``ExperimentConfig.dissemination``:

``all2all``
    Today's behaviour, and the default.  ``Network.broadcast`` runs its
    zero-copy fan-out directly; no envelope, no relay, no extra state.

``tree``
    A deterministic k-ary relay tree *per sender*: the sender transmits to
    its ``fanout`` children, each relay forwards down its subtree, so a
    broadcast costs every node at most ``fanout`` egress transmissions and
    the wire carries exactly n-1 copies (plus envelope headers).  The tree
    is the heap layout over ``[sender] + sorted other replicas``, a pure
    function of (sender, replica set) — no randomness, so runs are
    bit-deterministic.  When ``fanout >= n-1`` every
    other replica is a direct child and the strategy *degenerates to the
    exact all2all path* (same inner message, same fast-path schedule, same
    digests) — the property the CI twin cell pins at n=4.

``gossip``
    Seeded push gossip: the origin pushes an envelope to ``fanout`` peers;
    each first-time receiver re-pushes to ``fanout`` peers of its own with
    a TTL bound, and duplicate receipts are suppressed by (origin, seq).
    Peer choice is a pure hash of ``(seed, origin, seq, relay)`` — seeded,
    deterministic, and independent of global event interleaving, so gossip
    runs stay bit-deterministic too.  Losses (an
    unreached node) are repaired by the protocol layer itself: Lyra's
    periodic status exchange pulls missing instances exactly like its
    piggyback/pull recovery path, so gossip trades bounded wire cost for
    occasionally falling back on pull repair.

Relays forward at the *network* layer on delivery (before handing the
inner message to the local process), so relay egress consumes the relay's
bandwidth queue and per-source jitter stream — the cost model sees relayed
traffic exactly like first-class sends.  The inner message is always
delivered with the *origin* as its sender: protocols key state by sender
pid and signatures are the origin's.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import Network

#: Envelope kinds (namespaced like ``net.frame``/``net.ack``).
TREE_KIND = "net.tree"
GOSSIP_KIND = "net.gossip"

#: Envelope framing overhead on top of the inner message: root/origin id,
#: sequence, TTL, flags.
TREE_HEADER_BYTES = 16
GOSSIP_HEADER_BYTES = 24

#: Valid values of ``ExperimentConfig.dissemination``.
DISSEMINATION_STRATEGIES = ("all2all", "tree", "gossip")


def seeded_sample(token: bytes, pool: List[int], k: int) -> List[int]:
    """``k`` distinct elements of ``pool``, a pure function of ``token``.

    sha256 of the token seeds a 64-bit LCG walk over the shrinking pool:
    deterministic, cheap, and unbiased enough for peer sampling.  Because
    the draw consumes no shared RNG stream, the sample never depends on how
    other consumers' draws interleave, which is what keeps gossip runs
    bit-deterministic.  ``pool`` is consumed in place.
    """
    if len(pool) <= k:
        return pool
    x = int.from_bytes(hashlib.sha256(token).digest()[:8], "big")
    chosen: List[int] = []
    for _ in range(k):
        x = (x * 6364136223846793005 + 1442695040888963407) & (2**64 - 1)
        chosen.append(pool.pop(x % len(pool)))
    return chosen


def make_dissemination(
    name: str, *, fanout: int, seed: int = 0
) -> Optional["Dissemination"]:
    """Build the strategy object for ``name`` (``None`` for all2all: the
    network's native fan-out needs no strategy layer at all)."""
    name = (name or "all2all").lower()
    if name == "all2all":
        return None
    if name == "tree":
        return TreeDissemination(fanout)
    if name == "gossip":
        return GossipDissemination(fanout, seed=seed)
    raise ValueError(
        f"unknown dissemination {name!r}; "
        f"expected one of {DISSEMINATION_STRATEGIES}"
    )


class Dissemination:
    """Interface: fan a broadcast out and relay envelopes at delivery."""

    name = "?"
    #: Envelope kinds the network must route back to :meth:`on_envelope`.
    kinds: Tuple[str, ...] = ()

    def broadcast(
        self, net: "Network", src: int, message: Message, include_self: bool
    ) -> int:
        raise NotImplementedError

    def on_envelope(
        self, net: "Network", src: int, dst: int, envelope: Message
    ) -> None:
        raise NotImplementedError

    def stats_dict(self) -> Dict[str, float]:
        raise NotImplementedError


class TreeDissemination(Dissemination):
    """Deterministic k-ary relay tree per sender (heap layout)."""

    name = "tree"
    kinds = (TREE_KIND,)

    def __init__(self, fanout: int) -> None:
        if fanout < 1:
            raise ValueError("tree fanout must be >= 1")
        self.fanout = fanout
        #: Broadcasts that degenerated to the direct all2all path.
        self.direct_broadcasts = 0
        #: Broadcasts that went out as relay trees.
        self.tree_broadcasts = 0
        #: Envelope forwards performed by relays.
        self.relays = 0
        #: Envelopes that died at a crashed relay (subtree starved until
        #: the protocol's pull recovery catches it up).
        self.dead_relays = 0
        # (root, replicas tuple) -> {pid: heap position}.
        self._pos_cache: Dict[tuple, Dict[int, int]] = {}
        self._order_cache: Dict[tuple, List[int]] = {}

    # -- tree geometry -------------------------------------------------
    def _order(self, root: int, replicas: Tuple[int, ...]) -> List[int]:
        key = (root, replicas)
        order = self._order_cache.get(key)
        if order is None:
            order = [root] + [p for p in replicas if p != root]
            self._order_cache[key] = order
            self._pos_cache[key] = {p: i for i, p in enumerate(order)}
        return order

    def _children(
        self, root: int, replicas: Tuple[int, ...], pid: int
    ) -> List[int]:
        order = self._order(root, replicas)
        pos = self._pos_cache[(root, replicas)].get(pid)
        if pos is None:
            return []
        k = self.fanout
        lo = k * pos + 1
        return order[lo : lo + k]

    # -- strategy interface --------------------------------------------
    def broadcast(
        self, net: "Network", src: int, message: Message, include_self: bool
    ) -> int:
        replicas = tuple(net._replicas)
        others = len(replicas) - (1 if src in replicas else 0)
        if self.fanout >= others:
            # Every other replica is a direct child: the tree IS the
            # all2all fan-out.  Delegate to the native path so delivery
            # order, wire sizes and digests are bit-identical to all2all.
            self.direct_broadcasts += 1
            return net.broadcast_all2all(
                src, message, include_self=include_self
            )
        self.tree_broadcasts += 1
        attempts = 0
        if include_self and src in replicas:
            net.send(src, src, message)
            attempts += 1
        envelope = Message(
            TREE_KIND,
            (src, message),
            message.size + TREE_HEADER_BYTES,
        )
        for child in self._children(src, replicas, src):
            net.send(src, child, envelope)
            attempts += 1
        return attempts

    def on_envelope(
        self, net: "Network", src: int, dst: int, envelope: Message
    ) -> None:
        root, inner = envelope.payload
        process = net._processes.get(dst)
        if process is None or process.crashed:
            # A dead relay starves its subtree; protocol pull recovery is
            # the repair path, exactly as for a lost frame.
            self.dead_relays += 1
            return
        # Forward first, then deliver: the relay's egress work is queued
        # before any protocol reaction to the payload, a fixed order that
        # keeps bandwidth/jitter draws deterministic.
        replicas = tuple(net._replicas)
        for child in self._children(root, replicas, dst):
            net.send(dst, child, envelope)
            self.relays += 1
        net.deliver_local(root, dst, inner, process)

    def stats_dict(self) -> Dict[str, float]:
        return {
            "strategy": self.name,
            "fanout": self.fanout,
            "direct_broadcasts": self.direct_broadcasts,
            "tree_broadcasts": self.tree_broadcasts,
            "relays": self.relays,
            "dead_relays": self.dead_relays,
        }


class GossipDissemination(Dissemination):
    """Seeded push gossip with duplicate suppression and TTL."""

    name = "gossip"
    kinds = (GOSSIP_KIND,)

    def __init__(self, fanout: int, *, seed: int = 0) -> None:
        if fanout < 1:
            raise ValueError("gossip fanout must be >= 1")
        self.fanout = fanout
        self.seed = seed
        self.pushes = 0
        self.duplicates_suppressed = 0
        self.deliveries = 0
        #: Per-origin envelope sequence: only the origin increments its
        #: counter, so it is a function of the origin's own timeline.
        self._next_seq: Dict[int, int] = {}
        #: (dst, origin, seq) receipts already delivered.  Each relay
        #: forwards a fresh envelope with its own ``Message.uid``, so the
        #: explicit (origin, seq) pair is what identifies one broadcast.
        self._seen: Set[Tuple[int, int, int]] = set()

    def _ttl(self, n: int) -> int:
        # Enough hops for fanout^ttl to cover n with slack.
        ttl = 1
        reach = self.fanout
        while reach < n and ttl < 16:
            reach *= self.fanout
            ttl += 1
        return ttl + 1

    def _peers(
        self,
        replicas: Tuple[int, ...],
        origin: int,
        seq: int,
        relay: int,
    ) -> List[int]:
        """``fanout`` distinct peers for ``relay`` to push to.

        A pure function of (seed, origin, seq, relay): no shared RNG
        stream is consumed, so the peer sets never depend on global event
        interleaving.
        """
        pool = [p for p in replicas if p != relay and p != origin]
        token = f"{self.seed}|{origin}|{seq}|{relay}".encode()
        return seeded_sample(token, pool, self.fanout)

    def broadcast(
        self, net: "Network", src: int, message: Message, include_self: bool
    ) -> int:
        replicas = tuple(net._replicas)
        seq = self._next_seq.get(src, 0)
        self._next_seq[src] = seq + 1
        attempts = 0
        if include_self and src in replicas:
            net.send(src, src, message)
            attempts += 1
        ttl = self._ttl(len(replicas))
        envelope = Message(
            GOSSIP_KIND,
            (src, seq, ttl, message),
            message.size + GOSSIP_HEADER_BYTES,
        )
        # The origin never re-receives its own envelope (peers exclude the
        # origin), so mark it seen only for bookkeeping symmetry.
        self._seen.add((src, src, seq))
        for peer in self._peers(replicas, src, seq, src):
            net.send(src, peer, envelope)
            self.pushes += 1
            attempts += 1
        return attempts

    def on_envelope(
        self, net: "Network", src: int, dst: int, envelope: Message
    ) -> None:
        origin, seq, ttl, inner = envelope.payload
        process = net._processes.get(dst)
        if process is None or process.crashed:
            return
        key = (dst, origin, seq)
        if key in self._seen:
            self.duplicates_suppressed += 1
            return
        self._seen.add(key)
        # Push first, then deliver (same fixed order as the tree relay).
        if ttl > 1:
            replicas = tuple(net._replicas)
            forward = Message(
                GOSSIP_KIND,
                (origin, seq, ttl - 1, inner),
                envelope.size,
            )
            for peer in self._peers(replicas, origin, seq, dst):
                net.send(dst, peer, forward)
                self.pushes += 1
        self.deliveries += 1
        net.deliver_local(origin, dst, inner, process)

    def stats_dict(self) -> Dict[str, float]:
        return {
            "strategy": self.name,
            "fanout": self.fanout,
            "pushes": self.pushes,
            "deliveries": self.deliveries,
            "duplicates_suppressed": self.duplicates_suppressed,
        }


__all__ = [
    "DISSEMINATION_STRATEGIES",
    "Dissemination",
    "TreeDissemination",
    "GossipDissemination",
    "make_dissemination",
    "seeded_sample",
    "TREE_KIND",
    "GOSSIP_KIND",
]
