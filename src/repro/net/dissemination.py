"""Relay-tree broadcast dissemination.

Lyra's BOC and commit phases are broadcast-heavy: with the default
``all2all`` strategy every replica pushes every broadcast to all n-1 peers,
so wire complexity per instance is O(n²) — fine at n=32, dominant at the
paper's n=100.  ``ExperimentConfig.dissemination`` picks one of two
strategies:

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

Relays forward at the *network* layer on delivery (before handing the
inner message to the local process), so relay egress consumes the relay's
bandwidth queue and per-source jitter stream — the cost model sees relayed
traffic exactly like first-class sends.  The inner message is always
delivered with the *origin* as its sender: protocols key state by sender
pid and signatures are the origin's.

A crashed relay starves its subtree for good: no protocol here re-pulls a
broadcast it never received, so every envelope routed through a dead
relay is lost to the replicas below it.  Relay trees are therefore not
crash-tolerant until a repair path exists (EXPERIMENTS.md "Dissemination
strategies").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import Network

#: Envelope kind (namespaced like ``net.frame``/``net.ack``).
TREE_KIND = "net.tree"

#: Envelope framing overhead on top of the inner message: root id, flags.
TREE_HEADER_BYTES = 16

#: Valid values of ``ExperimentConfig.dissemination``.
DISSEMINATION_STRATEGIES = ("all2all", "tree")


class TreeDissemination:
    """Deterministic k-ary relay tree per sender (heap layout)."""

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
        #: Envelopes that died at a crashed relay.  Nothing re-sends them,
        #: so the relay's subtree never receives that broadcast.
        self.dead_relays = 0
        # (root, replicas tuple) -> (heap order, {pid: heap position}).
        self._layouts: Dict[tuple, Tuple[List[int], Dict[int, int]]] = {}

    def _children(
        self, root: int, replicas: Tuple[int, ...], pid: int
    ) -> List[int]:
        layout = self._layouts.get((root, replicas))
        if layout is None:
            order = [root] + [p for p in replicas if p != root]
            layout = (order, {p: i for i, p in enumerate(order)})
            self._layouts[(root, replicas)] = layout
        order, positions = layout
        pos = positions.get(pid)
        if pos is None:
            return []
        k = self.fanout
        lo = k * pos + 1
        return order[lo : lo + k]

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
            # A dead relay starves its subtree: no protocol re-pulls the
            # broadcast, so the replicas below never receive it.
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
            "strategy": "tree",
            "fanout": self.fanout,
            "direct_broadcasts": self.direct_broadcasts,
            "tree_broadcasts": self.tree_broadcasts,
            "relays": self.relays,
            "dead_relays": self.dead_relays,
        }


__all__ = [
    "DISSEMINATION_STRATEGIES",
    "TreeDissemination",
    "TREE_KIND",
]
