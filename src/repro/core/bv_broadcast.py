"""Binary Value Broadcast (Mostéfaoui, Moumen & Raynal [25]).

The reliable broadcast abstraction for *binary* values used by DBFT rounds
after the first (round 1 is handled by the richer VVB, Algorithm 1).  For
each (instance, round):

- a process broadcasts a vote for its estimate ``b``;
- on receiving ``f+1`` votes for a value it has not voted, it relays that
  value (so a value supported by one correct process reaches all);
- on receiving ``2f+1`` votes for a value, it *delivers* the value into
  ``bin_values``.

Guarantees (with ``f < n/3``): every delivered value was voted by a correct
process (BV-Justification), correct processes eventually deliver the same
set (BV-Uniformity), and at least one value is delivered (BV-Obligation).
"""

from __future__ import annotations

from typing import Any, Callable, List, Set

from repro.core.services import ProtocolServices

#: Message kind for BV votes.  Payload: {iid, round, b}.
BV_KIND = "lyra.bv"


class BinaryValueBroadcast:
    """One (instance, round) endpoint of BV-broadcast at one process."""

    __slots__ = (
        "services",
        "iid",
        "round_no",
        "on_deliver",
        "_votes",
        "_voted",
        "delivered",
    )

    def __init__(
        self,
        services: ProtocolServices,
        iid: Any,
        round_no: int,
        on_deliver: Callable[[int], None],
    ) -> None:
        self.services = services
        self.iid = iid
        self.round_no = round_no
        self.on_deliver = on_deliver
        #: Voters per value, as bitmasks over sender pids.
        self._votes: List[int] = [0, 0]
        self._voted: Set[int] = set()
        self.delivered: Set[int] = set()

    # ------------------------------------------------------------------
    def broadcast_estimate(self, b: int) -> None:
        """Vote for our estimate (idempotent per value)."""
        self._vote(b)

    def _vote(self, b: int) -> None:
        if b in self._voted:
            return
        self._voted.add(b)
        self.services.broadcast(
            BV_KIND, {"iid": self.iid, "round": self.round_no, "b": b}
        )
        # Our own vote counts: the network echoes broadcasts back to self,
        # but counting here too keeps the primitive usable without echo.
        self._record(b, self.services.pid)

    def on_vote(self, b: int, sender: int) -> None:
        """Handle a BV vote from ``sender``."""
        if b not in (0, 1):
            return  # malformed (Byzantine) vote
        self._record(b, sender)

    def _record(self, b: int, sender: int) -> None:
        votes = self._votes
        i = 1 if b else 0  # ``b`` may be any wire value equal to 0 or 1
        bit = 1 << sender
        if votes[i] & bit:
            return
        votes[i] |= bit
        if votes[i].bit_count() >= self.services.small_quorum and b not in self._voted:
            self._vote(b)  # records our own vote as well
        if votes[i].bit_count() >= self.services.quorum and b not in self.delivered:
            self.delivered.add(b)
            self.on_deliver(b)


__all__ = ["BinaryValueBroadcast", "BV_KIND"]
