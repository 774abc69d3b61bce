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

from typing import Any, Callable, FrozenSet

from repro.core.services import ProtocolServices

#: Message kind for BV votes.  Payload: {iid, round, b}.
BV_KIND = "lyra.bv"

#: A set of binary values is kept as a 2-bit mask (bit ``b`` set iff ``b``
#: is a member: 1 = {0}, 2 = {1}, 3 = {0, 1}); ``VALUE_SETS[mask]`` is the
#: read-only set view of a mask.
VALUE_SETS = (frozenset(), frozenset((0,)), frozenset((1,)), frozenset((0, 1)))


class BinaryValueBroadcast:
    """One (instance, round) endpoint of BV-broadcast at one process.

    ``on_deliver(round_no, b)`` is called once per delivered value, so
    every round of one consensus instance can report to the same bound
    method."""

    __slots__ = (
        "services",
        "iid",
        "round_no",
        "on_deliver",
        "_votes0",
        "_votes1",
        "_voted",
        "_delivered",
    )

    def __init__(
        self,
        services: ProtocolServices,
        iid: Any,
        round_no: int,
        on_deliver: Callable[[int, int], None],
    ) -> None:
        self.services = services
        self.iid = iid
        self.round_no = round_no
        self.on_deliver = on_deliver
        #: Voters for 0 and for 1, as bitmasks over sender pids.
        self._votes0 = 0
        self._votes1 = 0
        #: Values voted and delivered, as value masks.
        self._voted = 0
        self._delivered = 0

    @property
    def delivered(self) -> FrozenSet[int]:
        """The values delivered so far (a read-only view)."""
        return VALUE_SETS[self._delivered]

    # ------------------------------------------------------------------
    def broadcast_estimate(self, b: int) -> None:
        """Vote for our estimate (idempotent per value)."""
        self._vote(b)

    def _vote(self, b: int) -> None:
        bit = 2 if b else 1
        if self._voted & bit:
            return
        self._voted |= bit
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
        bit = 1 << sender
        if b:  # ``b`` may be any wire value equal to 0 or 1
            if self._votes1 & bit:
                return
            votes = self._votes1 = self._votes1 | bit
            value_bit = 2
        else:
            if self._votes0 & bit:
                return
            votes = self._votes0 = self._votes0 | bit
            value_bit = 1
        if (
            votes.bit_count() >= self.services.small_quorum
            and not self._voted & value_bit
        ):
            self._vote(b)  # records our own vote as well
            votes = self._votes1 if b else self._votes0  # so count again
        if (
            votes.bit_count() >= self.services.quorum
            and not self._delivered & value_bit
        ):
            self._delivered |= value_bit
            self.on_deliver(self.round_no, b)


__all__ = ["BinaryValueBroadcast", "BV_KIND", "VALUE_SETS"]
