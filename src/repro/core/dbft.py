"""Modified DBFT binary consensus — Algorithm 3 of the paper.

DBFT [8] is a leaderless (weak-coordinator) binary Byzantine consensus.
Lyra modifies it by replacing the round-1 Binary Value Broadcast with the
Validating Value Broadcast (Algorithm 1), so that deciding the binary value
1 *also* reliably delivers the broadcaster's message ``m = (c_t, S_t)`` and
proves a supermajority validated it.  Rounds ≥ 2 (only reached when the
network is misbehaving or the broadcaster is faulty) fall back to plain
BV-broadcast of the current estimate — VVB with a trivial validation
function, as §IV-A1 notes.

Round structure at process ``p_i`` (round ``r``):

1. broadcast the estimate via VVB (r = 1) / BV-broadcast (r ≥ 2),
   start a Δ timer;
2. the round's coordinator (``r mod n``) broadcasts the first value ``w``
   delivered into its ``vvals`` (COORD);
3. once ``vvals ≠ ∅`` *and* the timer expired, broadcast AUX carrying
   ``{c}`` if the coordinator's value ``c`` is in ``vvals``, else ``vvals``;
4. wait for AUX contents from ``n - f`` distinct senders, all of whose
   values are in ``vvals``; if they form a singleton ``{v}``, adopt ``v``
   and decide it when ``v = r mod 2``; otherwise adopt the parity bit.

A process keeps participating for two rounds after deciding (line 50) so
that lagging correct processes terminate too.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.bv_broadcast import BinaryValueBroadcast
from repro.core.services import ProtocolServices
from repro.core.vvb import VvbInstance

COORD_KIND = "lyra.coord"
AUX_KIND = "lyra.aux"

#: Hard cap on rounds — a livelock backstop for tests; DBFT terminates in
#: O(1) expected rounds after GST so hitting this indicates a bug or an
#: adversarial schedule longer than any experiment we run.
DEFAULT_MAX_ROUNDS = 64

#: Quorum bookkeeping is kept in integers, not sets.  A set of binary
#: values is a 2-bit mask (bit ``b`` set iff ``b`` is a member: 1 = {0},
#: 2 = {1}, 3 = {0, 1}), a set of senders is a bitmask over pids, a set of
#: rounds a bitmask over round numbers.  A node holds one of these per
#: (instance, round, sender) received, so at n = 32 the set/frozenset
#: versions were the largest single item on the heap.  ``_WIRE[mask]`` is
#: the AUX wire form of a non-empty value mask.
_WIRE = (None, (0,), (1,), (0, 1))


class BinaryConsensus:
    """One BOC consensus instance (Algorithm 3) at one process.

    A host runs one of these per live instance, so every callback is
    handed the instance's ``iid`` — ``on_decide(iid, v, m)``,
    ``on_message(iid, m)`` and the VVB's ``validate``/``on_vote_seq`` —
    and one bound method of the host serves all of them: constructing an
    instance allocates no closure."""

    __slots__ = (
        "services",
        "iid",
        "_on_decide",
        "_on_message",
        "max_rounds",
        "round",
        "est",
        "decided",
        "decided_round",
        "closed",
        "started",
        "delivered_message",
        "vvb",
        "_vvals",
        "_aux",
        "_coord",
        "_coord_sent",
        "_timer_expired",
        "_aux_sent",
        "_advanced",
        "_bv",
        "__weakref__",
    )

    def __init__(
        self,
        services: ProtocolServices,
        iid: Any,
        *,
        validate: Callable[[Any, Any, Tuple[int, ...]], bool],
        on_decide: Callable[[Any, int, Optional[Tuple[Any, Tuple[int, ...]]]], None],
        perceive: Optional[Callable[[Any], int]] = None,
        on_vote_seq: Optional[Callable[[Any, int, int], None]] = None,
        on_message: Optional[Callable[[Any, Tuple[Any, Tuple[int, ...]]], None]] = None,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
    ) -> None:
        self.services = services
        self.iid = iid
        self._on_decide = on_decide
        self._on_message = on_message
        self.max_rounds = max_rounds

        self.round = 1
        self.est: Optional[int] = None
        self.decided: Optional[int] = None
        self.decided_round: Optional[int] = None
        self.closed = False
        self.started = False
        self.delivered_message: Optional[Tuple[Any, Tuple[int, ...]]] = None

        self.vvb = VvbInstance(
            services,
            iid,
            validate=validate,
            on_deliver=self._vv1_deliver,
            on_vote_seq=on_vote_seq,
            perceive=perceive,
        )

        #: round -> value mask delivered into ``vvals`` so far.
        self._vvals: Dict[int, int] = {}
        #: round -> sender masks of the AUX messages received, indexed by
        #: the value mask each carried; index 0 is everyone heard from
        #: (one AUX per sender counts).
        self._aux: Dict[int, List[int]] = {}
        self._coord: Dict[int, int] = {}
        # Sets of round numbers, as bitmasks.
        self._coord_sent = 0
        self._timer_expired = 0
        self._aux_sent = 0
        self._advanced = 0
        self._bv: Dict[int, BinaryValueBroadcast] = {}

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def propose(self, cipher: Any, preds: Tuple[int, ...]) -> None:
        """``bin-propose`` at the broadcaster: vv-broadcast ``m``."""
        self.join()
        self.vvb.start(cipher, preds)

    def join(self) -> None:
        """Start participating (called on the first sign of the instance)."""
        if self.started or self.closed:
            return
        self.started = True
        self._start_round_timer(1)

    # ------------------------------------------------------------------
    # Round-state accessors
    # ------------------------------------------------------------------
    def _bv_for(self, r: int) -> BinaryValueBroadcast:
        bv = self._bv.get(r)
        if bv is None:
            bv = self._bv[r] = BinaryValueBroadcast(
                self.services, self.iid, r, self._deliver_value
            )
        return bv

    def coordinator_of(self, r: int) -> int:
        return r % self.services.n

    # ------------------------------------------------------------------
    # Message handlers (dispatched by the host node).  Each runs once per
    # delivered message, so the already-joined case is tested inline
    # instead of calling join() to find out.
    # ------------------------------------------------------------------
    def on_init(self, payload: dict, sender: int) -> None:
        if not self.started:
            self.join()
        self.vvb.on_init(payload, sender)

    def on_vote1(self, payload: dict, sender: int) -> None:
        if not self.started:
            self.join()
        self.vvb.on_vote1(payload, sender)

    def on_vote0(self, payload: dict, sender: int) -> None:
        if not self.started:
            self.join()
        self.vvb.on_vote0(payload, sender)

    def on_deliver(self, payload: dict, sender: int) -> None:
        if not self.started:
            self.join()
        self.vvb.on_deliver(payload, sender)

    def on_fetch(self, payload: dict, sender: int) -> None:
        self.vvb.on_fetch(payload, sender)

    def on_bv(self, payload: dict, sender: int) -> None:
        if not self.started:
            self.join()
        r = payload.get("round", 0)
        if not isinstance(r, int) or r < 2 or r > self.max_rounds:
            return
        self._bv_for(r).on_vote(payload.get("b"), sender)

    def on_coord(self, payload: dict, sender: int) -> None:
        if not self.started:
            self.join()
        r = payload.get("round", 0)
        w = payload.get("w")
        if not isinstance(r, int) or r < 1 or w not in (0, 1):
            return
        if sender != self.coordinator_of(r) or r in self._coord:
            return
        self._coord[r] = w
        self._maybe_send_aux(r)

    def on_aux(self, payload: dict, sender: int) -> None:
        if not self.started:
            self.join()
        r = payload.get("round", 0)
        e = payload.get("e")
        if not isinstance(r, int) or r < 1 or not isinstance(e, (tuple, list)):
            return
        values = 0
        for v in e:
            if v in (0, 1):
                values |= 2 if v else 1
        if not values:
            return
        aux = self._aux.get(r)
        if aux is None:
            aux = self._aux[r] = [0, 0, 0, 0]
        bit = 1 << sender
        if not aux[0] & bit:
            aux[0] |= bit
            aux[values] |= bit
            self._try_complete(r)

    # ------------------------------------------------------------------
    # Internal: value delivery into vvals
    # ------------------------------------------------------------------
    def _vv1_deliver(
        self, b: int, m: Optional[Tuple[Any, Tuple[int, ...]]]
    ) -> None:
        if b == 1 and m is not None and self.delivered_message is None:
            self.delivered_message = m
            if self._on_message is not None:
                self._on_message(self.iid, m)
        self._deliver_value(1, b)

    def _deliver_value(self, r: int, b: int) -> None:
        if self.closed:
            return
        vvals = self._vvals.get(r, 0)
        bit = 2 if b else 1
        if vvals & bit:
            return
        self._vvals[r] = vvals | bit
        # Coordinator duty (lines 37-39): broadcast the first value.
        if (
            self.services.pid == self.coordinator_of(r)
            and not self._coord_sent >> r & 1
        ):
            self._coord_sent |= 1 << r
            self.services.broadcast(
                COORD_KIND, {"iid": self.iid, "round": r, "w": b}, 10
            )
        self._maybe_send_aux(r)
        self._try_complete(r)

    # ------------------------------------------------------------------
    # Internal: round progression
    # ------------------------------------------------------------------
    def _start_round_timer(self, r: int) -> None:
        assert self.services.timers is not None
        self.services.timers.set(
            f"dbft-{self.iid}-r{r}",
            self.services.delta_us,
            partial(self._on_round_timer, r),
        )

    def _on_round_timer(self, r: int) -> None:
        self._timer_expired |= 1 << r
        self._maybe_send_aux(r)

    def _maybe_send_aux(self, r: int) -> None:
        """Line 40-42: once vvals ≠ ∅ and the timer expired, broadcast AUX."""
        if self.closed or r != self.round or self._aux_sent >> r & 1:
            return
        vvals = self._vvals.get(r, 0)
        if not vvals or not self._timer_expired >> r & 1:
            return
        c = self._coord.get(r)
        # {c} when the coordinator's value is in vvals, else vvals itself.
        e = (c is not None and vvals & (2 if c else 1)) or vvals
        wire = _WIRE[e]
        self._aux_sent |= 1 << r
        self.services.broadcast(
            AUX_KIND,
            {"iid": self.iid, "round": r, "e": wire},
            10 + 2 * len(wire),
        )
        self._try_complete(r)

    def _try_complete(self, r: int) -> None:
        """Lines 43-51: evaluate the AUX quorum condition and advance.

        An AUX counts once its value set is a subset of ``vvals``.  Both
        only grow, so the eligible senders are exactly the sender masks of
        the value sets ``vvals`` covers — three popcounts, no per-sender
        state.  This runs once per AUX receipt and per vvals growth,
        making it a protocol hot path at large n."""
        if self.closed or r != self.round or self._advanced >> r & 1:
            return
        if not self._aux_sent >> r & 1:
            return
        aux = self._aux.get(r)
        if aux is None:
            return
        vvals = self._vvals.get(r, 0)
        zeros = aux[1].bit_count() if vvals & 1 else 0
        ones = aux[2].bit_count() if vvals & 2 else 0
        both = aux[3].bit_count() if vvals == 3 else 0
        quorum = self.services.quorum
        if zeros + ones + both < quorum:
            return
        # A quorum of identical singletons {v} adopts v (deciding it when
        # v = r mod 2); any other eligible quorum spans both values, and
        # the estimate falls back to the round's parity bit.
        if ones >= quorum or zeros >= quorum:
            self.est = v = 1 if ones >= quorum else 0
            if v == r % 2 and self.decided is None:
                self._decide(v, r)
        else:
            self.est = r % 2
        self._advance(r)

    def _decide(self, v: int, r: int) -> None:
        self.decided = v
        self.decided_round = r
        message = self.delivered_message if v == 1 else None
        if v == 1 and message is None:
            # Decided 1 via amplified estimates without holding m: recover
            # it through the VVB fetch path; on arrival ``on_message`` fires.
            self.request_message()
        self._on_decide(self.iid, v, message)

    def request_message(self) -> None:
        """Broadcast a FETCH so any holder of the INIT re-sends it."""
        self.services.broadcast("lyra.fetch", {"iid": self.iid}, 8)

    def _advance(self, r: int) -> None:
        self._advanced |= 1 << r
        if self.decided_round is not None and r >= self.decided_round + 2:
            self.close()
            return
        if r + 1 > self.max_rounds:
            self.close()
            return
        self.round = r + 1
        self._start_round(self.round)

    def _start_round(self, r: int) -> None:
        if self.est in (0, 1):
            self._bv_for(r).broadcast_estimate(self.est)
        self._start_round_timer(r)
        # Early messages for this round may already satisfy the conditions.
        self._maybe_send_aux(r)
        self._try_complete(r)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop participating: cancel this instance's timers.

        The instance keeps answering what does not need a live round —
        BV relays, VVB votes and proofs, FETCH — until its host calls
        :meth:`discard`."""
        if self.closed:
            return
        self.closed = True
        assert self.services.timers is not None
        self.services.timers.cancel(f"vvb-expire-{self.iid}")
        for r in range(1, self.round + 1):
            self.services.timers.cancel(f"dbft-{self.iid}-r{r}")

    def discard(self) -> None:
        """Close, and drop the VVB and BV endpoints.

        Their delivery callbacks point back at this instance, so a host
        that merely forgets a finished instance leaves a reference cycle
        behind — and the event loop runs with the cyclic collector off.
        Only for an instance that will be handed no further message."""
        self.close()
        self.vvb = None
        self._bv.clear()


__all__ = ["BinaryConsensus", "COORD_KIND", "AUX_KIND", "DEFAULT_MAX_ROUNDS"]
