"""HotStuff [30]: leader-based three-phase BFT consensus.

This is the consensus substrate under Pompē.  One leader per view drives
three phases per height — PREPARE, PRECOMMIT, COMMIT — each closed by a
quorum certificate (QC) of 2f+1 threshold-signature shares, followed by a
DECIDE broadcast.  Heights are pipelined (the leader keeps up to
``max_inflight`` heights running), which is what gives HotStuff its
throughput on real deployments.

View changes: replicas arm a view timer; if a view makes no progress, they
broadcast VIEWCHANGE votes, and 2f+1 of them move everyone to the next
view whose leader is ``view mod n``.  Payloads from abandoned heights are
re-submitted by their originators (duplicate execution is prevented by
payload-id dedup at the execution layer) — a simplification of HotStuff's
lockedQC machinery that preserves the behaviours our experiments exercise:
leader bottleneck, leader crash recovery, and leader censorship.

Pipelined decides can arrive out of height order (jitter, retransmission),
so decided blocks are handed to ``on_decide`` strictly by height: a block
waits until every lower height has been handed over.  A view change
abandons the undecided heights below the highest decided one: the blocks
waiting above them are handed over in height order on entering the new
view.  A block that later decides at an abandoned height (a new leader
that had not seen the higher decides re-uses it) is lower than everything
still waiting, so it is handed over at once.

The participant is payload-agnostic: Pompē feeds it ordering certificates,
and tests feed it opaque blobs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.services import ProtocolServices
from repro.crypto.hashing import digest_of
from repro.crypto.threshold import SignatureShare, ThresholdError, ThresholdSignature

PROPOSE_KIND = "hs.propose"
VOTE_KIND = "hs.vote"  # payload carries the phase
PHASE_KIND = "hs.phase"  # PRECOMMIT / COMMIT / DECIDE broadcasts with a QC
VIEWCHANGE_KIND = "hs.viewchange"
REQUEST_KIND = "hs.request"  # a payload broadcast for the leader to sequence

PHASES = ("prepare", "precommit", "commit")


@dataclass(frozen=True)
class Block:
    """One pipelined proposal."""

    view: int
    height: int
    payloads: Tuple[Any, ...]
    watermark: int  # execution stability watermark (set by the leader)
    digest: bytes

    @classmethod
    def build(
        cls, view: int, height: int, payloads: Sequence[Any], watermark: int
    ) -> "Block":
        payload_ids = tuple(
            getattr(p, "payload_id", None) or digest_of(repr(p)) for p in payloads
        )
        digest = digest_of((view, height, payload_ids, watermark))
        return cls(view, height, tuple(payloads), watermark, digest)

    def wire_size(self) -> int:
        return 32 + 16 + sum(
            int(p.wire_size() if hasattr(p, "wire_size") else 64)
            for p in self.payloads
        )

    def canonical(self) -> tuple:
        return (self.view, self.height, self.digest)


@dataclass(frozen=True)
class QuorumCert:
    """A phase QC: 2f+1 combined shares over (block digest, phase)."""

    block_digest: bytes
    phase: str
    signature: ThresholdSignature

    def wire_size(self) -> int:
        return 32 + 8 + self.signature.wire_size()


#: Entries the vote-digest memo may hold before it is cleared.
_VOTE_DIGEST_MEMO_MAX = 1 << 12

_vote_digest_memo: Dict[Tuple[bytes, str], bytes] = {}


def _vote_digest(block_digest: bytes, phase: str) -> bytes:
    """What a phase vote signs: H(block digest, phase).

    Memoized: every replica derives the same digest for each (block,
    phase) on every vote, share check and QC check, so one SHA-256 serves
    the whole cluster."""
    key = (block_digest, phase)
    digest = _vote_digest_memo.get(key)
    if digest is None:
        if len(_vote_digest_memo) >= _VOTE_DIGEST_MEMO_MAX:
            _vote_digest_memo.clear()
        digest = _vote_digest_memo[key] = digest_of(key)
    return digest


class HotStuffParticipant:
    """One replica's HotStuff endpoint (leader duties included).

    Callbacks:
    - ``on_decide(block)`` — the block is final; execute its payloads.
    - ``report_clock()`` — returns this replica's clock, piggybacked on
      votes so the leader can compute execution watermarks (Pompē).
    """

    def __init__(
        self,
        services: ProtocolServices,
        *,
        on_decide: Callable[[Block], None],
        report_clock: Optional[Callable[[], int]] = None,
        max_inflight: int = 8,
        view_timeout_us: Optional[int] = None,
        batch_certs: int = 4,
        on_stale: Optional[Callable[[Any], None]] = None,
    ) -> None:
        self.services = services
        self.on_decide = on_decide
        self.on_stale = on_stale
        self.report_clock = report_clock or (lambda: 0)
        self.max_inflight = max_inflight
        self.view_timeout_us = view_timeout_us or 8 * services.delta_us
        self.batch_certs = batch_certs

        self.view = 0
        self.next_height = 0
        self.decided_heights: Set[int] = set()
        self.blocks: Dict[int, Block] = {}  # height -> block we voted on
        self._voted: Dict[Tuple[int, str], bool] = {}
        self._queue: List[Any] = []  # leader: pending payloads
        # Leader: the shares collected per (height, phase); ``None`` once
        # that phase's QC is formed.
        self._leader_shares: Dict[
            Tuple[int, str], Optional[Dict[int, SignatureShare]]
        ] = {}
        self._leader_blocks: Dict[int, Block] = {}
        self._inflight: Set[int] = set()
        self._clock_reports: Dict[int, int] = {}
        self._viewchange_votes: Dict[int, Set[int]] = {}
        self._sent_viewchange: Set[int] = set()
        self._progress_marker = 0  # protocol activity; used by the view timer
        # Highest execution watermark ever published/observed.  Invariant
        # maintained by correct leaders: no block proposed after a
        # watermark ``w`` was published carries a payload with
        # ``assigned_ts <= w`` (stale payloads are bounced to ``on_stale``
        # for re-ordering), which is what makes timestamp-ordered
        # execution behind the watermark safe.
        self._wm_floor = 0
        self._decided_payloads: Set[bytes] = set()
        self._inflight_payloads: Set[bytes] = set()
        # Outstanding requests every replica tracks (requests are
        # broadcast): keeps view timers hot when the leader stalls, and
        # lets a new leader re-propose orphaned payloads after a view
        # change.
        self._tracked_requests: Dict[bytes, Any] = {}
        # Decided blocks not yet handed to ``on_decide`` (each with its
        # payload-free record), by height, and the next height to hand over.
        self._undelivered: Dict[int, Tuple[Block, Block]] = {}
        self._next_delivery = 0
        # Handed-over heights, in hand-over order, as payload-free records.
        self.decided_blocks: List[Block] = []
        self._started = False

    # ------------------------------------------------------------------
    @property
    def leader(self) -> int:
        return self.view % self.services.n

    @property
    def is_leader(self) -> bool:
        return self.services.pid == self.leader

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._arm_view_timer()

    # ------------------------------------------------------------------
    # Client/orderer entry point
    # ------------------------------------------------------------------
    def submit(self, payload: Any) -> None:
        """Hand a payload to the current leader (or queue it if we lead)."""
        if self.is_leader:
            self._queue.append(payload)
            self._maybe_propose()
        else:
            pid_ = getattr(payload, "payload_id", None)
            if pid_ is not None:
                if pid_ in self._decided_payloads:
                    return
                self._tracked_requests[pid_] = payload
            size = int(payload.wire_size() if hasattr(payload, "wire_size") else 64)
            # Broadcast so every replica tracks the request (PBFT-style):
            # a stalling leader is then detected by a quorum, not just by
            # the originator.
            self.services.broadcast(REQUEST_KIND, {"payload": payload}, size)

    def on_request(self, payload: dict, sender: int) -> None:
        item = payload.get("payload")
        pid_ = getattr(item, "payload_id", None)
        if pid_ is not None and type(pid_) is not bytes:
            self.services.on_malformed()
            return
        if pid_ is not None and pid_ in self._decided_payloads:
            return
        if self.is_leader:
            self._queue.append(item)
            self._maybe_propose()
        elif pid_ is not None:
            self._tracked_requests[pid_] = item

    def heartbeat(self) -> None:
        """Leader-only: propose an empty block so execution watermarks keep
        advancing when no payloads are queued (Pompē needs a later block's
        watermark to release the last committed certificates)."""
        if not self.is_leader or self._queue or self._inflight:
            return
        block = Block.build(self.view, self.next_height, (), self._wm_floor)
        self.next_height += 1
        self._inflight.add(block.height)
        self._leader_blocks[block.height] = block
        self.services.broadcast(
            PROPOSE_KIND, {"block": block}, block.wire_size() + 96
        )

    # ------------------------------------------------------------------
    # Leader: proposing and QC assembly
    # ------------------------------------------------------------------
    def _watermark(self) -> int:
        """The execution stability watermark: a timestamp such that at
        least 2f+1 replicas' clocks have passed it (so no new ordering
        certificate can be assigned a median below it), minus a Δ slack
        for in-flight ordering phases."""
        clocks = sorted(self._clock_reports.values(), reverse=True)
        k = 2 * self.services.f + 1
        if len(clocks) < k:
            return 0
        return clocks[k - 1] - self.services.delta_us

    def _filter_stale(self, payloads):
        """Bounce payloads whose timestamp is at or below the published
        watermark floor — they must be re-ordered with fresh timestamps."""
        fresh = []
        for p in payloads:
            ts = getattr(p, "assigned_ts", None)
            if ts is not None and ts <= self._wm_floor:
                pid_ = getattr(p, "payload_id", None)
                if pid_ is not None:
                    self._inflight_payloads.discard(pid_)
                if self.on_stale is not None:
                    self.on_stale(p)
                continue
            fresh.append(p)
        return fresh

    def _pending_min_ts(self, exclude_height: Optional[int] = None) -> Optional[int]:
        """Lowest assigned timestamp among payloads the leader still owes
        (queued, in flight, or decided but waiting for a lower height to be
        handed over), excluding the block currently being decided — its own
        payloads are released by the watermark it carries."""
        lows = []
        for p in self._queue:
            ts = getattr(p, "assigned_ts", None)
            if ts is not None:
                lows.append(ts)
        blocks = [self._leader_blocks.get(h) for h in self._inflight if h != exclude_height]
        blocks.extend(block for block, _ in self._undelivered.values())
        for block in blocks:
            if block is None:
                continue
            for p in block.payloads:
                ts = getattr(p, "assigned_ts", None)
                if ts is not None:
                    lows.append(ts)
        return min(lows) if lows else None

    def _maybe_propose(self) -> None:
        if not self.is_leader:
            return
        while self._queue and len(self._inflight) < self.max_inflight:
            take = min(self.batch_certs, len(self._queue))
            payloads, self._queue = self._queue[:take], self._queue[take:]
            payloads = [
                p
                for p in payloads
                if getattr(p, "payload_id", None) not in self._decided_payloads
                and getattr(p, "payload_id", None) not in self._inflight_payloads
            ]
            payloads = self._filter_stale(payloads)
            if not payloads:
                continue
            for p in payloads:
                pid_ = getattr(p, "payload_id", None)
                if pid_ is not None:
                    self._inflight_payloads.add(pid_)
            block = Block.build(
                self.view, self.next_height, payloads, self._wm_floor
            )
            self.next_height += 1
            self._inflight.add(block.height)
            self._leader_blocks[block.height] = block
            self.services.broadcast(
                PROPOSE_KIND,
                {"block": block},
                block.wire_size() + 96,
            )

    def on_propose(self, payload: dict, sender: int) -> None:
        block = payload.get("block")
        if not (
            isinstance(block, Block)
            and type(block.view) is int
            and type(block.height) is int
            and type(block.watermark) is int
            and type(block.payloads) is tuple
        ):
            self.services.on_malformed()
            return
        self._progress_marker += 1
        if sender != block.view % self.services.n or block.view != self.view:
            return  # not from the current leader
        if block.height in self.decided_heights:
            return
        self.blocks[block.height] = block
        self._vote(block, "prepare")

    def _vote(self, block: Block, phase: str) -> None:
        key = (block.height, phase)
        if self._voted.get(key):
            return
        self._voted[key] = True
        share = self.services.threshold_signer.share_sign(
            _vote_digest(block.digest, phase)
        )
        self.services.send(
            self.leader,
            VOTE_KIND,
            {
                "height": block.height,
                "digest": block.digest,
                "phase": phase,
                "share": share,
                "clock": self.report_clock(),
            },
            share.wire_size() + 56,
        )

    def on_vote(self, payload: dict, sender: int) -> None:
        if not self.is_leader:
            self._progress_marker += 1
            return
        height = payload.get("height")
        phase = payload.get("phase")
        share = payload.get("share")
        digest = payload.get("digest")
        clock = payload.get("clock")
        if (
            type(height) is not int
            or phase not in PHASES
            or not isinstance(share, SignatureShare)
        ):
            self.services.on_malformed()
            return
        self._progress_marker += 1
        if isinstance(clock, int):
            prev = self._clock_reports.get(sender, 0)
            self._clock_reports[sender] = max(prev, clock)
        block = self._leader_blocks.get(height)
        if block is None or block.digest != digest:
            return
        if not self.services.threshold.share_verify(
            _vote_digest(digest, phase), share, sender
        ):
            return
        key = (height, phase)
        bucket = self._leader_shares.setdefault(key, {})
        if bucket is None or sender in bucket:
            return  # the QC is formed, or a repeat share
        bucket[sender] = share
        if len(bucket) >= 2 * self.services.f + 1:
            self._leader_shares[key] = None
            self._advance_phase(block, phase, bucket)

    def _advance_phase(
        self, block: Block, phase: str, shares: Dict[int, SignatureShare]
    ) -> None:
        try:
            full = self.services.threshold.combine(
                _vote_digest(block.digest, phase), shares.values()
            )
        except ThresholdError:  # pragma: no cover - shares pre-verified
            return
        qc = QuorumCert(block.digest, phase, full)
        next_step = {
            "prepare": "precommit",
            "precommit": "commit",
            "commit": "decide",
        }[phase]
        msg = {"height": block.height, "step": next_step, "qc": qc}
        if next_step == "decide":
            # Fresher watermark than the one frozen into the block at
            # propose time — but never at/above the timestamp of a payload
            # the leader still owes, and never regressing (floor).
            candidate = self._watermark()
            pending = self._pending_min_ts(exclude_height=block.height)
            if pending is not None:
                candidate = min(candidate, pending - 1)
            wm = max(self._wm_floor, candidate)
            self._wm_floor = wm
            msg["wm"] = wm
        self.services.broadcast(PHASE_KIND, msg, qc.wire_size() + 16)

    def on_phase(self, payload: dict, sender: int) -> None:
        if sender != self.leader:
            self._progress_marker += 1
            return
        height = payload.get("height")
        step = payload.get("step")
        qc = payload.get("qc")
        if (
            type(height) is not int
            or type(step) is not str
            or not isinstance(qc, QuorumCert)
        ):
            self.services.on_malformed()
            return
        self._progress_marker += 1
        block = self.blocks.get(height) or self._leader_blocks.get(height)
        if block is None or qc.block_digest != block.digest:
            return
        prior_phase = {"precommit": "prepare", "commit": "precommit", "decide": "commit"}.get(step)
        if prior_phase is None:
            return
        if not self.services.threshold.verify_full(
            qc.signature, _vote_digest(block.digest, prior_phase)
        ):
            return
        if step in ("precommit", "commit"):
            self._vote(block, step)
        elif step == "decide":
            wm = payload.get("wm")
            if isinstance(wm, int):
                self._wm_floor = max(self._wm_floor, wm)
                if wm > block.watermark:
                    block = replace(block, watermark=wm)
            self._decide(block)

    def _decide(self, block: Block) -> None:
        if block.height in self.decided_heights:
            return
        self.decided_heights.add(block.height)
        self._inflight.discard(block.height)
        self._progress_marker += 1
        for p in block.payloads:
            pid_ = getattr(p, "payload_id", None)
            if pid_ is not None:
                self._decided_payloads.add(pid_)
                self._inflight_payloads.discard(pid_)
                self._tracked_requests.pop(pid_, None)
        # Late phase traffic for this height reads only its view, height
        # and digest, so the payloads (Pompē's certificates) are dropped.
        record = Block(block.view, block.height, (), block.watermark, block.digest)
        for table in (self.blocks, self._leader_blocks):
            if block.height in table:
                table[block.height] = record
        if block.height < self._next_delivery:
            # An abandoned height re-used after a view change.
            self._hand_over(block, record)
        else:
            self._undelivered[block.height] = (block, record)
            self._hand_over_ready()
        if self.is_leader:
            self._maybe_propose()

    def _hand_over(self, block: Block, record: Block) -> None:
        self.decided_blocks.append(record)
        self.on_decide(block)

    def _hand_over_ready(self) -> None:
        """Hand over the waiting blocks that no lower height holds back."""
        waiting = self._undelivered
        while self._next_delivery in waiting:
            entry = waiting.pop(self._next_delivery)
            self._next_delivery += 1
            self._hand_over(*entry)

    # ------------------------------------------------------------------
    # View changes
    # ------------------------------------------------------------------
    def _arm_view_timer(self) -> None:
        assert self.services.timers is not None
        marker = self._progress_marker
        self.services.timers.set(
            "hs-view",
            self.view_timeout_us,
            lambda: self._view_timer_fired(marker),
        )

    def _view_timer_fired(self, marker: int) -> None:
        idle = (
            not self._inflight
            and not self._queue
            and not self.blocks_pending()
            and not self._tracked_requests
        )
        if self._progress_marker == marker and not idle:
            self._send_viewchange(self.view + 1)
        self._arm_view_timer()

    def blocks_pending(self) -> bool:
        return any(
            h not in self.decided_heights for h in self.blocks
        )

    def payloads_pending(self) -> bool:
        """An undecided block, or a decided one still waiting for a lower
        height, carries payloads.  Unlike :meth:`blocks_pending` this
        ignores the empty heartbeat blocks an idle leader keeps in flight,
        so an idle chain is not work."""
        decided = self.decided_heights
        return any(
            block.payloads
            for h, block in self.blocks.items()
            if h not in decided
        ) or any(block.payloads for block, _ in self._undelivered.values())

    def _send_viewchange(self, new_view: int) -> None:
        if new_view in self._sent_viewchange or new_view <= self.view:
            return
        self._sent_viewchange.add(new_view)
        self.services.broadcast(VIEWCHANGE_KIND, {"new_view": new_view}, 12)

    def on_viewchange(self, payload: dict, sender: int) -> None:
        new_view = payload.get("new_view")
        if not isinstance(new_view, int) or new_view <= self.view:
            return
        votes = self._viewchange_votes.setdefault(new_view, set())
        votes.add(sender)
        if len(votes) >= self.services.small_quorum:
            self._send_viewchange(new_view)  # amplify
        if len(votes) >= 2 * self.services.f + 1:
            self._enter_view(new_view)

    def _enter_view(self, new_view: int) -> None:
        self.view = new_view
        # The undecided heights below the highest decided one are
        # abandoned with the old view: hand over what waits above them.
        waiting = self._undelivered
        for height in sorted(waiting):
            self._hand_over(*waiting.pop(height))
            self._next_delivery = height + 1
        # Abandon undecided heights; payload originators re-submit.
        self._inflight.clear()
        self._inflight_payloads.clear()
        self.blocks = {
            h: b for h, b in self.blocks.items() if h in self.decided_heights
        }
        self._leader_blocks = {
            h: b for h, b in self._leader_blocks.items() if h in self.decided_heights
        }
        if self.is_leader:
            self.next_height = max(
                [self.next_height] + [h + 1 for h in self.decided_heights]
            )
            # Re-propose orphaned requests tracked from broadcasts.
            for pid_, item in list(self._tracked_requests.items()):
                if pid_ not in self._decided_payloads:
                    self._queue.append(item)
            self._maybe_propose()
        self._arm_view_timer()

    # ------------------------------------------------------------------
    # Dispatch helper for host nodes
    # ------------------------------------------------------------------
    def handle(self, kind: str, payload: dict, sender: int) -> bool:
        if kind == PROPOSE_KIND:
            self.on_propose(payload, sender)
        elif kind == VOTE_KIND:
            self.on_vote(payload, sender)
        elif kind == PHASE_KIND:
            self.on_phase(payload, sender)
        elif kind == VIEWCHANGE_KIND:
            self.on_viewchange(payload, sender)
        elif kind == REQUEST_KIND:
            self.on_request(payload, sender)
        else:
            return False
        return True


__all__ = [
    "Block",
    "QuorumCert",
    "HotStuffParticipant",
    "PROPOSE_KIND",
    "VOTE_KIND",
    "PHASE_KIND",
    "VIEWCHANGE_KIND",
    "REQUEST_KIND",
    "PHASES",
]
