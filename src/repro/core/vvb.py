"""Validating Value Broadcast — Algorithm 1 of the paper.

VVB extends Binary Value Broadcast with three things:

1. **Value delivery**: along with the binary value 1 it reliably delivers
   the broadcaster's message ``m`` (here: the transaction cipher and the
   predicted sequence numbers ``S_t``).
2. **Quorum validation**: a process votes 1 only if its configurable
   ``validation-function`` accepts ``m`` (Equation 1 + acceptance window);
   delivery of 1 therefore proves ≥ 2f+1 validations (VVB-Supermajority).
3. **Anti-equivocation**: the INIT is signed by the broadcaster, correct
   processes validate only their *first* INIT per instance, and votes for 1
   carry threshold-signature shares over the message digest, so a combined
   DELIVER proof pins a unique ``m`` (VVB-Unicity).

Message kinds (payloads are dicts; ``iid`` scopes them to one instance):

- ``lyra.init``    — broadcaster's {cipher, preds, sigma}
- ``lyra.vote1``   — {digest, share, seq} (seq piggybacks the voter's
  perceived sequence number for distance estimation, §VI-B)
- ``lyra.vote0``   — {}
- ``lyra.deliver`` — {digest, proof}
- ``lyra.fetch`` / ``lyra.init`` reply — recovery path for processes that
  obtained a delivery proof before the INIT itself (Byzantine broadcaster
  that sent ``m`` to only part of the network).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, Optional, Tuple

from repro.core.bv_broadcast import VALUE_SETS
from repro.core.services import ProtocolServices
from repro.crypto.hashing import digest_of
from repro.crypto.signatures import Signature
from repro.crypto.threshold import SignatureShare, ThresholdError, ThresholdSignature

INIT_KIND = "lyra.init"
VOTE1_KIND = "lyra.vote1"
VOTE0_KIND = "lyra.vote0"
DELIVER_KIND = "lyra.deliver"
FETCH_KIND = "lyra.fetch"

#: Per-message byte-size hints (see DESIGN.md §5).
_PREDS_BYTES_PER_NODE = 8


_digest_memo: Dict[Tuple[Any, bytes, Tuple[int, ...]], bytes] = {}


def message_digest(iid: Any, cipher_id: bytes, preds: Tuple[int, ...]) -> bytes:
    """The digest shares and proofs are bound to: H(iid, c_t, S_t).

    Memoized: every replica hashes the same (iid, c_t, S_t) triple on
    INIT receipt, and zero-copy broadcast shares the very ``cipher_id``/
    ``preds`` objects cluster-wide, so the key hashes cheaply and one
    SHA-256 serves the whole cluster."""
    key = (iid, cipher_id, preds)
    digest = _digest_memo.get(key)
    if digest is None:
        if len(_digest_memo) >= (1 << 15):
            _digest_memo.clear()
        digest = digest_of(
            (getattr(iid, "canonical", lambda: iid)(), cipher_id, preds)
        )
        _digest_memo[key] = digest
    return digest


class VvbInstance:
    """One instance of Algorithm 1 at one process.

    Callbacks (the ones a host shares across its instances are handed
    the instance's ``iid``, so one bound method serves them all):

    - ``validate(iid, cipher, preds) -> bool`` — the validation-function.
    - ``on_deliver(b, m)`` — VVB delivery into the consensus layer;
      ``m`` is ``(cipher, preds)`` for ``b = 1`` and ``None`` for ``b = 0``.
    - ``on_vote_seq(iid, sender, seq_j)`` — perceived-sequence piggyback,
      used by the broadcaster to refresh its distance estimates.
    - ``perceive(cipher) -> int`` — the host's perceived sequence number.

    Once 1 is delivered the share buckets are dropped: nothing reads them
    after that, and a late VOTE1 is verified and sampled but not stored.
    """

    __slots__ = (
        "services",
        "iid",
        "_validate",
        "_on_deliver",
        "_on_vote_seq",
        "_perceive",
        "message",
        "message_digest",
        "_init_raw",
        "equivocation_detected",
        "_shares",
        "_zero_votes",
        "_sent_zero",
        "_validated",
        "_delivered",
        "_proof",
        "_proof_rebroadcast",
        "_timer_started",
        "_fetched_from",
    )

    def __init__(
        self,
        services: ProtocolServices,
        iid: Any,
        *,
        validate: Callable[[Any, Any, Tuple[int, ...]], bool],
        on_deliver: Callable[[int, Optional[Tuple[Any, Tuple[int, ...]]]], None],
        on_vote_seq: Optional[Callable[[Any, int, int], None]] = None,
        perceive: Optional[Callable[[Any], int]] = None,
    ) -> None:
        self.services = services
        self.iid = iid
        self._validate = validate
        self._on_deliver = on_deliver
        self._on_vote_seq = on_vote_seq
        self._perceive = perceive
        # Broadcaster's message, locked to the first correctly-signed INIT.
        self.message: Optional[Tuple[Any, Tuple[int, ...]]] = None
        self.message_digest: Optional[bytes] = None
        self._init_raw: Optional[dict] = None  # for forwarding / FETCH replies
        self.equivocation_detected = False
        # Vote bookkeeping: shares for 1 are keyed by the digest they sign.
        self._shares: Dict[bytes, Dict[int, SignatureShare]] = {}
        self._zero_votes = 0  # bitmask over sender pids
        self._sent_zero = False
        self._validated = False  # we only ever share-sign once per instance
        self._delivered = 0  # value mask, as ``BinaryValueBroadcast``'s
        self._proof: Optional[Tuple[bytes, ThresholdSignature]] = None
        self._proof_rebroadcast = False
        self._timer_started = False
        self._fetched_from = 0  # bitmask over pids

    @property
    def delivered(self) -> FrozenSet[int]:
        """The values delivered so far (a read-only view)."""
        return VALUE_SETS[self._delivered]

    # ------------------------------------------------------------------
    # Broadcaster side
    # ------------------------------------------------------------------
    def start(self, cipher: Any, preds: Tuple[int, ...]) -> None:
        """``vv-broadcast(m)``: sign and broadcast the INIT (lines 1-3)."""
        digest = message_digest(self.iid, cipher.cipher_id, preds)
        sigma = self.services.signer.sign(digest)
        payload = {
            "iid": self.iid,
            "cipher": cipher,
            "preds": preds,
            "sigma": sigma,
        }
        size = (
            cipher.wire_size()
            + _PREDS_BYTES_PER_NODE * len(preds)
            + sigma.wire_size()
        )
        self.services.broadcast(INIT_KIND, payload, size)

    # ------------------------------------------------------------------
    # INIT handling (lines 4-10)
    # ------------------------------------------------------------------
    def on_init(self, payload: dict, sender: int) -> None:
        cipher = payload.get("cipher")
        sigma = payload.get("sigma")
        cipher_id = getattr(cipher, "cipher_id", None)
        digest = None
        if type(cipher_id) is bytes and isinstance(sigma, Signature):
            try:
                preds = tuple(payload.get("preds"))
                digest = message_digest(self.iid, cipher_id, preds)
            except TypeError:  # not iterable, or an entry that cannot hash
                pass
        if digest is None:
            # Junk from any peer: dropped before the signature check.
            self.services.on_malformed()
            return
        # Authentication: the INIT must be signed by the instance's
        # broadcaster (forwarded copies keep the original signature).
        if not self.services.registry.verify(digest, sigma, self.iid.proposer):
            return
        if self.message is not None:
            if digest != self.message_digest:
                # A second, different correctly-signed INIT: equivocation.
                self.equivocation_detected = True
            return
        self.message = (cipher, preds)
        self.message_digest = digest
        self._init_raw = payload
        if self._perceive is not None:
            self._perceive(cipher)
        self._start_expiration_timer()
        if not self._validated and self._validate(self.iid, cipher, preds):
            self._validated = True
            self._broadcast_vote1(digest)
        else:
            self._broadcast_vote0()
        # A proof may have arrived before the INIT (fetch path): deliver now.
        self._maybe_deliver_with_proof()
        self._check_one_quorum(digest)

    def _broadcast_vote1(self, digest: bytes) -> None:
        share = self.services.threshold_signer.share_sign(digest)
        seq = 0
        if self._perceive is not None and self.message is not None:
            seq = self._perceive(self.message[0])
        self.services.broadcast(
            VOTE1_KIND,
            {"iid": self.iid, "digest": digest, "share": share, "seq": seq},
            share.wire_size() + 32 + 8,
        )

    def _broadcast_vote0(self) -> None:
        if self._sent_zero:
            return
        self._sent_zero = True
        seq = 0
        if self._perceive is not None and self.message is not None:
            seq = self._perceive(self.message[0])
        self.services.broadcast(VOTE0_KIND, {"iid": self.iid, "seq": seq}, 16)

    def _start_expiration_timer(self) -> None:
        """Expiration timer ``E = 2Δ`` (line 6), for VVB-Obligation."""
        if self._timer_started:
            return
        self._timer_started = True
        assert self.services.timers is not None
        self.services.timers.set(
            f"vvb-expire-{self.iid}", 2 * self.services.delta_us, self._on_timeout
        )

    # ------------------------------------------------------------------
    # VOTE handling (lines 11-22)
    # ------------------------------------------------------------------
    def on_vote1(self, payload: dict, sender: int) -> None:
        digest = payload.get("digest")
        share = payload.get("share")
        seq = payload.get("seq")
        # ``seq`` becomes a distance sample, so it must be an int; it may be
        # <= 0 (an honest clock under negative skew), unlike ``on_vote0``'s.
        if (
            not isinstance(digest, bytes)
            or not isinstance(share, SignatureShare)
            or type(seq) is not int
        ):
            self.services.on_malformed()
            return
        if share.signer != sender:
            return  # relayed shares must carry their true signer
        if not self.services.threshold.share_verify(digest, share, sender):
            return
        if self._on_vote_seq is not None:
            self._on_vote_seq(self.iid, sender, seq)
        if self._delivered & 2:
            # Delivered 1: the buckets are gone and no quorum is counted.
            self._start_expiration_timer()
            return
        bucket = self._shares.setdefault(digest, {})
        if sender in bucket:
            return
        bucket[sender] = share
        # Seeing votes means the instance is live: arm the obligation timer
        # even if the INIT has not reached us yet.
        self._start_expiration_timer()
        self._check_one_quorum(digest)

    def _check_one_quorum(self, digest: bytes) -> None:
        if self._delivered & 2:
            return
        bucket = self._shares.get(digest)
        if bucket is None or len(bucket) < self.services.quorum:
            return
        try:
            proof = self.services.threshold.combine(digest, bucket.values())
        except ThresholdError:  # pragma: no cover - shares pre-verified
            return
        self._proof = (digest, proof)
        self.services.broadcast(
            DELIVER_KIND,
            {"iid": self.iid, "digest": digest, "proof": proof},
            proof.wire_size() + 32,
        )
        self._proof_rebroadcast = True
        self._deliver_one(digest)

    def on_vote0(self, payload: dict, sender: int) -> None:
        bit = 1 << sender
        if self._zero_votes & bit:
            return
        seq = payload.get("seq")
        if self._on_vote_seq is not None and isinstance(seq, int) and seq > 0:
            self._on_vote_seq(self.iid, sender, seq)
        self._zero_votes |= bit
        zeros = self._zero_votes.bit_count()
        self._start_expiration_timer()
        if zeros >= self.services.small_quorum and not self._sent_zero:
            self._broadcast_vote0()  # relay (lines 19-20)
        if zeros >= self.services.quorum and not self._delivered & 1:
            self._delivered |= 1  # lines 21-22
            self._on_deliver(0, None)

    # ------------------------------------------------------------------
    # DELIVER proofs (lines 15-18)
    # ------------------------------------------------------------------
    def on_deliver(self, payload: dict, sender: int) -> None:
        digest = payload.get("digest")
        proof = payload.get("proof")
        if not isinstance(digest, bytes) or not isinstance(proof, ThresholdSignature):
            return
        if not self.services.threshold.verify_full(proof, digest):
            return
        if self._proof is None:
            self._proof = (digest, proof)
        self._start_expiration_timer()
        self._maybe_deliver_with_proof(sender)

    def _maybe_deliver_with_proof(self, proof_sender: Optional[int] = None) -> None:
        if self._proof is None or self._delivered & 2:
            return
        digest, proof = self._proof
        if self.message is None or self.message_digest != digest:
            # We hold a proof for an m we do not have: recover it from a
            # process that demonstrably has it — a share signer (it
            # validated m) or the proof's forwarder.  Never ourselves, and
            # retry a different holder on each new lead.
            candidates = list(self._shares.get(digest, {}))
            if proof_sender is not None:
                candidates.append(proof_sender)
            for target in candidates:
                bit = 1 << target
                if target == self.services.pid or self._fetched_from & bit:
                    continue
                self._fetched_from |= bit
                self.services.send(target, FETCH_KIND, {"iid": self.iid}, 8)
                break
            return
        if not self._proof_rebroadcast:
            self._proof_rebroadcast = True
            self.services.broadcast(
                DELIVER_KIND,
                {"iid": self.iid, "digest": digest, "proof": proof},
                proof.wire_size() + 32,
            )
        self._deliver_one(digest)

    def _deliver_one(self, digest: bytes) -> None:
        if self._delivered & 2 or self.message is None:
            return
        self._delivered |= 2
        self._shares.clear()
        self._on_deliver(1, self.message)

    def on_fetch(self, payload: dict, sender: int) -> None:
        """Serve a stored INIT to a process recovering the message."""
        if self._init_raw is not None:
            cipher = self._init_raw["cipher"]
            size = (
                cipher.wire_size()
                + _PREDS_BYTES_PER_NODE * len(self._init_raw["preds"])
                + 64
            )
            self.services.send(sender, INIT_KIND, self._init_raw, size)

    # ------------------------------------------------------------------
    # Timeout (lines 23-24)
    # ------------------------------------------------------------------
    def _on_timeout(self) -> None:
        if self._delivered:
            return
        # Broadcast 0 (even if we voted 1) so the instance cannot hang, and
        # forward the broadcaster's message for VVB-Obligation.
        self._sent_zero = False
        self._broadcast_vote0()
        if self._init_raw is not None:
            cipher = self._init_raw["cipher"]
            size = (
                cipher.wire_size()
                + _PREDS_BYTES_PER_NODE * len(self._init_raw["preds"])
                + 64
            )
            self.services.broadcast(INIT_KIND, self._init_raw, size)


__all__ = [
    "VvbInstance",
    "message_digest",
    "INIT_KIND",
    "VOTE1_KIND",
    "VOTE0_KIND",
    "DELIVER_KIND",
    "FETCH_KIND",
]
