"""(2f+1, n) threshold signatures: ``share-sign`` / ``share-verify`` /
``share-combine`` / ``share-threshold`` (§II-B).

VVB (Algorithm 1) uses these to build a transferable *delivery proof*: a
process that collects ``2f+1`` signature shares for a message combines them
into one full signature proving a supermajority validated the message.

Construction: the scheme holds a master key; each pid's share key is
derived from it.  ``share-sign`` MACs the message under the share key;
``share-combine`` *requires* ``threshold`` valid shares from distinct
signers before it will emit the full signature (the combiner cannot mint it
otherwise — enforced because only :meth:`ThresholdScheme.combine` holds the
master key and it validates the quorum first).  This preserves exactly the
property the protocols rely on — a full signature implies 2f+1 validations
— while costing what a BLS threshold scheme costs via the cost model.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Any, Dict, Iterable

from repro.crypto.hashing import KeyedHash, digest_of
from repro.crypto.memo import MemoCache
from repro.sim.rng import derive_seed

SHARE_BYTES = 48
THRESHOLD_SIG_BYTES = 96


class ThresholdError(ValueError):
    """Raised when combination preconditions are violated."""


@dataclass(frozen=True)
class SignatureShare:
    """One process's share over a message."""

    signer: int
    tag: bytes

    def wire_size(self) -> int:
        return SHARE_BYTES

    def canonical(self) -> tuple:
        return (self.signer, self.tag)


@dataclass(frozen=True)
class ThresholdSignature:
    """A combined full signature, transferable and verifiable by anyone."""

    tag: bytes
    signer_count: int

    def wire_size(self) -> int:
        return THRESHOLD_SIG_BYTES

    def canonical(self) -> tuple:
        return (self.tag, self.signer_count)


class ThresholdScheme:
    """One (threshold, n) instance shared by all processes of a run."""

    def __init__(self, threshold: int, n: int, *, seed: int = 0) -> None:
        if threshold < 1 or n < threshold:
            raise ValueError("invalid (threshold, n)")
        self.threshold = threshold
        self.n = n
        self._master = hashlib.sha256(
            derive_seed(seed, "threshold-master").to_bytes(8, "big")
        ).digest()
        self._full_mac = KeyedHash(self._master, hashlib.sha384)
        self._share_macs: Dict[int, KeyedHash] = {}
        self._verify_cache = MemoCache()

    # ------------------------------------------------------------------
    def _share_mac(self, pid: int) -> KeyedHash:
        """``pid``'s share key, as the keyed hash that tags under it."""
        mac = self._share_macs.get(pid)
        if mac is None:
            key = hmac.new(self._master, b"share:%d" % pid, hashlib.sha256).digest()
            mac = self._share_macs[pid] = KeyedHash(key, hashlib.sha384)
        return mac

    def share_signer(self, pid: int) -> "ThresholdSigner":
        """Issue pid's share-signing capability (setup-time only)."""
        if not (0 <= pid < self.n):
            raise ValueError(f"pid {pid} outside [0, {self.n})")
        return ThresholdSigner(pid, self._share_mac(pid))

    # ------------------------------------------------------------------
    def share_verify(self, message: Any, share: SignatureShare, pid: int) -> bool:
        """``share-verify(m, pi, j)``.  Memoized on ``(pid, digest, tag)`` —
        quorum collection re-verifies the same 2f+1 shares at every replica,
        and a triple's verdict never changes."""
        if share.signer != pid or not (0 <= pid < self.n):
            return False
        if type(message) is bytes:
            # Key the memo on the raw message bytes (distinct namespace) so
            # cache hits — the common case during quorum collection — skip
            # the digest recomputation entirely.
            key = ("share-b", pid, message, share.tag)
            verdict = self._verify_cache.get(key)
            if verdict is not None:
                return verdict
            digest = digest_of(message)
        else:
            digest = digest_of(message)
            key = ("share", pid, digest, share.tag)
            verdict = self._verify_cache.get(key)
            if verdict is not None:
                return verdict
        return self._verify_cache.put(
            key, hmac.compare_digest(self._share_mac(pid).tag(digest), share.tag)
        )

    def combine(
        self, message: Any, shares: Iterable[SignatureShare]
    ) -> ThresholdSignature:
        """``share-combine({pi})`` — needs ``threshold`` valid shares from
        distinct signers; raises :class:`ThresholdError` otherwise."""
        valid: Dict[int, SignatureShare] = {}
        for share in shares:
            if share.signer in valid:
                continue
            if self.share_verify(message, share, share.signer):
                valid[share.signer] = share
        if len(valid) < self.threshold:
            raise ThresholdError(
                f"need {self.threshold} valid shares, got {len(valid)}"
            )
        tag = self._full_mac.tag(b"full:" + digest_of(message))
        return ThresholdSignature(tag, len(valid))

    def verify_full(self, signature: ThresholdSignature, message: Any) -> bool:
        """``share-threshold(Pi, m)``.  The tag check is memoized; the
        quorum-count check is repeated (it is part of the signature value,
        not of the keyed computation)."""
        if signature.signer_count < self.threshold:
            return False
        if type(message) is bytes:
            key = ("full-b", message, signature.tag)
            verdict = self._verify_cache.get(key)
            if verdict is not None:
                return verdict
            digest = digest_of(message)
        else:
            digest = digest_of(message)
            key = ("full", digest, signature.tag)
            verdict = self._verify_cache.get(key)
            if verdict is not None:
                return verdict
        return self._verify_cache.put(
            key,
            hmac.compare_digest(self._full_mac.tag(b"full:" + digest), signature.tag),
        )

    def verify_cache_stats(self) -> Dict[str, int]:
        """Hit/miss/size counters of the verification memo (diagnostics)."""
        return self._verify_cache.stats()


class ThresholdSigner:
    """A single process's share-signing capability."""

    def __init__(self, pid: int, mac: KeyedHash) -> None:
        self.pid = pid
        self._mac = mac

    def share_sign(self, message: Any) -> SignatureShare:
        """``share-sign(m)``."""
        return SignatureShare(self.pid, self._mac.tag(digest_of(message)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ThresholdSigner(pid={self.pid})"


__all__ = [
    "ThresholdScheme",
    "ThresholdSigner",
    "SignatureShare",
    "ThresholdSignature",
    "ThresholdError",
    "SHARE_BYTES",
    "THRESHOLD_SIG_BYTES",
]
