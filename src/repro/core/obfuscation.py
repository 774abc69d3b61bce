"""Transaction-obfuscation schemes for commit-reveal.

Two interchangeable implementations behind one interface:

- :class:`VssObfuscation` — the full (2f+1, n) VSS scheme of §II-B: any
  quorum of committers can reveal, no trust in the proposer.
- :class:`HashCommitObfuscation` — the hash-based commitment scheme the
  Rust prototype uses (§VI-A, Halevi–Micali [13]): cheap, but the reveal
  key is held by the proposer, who broadcasts it at commit time.  A crashed
  or malicious proposer delays (never forges) the reveal — the trade-off
  the paper accepts for performance and that our ablation bench quantifies.

Both produce cipher objects exposing ``cipher_id`` / ``wire_size`` /
``canonical`` so the rest of the stack is scheme-agnostic.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Any, Iterable

from repro.crypto.feldman import FeldmanCommitment
from repro.crypto.hashing import digest_of, sha256_bytes
from repro.crypto.vss_encryption import (
    DecryptionShare,
    VssCipher,
    VssError,
    VssScheme,
)
from repro.crypto.shamir import ShamirShare
from repro.sim.rng import derive_seed


class VssObfuscation:
    """The §II-B scheme: a thin, proposer-aware façade over VssScheme."""

    name = "vss"

    def __init__(self, threshold: int, n: int, *, seed: int = 0) -> None:
        self._scheme = VssScheme(threshold, n, seed=seed)

    @property
    def threshold(self) -> int:
        return self._scheme.threshold

    def encrypt(self, plaintext: bytes, rng, proposer: int = 0) -> VssCipher:
        # VSS ciphers are proposer-agnostic: any 2f+1 holders can reveal.
        return self._scheme.encrypt(plaintext, rng)

    def check_dealing(self, cipher: VssCipher, pid: int) -> bool:
        return self._scheme.check_dealing(cipher, pid)

    def partial_decrypt(self, cipher: VssCipher, pid: int) -> DecryptionShare:
        return self._scheme.partial_decrypt(cipher, pid)

    def verify_decryption_share(self, cipher, share) -> bool:
        return self._scheme.verify_decryption_share(cipher, share)

    def decrypt(self, cipher: VssCipher, shares: Iterable[DecryptionShare]) -> bytes:
        return self._scheme.decrypt(cipher, shares)

    def decrypt_cache_stats(self) -> dict:
        """Hit/miss counters of the scheme's interned-plaintext cache."""
        return self._scheme.decrypt_cache_stats()


@dataclass(frozen=True)
class HashCommitCipher:
    """Commitment + proposer-keyed body; id binds both."""

    cipher_id: bytes
    body: bytes
    commitment: bytes
    proposer: int

    def wire_size(self) -> int:
        return 32 + len(self.body) + 32

    def canonical(self) -> tuple:
        return (self.cipher_id,)


@dataclass(frozen=True)
class HashRevealShare:
    """The proposer's reveal: the symmetric key and commitment nonce."""

    cipher_id: bytes
    key: bytes
    nonce: bytes

    def wire_size(self) -> int:
        return 32 + 32 + 32

    def canonical(self) -> tuple:
        return (self.cipher_id, self.key, self.nonce)


def _stream(key: bytes, length: int) -> bytes:
    out = bytearray()
    counter = 0
    while len(out) < length:
        out.extend(sha256_bytes(key + counter.to_bytes(8, "big")))
        counter += 1
    return bytes(out[:length])


class HashCommitObfuscation:
    """Prototype-style commit-reveal: proposer-held key, threshold = 1.

    The proposer keeps its opening material (key + commitment nonce) in a
    local table until reveal time — exactly the state a real proposer must
    hold between propose and commit.
    """

    name = "hash"

    def __init__(self, threshold: int, n: int, *, seed: int = 0) -> None:
        self.n = n
        self.threshold = 1  # a single (proposer) share reveals
        self._root = hashlib.sha256(
            derive_seed(seed, "hash-commit").to_bytes(8, "big")
        ).digest()
        # Proposer-side opening material: cipher_id -> (proposer, key, nonce).
        self._openings: dict = {}

    def encrypt(self, plaintext: bytes, rng, proposer: int) -> HashCommitCipher:
        raw = bytes(int(b) for b in rng.integers(0, 256, size=32))
        key = hmac.new(self._root, raw, hashlib.sha256).digest()
        nonce = hmac.new(key, b"nonce", hashlib.sha256).digest()
        body = bytes(a ^ b for a, b in zip(plaintext, _stream(key, len(plaintext))))
        commitment = sha256_bytes(plaintext + nonce)
        cipher_id = digest_of((body, commitment, proposer))
        self._openings[cipher_id] = (proposer, key, nonce)
        return HashCommitCipher(cipher_id, body, commitment, proposer)

    def check_dealing(self, cipher: HashCommitCipher, pid: int) -> bool:
        # Nothing verifiable before reveal; binding is checked at reveal.
        return isinstance(cipher, HashCommitCipher)

    def partial_decrypt(self, cipher: HashCommitCipher, pid: int) -> HashRevealShare:
        opening = self._openings.get(cipher.cipher_id)
        if opening is None or pid != opening[0] or pid != cipher.proposer:
            raise VssError("only the proposer holds the hash-commit key")
        _, key, nonce = opening
        return HashRevealShare(cipher.cipher_id, key, nonce)

    def verify_decryption_share(self, cipher, share) -> bool:
        if not isinstance(share, HashRevealShare):
            return False
        if share.cipher_id != cipher.cipher_id:
            return False
        plaintext = bytes(
            a ^ b for a, b in zip(cipher.body, _stream(share.key, len(cipher.body)))
        )
        return sha256_bytes(plaintext + share.nonce) == cipher.commitment

    def decrypt(self, cipher: HashCommitCipher, shares: Iterable[Any]) -> bytes:
        for share in shares:
            if self.verify_decryption_share(cipher, share):
                return bytes(
                    a ^ b
                    for a, b in zip(cipher.body, _stream(share.key, len(cipher.body)))
                )
        raise VssError("no valid reveal share for hash-commit cipher")


def is_reveal_share(share: Any, scheme: str) -> bool:
    """Is ``share`` a well-formed reveal share of ``scheme`` (``"vss"`` or
    ``"hash"``, an obfuscation's ``name``)?

    A structural check for shares arriving off the wire: the scheme's
    exact share type with fields of the exact field types, so the reveal
    path never does arithmetic, hashing or dict keying on a Byzantine
    sender's junk.  Whether the share is *valid* is still
    ``verify_decryption_share``'s business.
    """
    kind = type(share)
    if kind is DecryptionShare and scheme == "vss":
        inner = share.share
        return (
            type(share.cipher_id) is bytes
            and type(inner) is ShamirShare
            and type(inner.index) is int
            and type(inner.value) is int
        )
    if kind is HashRevealShare and scheme == "hash":
        return (
            type(share.cipher_id) is bytes
            and type(share.key) is bytes
            and type(share.nonce) is bytes
        )
    return False


def is_cipher(cipher: Any, scheme: str) -> bool:
    """Is ``cipher`` a well-formed cipher of ``scheme`` (``"vss"`` or
    ``"hash"``, an obfuscation's ``name``)?

    The structural check for ciphers arriving in an INIT, the twin of
    :func:`is_reveal_share`: the scheme's exact cipher type with fields of
    the exact field types, so that dealing checks, decryption and hashing
    never run on a Byzantine proposer's junk.  Whether the dealing is
    *valid* is still ``check_dealing``'s business.
    """
    kind = type(cipher)
    if kind is VssCipher and scheme == "vss":
        commitment = cipher.commitment
        return (
            type(cipher.cipher_id) is bytes
            and type(cipher.body) is bytes
            and type(commitment) is FeldmanCommitment
            and type(commitment.values) is tuple
            and all(type(value) is int for value in commitment.values)
            and type(cipher.sealed_shares) is tuple
            and all(type(sealed) is int for sealed in cipher.sealed_shares)
        )
    if kind is HashCommitCipher and scheme == "hash":
        return (
            type(cipher.cipher_id) is bytes
            and type(cipher.body) is bytes
            and type(cipher.commitment) is bytes
            and type(cipher.proposer) is int
        )
    return False


def make_obfuscation(
    scheme: str, threshold: int, n: int, *, seed: int = 0
):
    """Factory: ``"vss"`` or ``"hash"``."""
    if scheme == "vss":
        return VssObfuscation(threshold, n, seed=seed)
    if scheme == "hash":
        return HashCommitObfuscation(threshold, n, seed=seed)
    raise ValueError(f"unknown obfuscation scheme {scheme!r}")


__all__ = [
    "VssObfuscation",
    "HashCommitObfuscation",
    "HashCommitCipher",
    "HashRevealShare",
    "is_cipher",
    "is_reveal_share",
    "make_obfuscation",
]
