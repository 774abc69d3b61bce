"""VSS-based transaction obfuscation: ``vss-encrypt`` /
``vss-partial-decrypt`` / ``vss-decrypt`` (§II-B).

A transaction payload is encrypted under a fresh symmetric key ``K`` (a
field element, expanded into a SHA-256 keystream).  ``K`` is then
Feldman-shared ``(2f+1, n)``: the cipher carries the coefficient
commitments plus, for every recipient, its key-share sealed under that
recipient's personal channel key.  Each process can therefore:

- verify the dealer shared *some* consistent key (Feldman check) before
  voting to accept the cipher,
- produce exactly one decryption share (its unsealed key share) once the
  transaction commits, and
- reconstruct ``K`` — hence the payload — from any ``2f+1`` decryption
  shares (Lemma 7 of the paper).

Fewer than ``2f+1`` shares reveal nothing about ``K`` (Shamir), which is
what makes front-running impossible before commit.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

from repro.crypto.feldman import FeldmanCommitment, FeldmanVSS
from repro.crypto.field import DEFAULT_FIELD, PrimeField
from repro.crypto.hashing import KeyedHash, digest_of, sha256_bytes
from repro.crypto.memo import MemoCache
from repro.crypto.shamir import ShamirShare, reconstruct_secret
from repro.sim.rng import derive_seed


class VssError(ValueError):
    """Raised on invalid shares, bad dealers, or insufficient quorums."""


@dataclass(frozen=True)
class DecryptionShare:
    """``rho_m``: one process's opened key share for a cipher."""

    cipher_id: bytes
    share: ShamirShare

    def wire_size(self) -> int:
        return 32 + self.share.wire_size()

    def canonical(self) -> tuple:
        return (self.cipher_id, self.share.index, self.share.value)


@dataclass(frozen=True)
class VssCipher:
    """``c_m``: the broadcastable ciphertext of a transaction."""

    cipher_id: bytes
    body: bytes
    commitment: FeldmanCommitment
    sealed_shares: Tuple[int, ...]  # sealed_shares[i] belongs to pid i

    def wire_size(self) -> int:
        return (
            32
            + len(self.body)
            + self.commitment.wire_size()
            + 16 * len(self.sealed_shares)
        )

    def canonical(self) -> tuple:
        return (self.cipher_id,)


def _keystream(key: int, length: int) -> bytes:
    """Expand a field element into ``length`` keystream bytes."""
    out = bytearray()
    counter = 0
    key_bytes = key.to_bytes(16, "big")
    while len(out) < length:
        out.extend(sha256_bytes(key_bytes + counter.to_bytes(8, "big")))
        counter += 1
    return bytes(out[:length])


def _xor(data: bytes, stream: bytes) -> bytes:
    if len(stream) < len(data):
        data = data[: len(stream)]
    elif len(data) < len(stream):
        stream = stream[: len(data)]
    xored = int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    return xored.to_bytes(len(data), "big")


class VssScheme:
    """One (threshold, n) VSS-encryption instance for a cluster.

    ``threshold`` is ``2f+1`` in Lyra.  Per-recipient sealing keys are
    derived from ``seed`` — the simulation analogue of encrypting the share
    under the recipient's public key.
    """

    def __init__(
        self,
        threshold: int,
        n: int,
        *,
        seed: int = 0,
        field: PrimeField = DEFAULT_FIELD,
    ) -> None:
        if threshold < 1 or n < threshold:
            raise ValueError("invalid (threshold, n)")
        self.threshold = threshold
        self.n = n
        self.field = field
        self.feldman = FeldmanVSS(field)
        self._seal_root = hashlib.sha256(
            derive_seed(seed, "vss-seal").to_bytes(8, "big")
        ).digest()
        self._seal_macs: Dict[int, KeyedHash] = {}
        # Successful decryptions interned by cipher id.  Any 2f+1 Feldman-
        # verified shares reconstruct the same committed key (Lemma 7), so
        # once one replica has opened a cipher the plaintext is a pure
        # function of the cipher id; the per-call verification and quorum
        # checks below still run so failure behaviour is unchanged.
        self._plain_cache = MemoCache(capacity=1 << 12)

    # ------------------------------------------------------------------
    def _seal_pad(self, pid: int, cipher_id: bytes) -> int:
        mac = self._seal_macs.get(pid)
        if mac is None:
            key = hmac.new(self._seal_root, b"pid:%d" % pid, hashlib.sha256).digest()
            mac = self._seal_macs[pid] = KeyedHash(key, hashlib.sha256)
        return int.from_bytes(mac.tag(cipher_id)[:16], "big") & ((1 << 127) - 1)

    # ------------------------------------------------------------------
    def encrypt(self, plaintext: bytes, rng) -> VssCipher:
        """``vss-encrypt(m)``: returns the broadcastable cipher ``c_m``."""
        key = self.field.random_element(rng)
        body = _xor(plaintext, _keystream(key, len(plaintext)))
        shares, commitment = self.feldman.deal(key, self.threshold, self.n, rng)
        cipher_id = digest_of((body, commitment.values))
        sealed = tuple(
            shares[pid].value ^ self._seal_pad(pid, cipher_id)
            for pid in range(self.n)
        )
        return VssCipher(cipher_id, body, commitment, sealed)

    def check_dealing(self, cipher: VssCipher, pid: int) -> bool:
        """Recipient-side validity check run before voting to accept: does
        my sealed share lie on the committed polynomial?"""
        if len(cipher.sealed_shares) != self.n or not (0 <= pid < self.n):
            return False
        value = cipher.sealed_shares[pid] ^ self._seal_pad(pid, cipher.cipher_id)
        share = ShamirShare(pid + 1, value)
        return self.feldman.verify_share(share, cipher.commitment)

    def partial_decrypt(self, cipher: VssCipher, pid: int) -> DecryptionShare:
        """``vss-partial-decrypt(c_m)`` by process ``pid``."""
        if not (0 <= pid < self.n):
            raise VssError(f"pid {pid} outside [0, {self.n})")
        value = cipher.sealed_shares[pid] ^ self._seal_pad(pid, cipher.cipher_id)
        share = ShamirShare(pid + 1, value)
        if not self.feldman.verify_share(share, cipher.commitment):
            raise VssError(f"dealer gave pid {pid} an inconsistent share")
        return DecryptionShare(cipher.cipher_id, share)

    def verify_decryption_share(
        self, cipher: VssCipher, dshare: DecryptionShare
    ) -> bool:
        """Anyone can check an opened share against the commitments."""
        if dshare.cipher_id != cipher.cipher_id:
            return False
        return self.feldman.verify_share(dshare.share, cipher.commitment)

    def decrypt(
        self, cipher: VssCipher, dshares: Iterable[DecryptionShare]
    ) -> bytes:
        """``vss-decrypt(c_m, {rho_m})``: reconstruct the key from a quorum
        of verified shares and strip the keystream."""
        valid = []
        for dshare in dshares:
            if self.verify_decryption_share(cipher, dshare):
                valid.append(dshare.share)
        if len({s.index for s in valid}) < self.threshold:
            raise VssError(
                f"need {self.threshold} valid decryption shares, "
                f"got {len({s.index for s in valid})}"
            )
        cached = self._plain_cache.get(cipher.cipher_id)
        if cached is not None:
            return cached
        key = reconstruct_secret(valid, self.threshold, self.field)
        if self.feldman.commitment_to_secret(cipher.commitment) != self.feldman.g_pow(key):
            raise VssError("reconstructed key does not match the commitment")
        plaintext = _xor(cipher.body, _keystream(key, len(cipher.body)))
        self._plain_cache.put(cipher.cipher_id, plaintext)
        return plaintext

    def decrypt_cache_stats(self) -> Dict[str, int]:
        """Hit/miss counters for the interned-plaintext cache."""
        return self._plain_cache.stats()


__all__ = ["VssScheme", "VssCipher", "DecryptionShare", "VssError"]
