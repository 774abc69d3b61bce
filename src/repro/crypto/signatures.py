"""Per-process signatures: ``private-sign`` / ``public-verify`` (§II-B).

The simulator models a PKI with a :class:`KeyRegistry`: at setup every pid
gets a secret key; a :class:`Signer` capability wraps one pid's key and is
the only way to produce tags for that pid.  Verification recomputes the
keyed MAC through the registry — playing the role of the public key.

Unforgeability is by capability discipline: the simulation hands each
process exactly its own :class:`Signer`, so no process (including simulated
Byzantine ones) can sign for another.  Tag length and verify cost match
Ed25519-class signatures via :mod:`repro.crypto.cost`.

Verification recomputes the tag through the pid's
:class:`~repro.crypto.hashing.KeyedHash` (pad states hashed once per key)
and compares in constant time.  Verdicts are not memoized: Pompē verifies
each signed timestamp once, so a memo there only grew (tens of thousands
of verdicts per n=100 run, none read again), and Lyra's repeats come to a
few thousand MACs per run.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Any, Dict

from repro.crypto.hashing import KeyedHash, digest_of
from repro.sim.rng import derive_seed

SIGNATURE_BYTES = 64


@dataclass(frozen=True)
class Signature:
    """A transferable signature: signer id + MAC tag."""

    signer: int
    tag: bytes

    def wire_size(self) -> int:
        return SIGNATURE_BYTES

    def canonical(self) -> tuple:
        return (self.signer, self.tag)


class KeyRegistry:
    """The PKI: deterministic per-pid secret keys derived from a root seed."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._macs: Dict[int, KeyedHash] = {}

    def _mac(self, pid: int) -> KeyedHash:
        """``pid``'s secret key, as the keyed hash that tags under it."""
        mac = self._macs.get(pid)
        if mac is None:
            key = derive_seed(self._seed, "signing-key", str(pid)).to_bytes(8, "big")
            mac = KeyedHash(hashlib.sha256(key).digest(), hashlib.sha512)
            self._macs[pid] = mac
        return mac

    def signer(self, pid: int) -> "Signer":
        """Issue the signing capability for ``pid`` (setup-time only)."""
        return Signer(pid, self._mac(pid), self)

    def verify(self, message: Any, signature: Signature, pid: int) -> bool:
        """``public-verify(m, sigma, j)`` — check ``signature`` was produced
        by ``pid`` over ``message``."""
        if signature.signer != pid:
            return False
        return hmac.compare_digest(
            self._mac(pid).tag(digest_of(message)), signature.tag
        )


class Signer:
    """A single process's signing capability."""

    def __init__(self, pid: int, mac: KeyedHash, registry: KeyRegistry) -> None:
        self.pid = pid
        self._mac = mac
        self._registry = registry

    def sign(self, message: Any) -> Signature:
        """``private-sign(m)``."""
        return Signature(self.pid, self._mac.tag(digest_of(message)))

    def verify(self, message: Any, signature: Signature, pid: int) -> bool:
        """Convenience passthrough to the registry's verify."""
        return self._registry.verify(message, signature, pid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Signer(pid={self.pid})"


__all__ = ["KeyRegistry", "Signer", "Signature", "SIGNATURE_BYTES"]
