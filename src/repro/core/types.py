"""Shared datatypes of the Lyra protocol stack.

Transactions are opaque fixed-size payloads (the paper uses unique 32-byte
values, §VI-A); batches amortise consensus costs (§VI-B, batch size 800);
an :class:`InstanceId` names one BOC instance (a proposer and its local
batch counter); an :class:`AcceptedEntry` is an element of the accepted set
``A`` of Algorithm 4.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import NamedTuple, Tuple

TX_PAYLOAD_BYTES = 32

_TX_PACK = struct.Struct(">QQ16s")


@dataclass(frozen=True)
class Transaction:
    """A client transaction: a unique 32-byte payload.

    The payload encodes ``(client_id, nonce, body)`` so uniqueness holds by
    construction and executed outputs can be traced back to submitters.
    """

    client_id: int
    nonce: int
    body: bytes = b"\x00" * 16
    submitted_at: int = 0  # client-side submission time (metrics only)

    def payload(self) -> bytes:
        """The canonical 32-byte wire payload."""
        return _TX_PACK.pack(self.client_id, self.nonce, self.body[:16].ljust(16, b"\x00"))

    @classmethod
    def from_payload(cls, data: bytes, submitted_at: int = 0) -> "Transaction":
        client_id, nonce, body = _TX_PACK.unpack(data)
        return cls(client_id, nonce, body, submitted_at)

    def key(self) -> Tuple[int, int]:
        return (self.client_id, self.nonce)

    def wire_size(self) -> int:
        return TX_PAYLOAD_BYTES

    def canonical(self) -> tuple:
        return (self.client_id, self.nonce, self.body)


@dataclass(frozen=True)
class Batch:
    """A proposer-local batch of transactions, the unit of one BOC instance."""

    proposer: int
    batch_no: int
    txs: Tuple[Transaction, ...]

    def serialize(self) -> bytes:
        """Concatenated canonical payloads — the plaintext that gets
        VSS-encrypted for commit-reveal."""
        return b"".join(tx.payload() for tx in self.txs)

    @classmethod
    def deserialize(
        cls, proposer: int, batch_no: int, data: bytes
    ) -> "Batch":
        if len(data) % TX_PAYLOAD_BYTES != 0:
            raise ValueError("batch plaintext is not a whole number of txs")
        txs = tuple(
            Transaction.from_payload(data[i : i + TX_PAYLOAD_BYTES])
            for i in range(0, len(data), TX_PAYLOAD_BYTES)
        )
        return cls(proposer, batch_no, txs)

    def wire_size(self) -> int:
        return TX_PAYLOAD_BYTES * len(self.txs)

    def canonical(self) -> tuple:
        return (self.proposer, self.batch_no, tuple(tx.canonical() for tx in self.txs))

    def __len__(self) -> int:
        return len(self.txs)


class InstanceId(NamedTuple):
    """Identity of one BOC instance: ``(proposer, batch_no)``.

    Instance ids key every hot dict in the protocol, so this is a tuple:
    it hashes and compares in C, and ``hash(InstanceId(p, b)) ==
    hash((p, b))``.  It is still its own type on the wire —
    :func:`repro.crypto.hashing.digest_of` tags it by class name via
    ``canonical()``, unlike a bare ``(p, b)`` pair.
    """

    proposer: int
    batch_no: int

    def wire_size(self) -> int:
        return 8

    def canonical(self) -> tuple:
        return (self.proposer, self.batch_no)


@dataclass(frozen=True)
class AcceptedEntry:
    """An element of the accepted set ``A``: an instance that decided 1,
    its cipher id, and its decided sequence number."""

    instance: InstanceId
    cipher_id: bytes
    seq: int

    def order_key(self) -> tuple:
        """Total order on committed transactions: decided sequence number,
        ties broken deterministically by cipher id (sub-µs collisions)."""
        return (self.seq, self.cipher_id)

    def wire_size(self) -> int:
        return 8 + 32 + 8

    def canonical(self) -> tuple:
        return (self.instance.canonical(), self.cipher_id, self.seq)


__all__ = [
    "Transaction",
    "Batch",
    "InstanceId",
    "AcceptedEntry",
    "TX_PAYLOAD_BYTES",
]
