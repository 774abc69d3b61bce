"""Hashing helpers: the collision-resistant hash of §II-B (SHA-256).

``digest_of`` canonically serialises small Python structures so protocol
code can hash tuples/lists/ints/bytes without inventing ad-hoc encodings
(two structurally equal values always hash equal; type confusion between
e.g. ``1`` and ``"1"`` is prevented by type tags).

Objects opt in by exposing ``canonical()`` (a stable tuple): they hash as
their type name followed by that tuple.

:class:`KeyedHash` is the keyed-hash kernel under every signature, share
and full-signature tag in this package: HMAC with the key block absorbed
once.  It caches *hash states*, never tags or verdicts.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable


def sha256_bytes(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


class KeyedHash:
    """HMAC (RFC 2104) under one fixed key, with the pad blocks hashed once.

    ``hmac.new(key, msg, cons)`` re-derives ``key ^ ipad`` / ``key ^ opad``
    and compresses both blocks on every call; a simulated PKI tags
    hundreds of thousands of messages under a few hundred keys, so the
    two padded states are built here once and ``.copy()``-ed per message.
    ``tag(msg)`` is byte-for-byte ``hmac.new(key, msg, cons).digest()`` —
    keys longer than the block are pre-hashed, shorter ones zero-padded —
    and nothing about a message is remembered.
    """

    __slots__ = ("_inner", "_outer")

    def __init__(self, key: bytes, cons: Callable[..., Any]) -> None:
        inner, outer = cons(), cons()
        if len(key) > inner.block_size:
            key = cons(key).digest()
        key = key.ljust(inner.block_size, b"\0")
        inner.update(key.translate(_IPAD))
        outer.update(key.translate(_OPAD))
        self._inner = inner
        self._outer = outer

    def tag(self, message: bytes) -> bytes:
        inner = self._inner.copy()
        inner.update(message)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()


def _feed(h: Any, value: Any) -> None:
    if value is None:
        h.update(b"N")
    elif isinstance(value, bool):
        h.update(b"B1" if value else b"B0")
    elif isinstance(value, int):
        h.update(b"I")
        h.update(str(value).encode())
        h.update(b";")
    elif isinstance(value, float):
        h.update(b"F")
        h.update(repr(value).encode())
        h.update(b";")
    elif isinstance(value, bytes):
        h.update(b"Y")
        h.update(len(value).to_bytes(8, "big"))
        h.update(value)
    elif isinstance(value, str):
        data = value.encode()
        h.update(b"S")
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)
    elif isinstance(value, (tuple, list)) and not hasattr(value, "canonical"):
        # A tuple type that opts in to ``canonical()`` (``InstanceId``)
        # keeps its type tag below instead of hashing as a bare sequence.
        h.update(b"L")
        h.update(len(value).to_bytes(8, "big"))
        for item in value:
            _feed(h, item)
    elif isinstance(value, (set, frozenset)):
        h.update(b"E")
        digests = sorted(digest_of(item) for item in value)
        h.update(len(digests).to_bytes(8, "big"))
        for d in digests:
            h.update(d)
    elif isinstance(value, dict):
        h.update(b"D")
        entries = sorted(
            (digest_of(k), digest_of(v)) for k, v in value.items()
        )
        h.update(len(entries).to_bytes(8, "big"))
        for dk, dv in entries:
            h.update(dk)
            h.update(dv)
    else:
        # Objects can opt in by exposing a stable ``canonical()`` tuple.
        canonical = getattr(value, "canonical", None)
        if canonical is None:
            raise TypeError(f"cannot canonically hash {type(value).__name__}")
        h.update(type(value).__name__.encode())
        _feed(h, canonical() if callable(canonical) else canonical)


def digest_of(value: Any) -> bytes:
    """Canonical SHA-256 digest of a (nested) Python value."""
    if type(value) is bytes:
        # Hot path: signature layers hash pre-computed digests (bytes).
        # One concatenation + one C call produces the identical stream
        # ``b"Y" + len + value`` that ``_feed`` would have fed piecewise.
        return hashlib.sha256(
            b"Y" + len(value).to_bytes(8, "big") + value
        ).digest()
    if type(value) is tuple:
        # Flat tuples of exactly ``bytes``/``int`` — ``(digest, ts)`` under
        # every ordering timestamp — are joined once instead of walking
        # ``_feed``; the stream is the one ``_feed`` emits.  Exact types
        # only: ``bool``, enums and subclasses keep their tags via ``_feed``.
        parts = [b"L", len(value).to_bytes(8, "big")]
        for item in value:
            kind = type(item)
            if kind is bytes:
                parts += (b"Y", len(item).to_bytes(8, "big"), item)
            elif kind is int:
                parts.append(b"I%d;" % item)
            else:
                break
        else:
            return hashlib.sha256(b"".join(parts)).digest()
    h = hashlib.sha256()
    _feed(h, value)
    return h.digest()


__all__ = [
    "sha256_bytes",
    "sha256_hex",
    "KeyedHash",
    "digest_of",
]
